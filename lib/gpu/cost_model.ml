(** Analytical GPU kernel cost model (substitute for on-device profiling).

    Roofline with kernel-launch overhead:
    [latency = max (memory_time, compute_time) + launch_overhead].

    Memory time models three effects the paper's case studies hinge on:
    - fused kernels touch each distinct external input once and each
      published output once — intermediates live in registers/shared
      memory, so fusion removes traffic;
    - every reduction whose result is consumed inside the same kernel at
      pre-reduction resolution forces an extra pass over the data (the
      softmax problem, §1);
    - mixing primitive categories with different parallelism degrees in a
      generated (TVM-style) kernel lowers achieved bandwidth, and very
      large fused kernels degrade codegen quality (Figure 13).

    Compute time models GEMM/conv tile efficiency, including the
    extreme-aspect-ratio penalty that makes layout-folded MatMuls several
    times faster (Figure 8, ~3.5x). *)

(* The single calibration of the roofline. There is no real device to
   profile, so these are fixed, not tuned per run: every plan, golden
   latency and bench baseline in the repository is priced with exactly
   these values. *)

(* Achieved/peak bandwidth of a clean generated (TVM-style) kernel. *)
let tvm_base_eff = 0.82

(* Bandwidth efficiency of vendor library kernels. *)
let vendor_base_eff = 0.90

(* Bandwidth efficiency of opaque (handwritten library) kernels. *)
let opaque_eff = 0.50

(* Bandwidth lost per extra parallelism class mixed into one kernel. *)
let class_mix_penalty = 0.28

(* Generated-code quality decays as [codegen_decay * excess ** codegen_decay_exp]
   beyond [codegen_free_prims] primitives: auto-schedulers degrade
   gracefully on mid-size fusions but fall off a cliff on very large ones
   (the Figure 13 effect). *)
let codegen_decay = 0.05
let codegen_decay_exp = 1.7
let codegen_free_prims = 5

(* Vendor GEMM efficiency at friendly shapes, and the dimension below
   which GEMM tiles are underfilled. *)
let gemm_base_eff = 0.88
let gemm_tile = 64.0

(* CUDA-core efficiency of elementwise math. *)
let ew_compute_eff = 0.70

type backend_kind = Tvm | Vendor | OpaqueExec

let backend_to_string = function
  | Tvm -> "tvm"
  | Vendor -> "vendor"
  | OpaqueExec -> "opaque"

let backend_of_string = function
  | "tvm" -> Some Tvm
  | "vendor" -> Some Vendor
  | "opaque" -> Some OpaqueExec
  | _ -> None

(** [gemm_efficiency (m, n, k)] — fraction of peak matrix throughput a
    vendor GEMM achieves. Thin matrices underfill tiles: efficiency decays
    linearly below [gemm_tile] in any dimension. *)
let gemm_efficiency ((m, n, k) : int * int * int) : float =
  let dim_eff d = Float.min 1.0 (float_of_int d /. gemm_tile) in
  gemm_base_eff *. dim_eff m *. dim_eff n *. Float.min 1.0 (dim_eff k *. 2.0)

(** [memory_efficiency ~spec ~backend stats] — achieved fraction of
    peak bandwidth for this kernel. Generated (TVM) kernels additionally
    scale with the architecture's [tvm_maturity] (§6.2: TVM lags TensorRT
    on A100). *)
let memory_efficiency ~(spec : Spec.t) ~(backend : backend_kind)
    (s : Stats.kernel_stats) : float =
  let base =
    match backend with
    | Tvm -> tvm_base_eff *. spec.Spec.tvm_maturity
    | Vendor -> vendor_base_eff
    | OpaqueExec -> opaque_eff
  in
  (* Parallelism classes, not categories: elementwise, broadcast and
     layout primitives are all injective maps with identical parallelism,
     so fusing them is free; only mixing injective work with reductions or
     linear transformations costs generated-kernel quality (§1/§3). *)
  let parallelism_class = function
    | Ir.Primitive.Elementwise | Broadcasting | Layout -> Some `Injective
    | Reduction -> Some `Reduce
    | Linear -> Some `Linear
    | Unknown -> Some `Opaque
    | Source -> None
  in
  let exec_classes =
    List.sort_uniq compare (List.filter_map parallelism_class s.Stats.classes)
  in
  let mix = Float.max 0.0 (float_of_int (List.length exec_classes - 1)) in
  let size_decay =
    codegen_decay
    *. (float_of_int (Stdlib.max 0 (s.Stats.n_prims - codegen_free_prims))
       ** codegen_decay_exp)
  in
  base /. (1.0 +. (class_mix_penalty *. mix) +. size_decay)

(** [latency_us ~spec ~precision ~backend g members ~outputs] — modelled
    latency in microseconds of running the primitive set [members] as one
    kernel. *)
let latency_us ~(spec : Spec.t) ~(precision : Precision.t)
    ~(backend : backend_kind) (g : Ir.Primgraph.t) (members : Ir.Bitset.t)
    ~(outputs : int list) : float =
  let s = Stats.kernel_stats g members ~outputs in
  let bytes_per = float_of_int (Precision.bytes_per_element precision) in
  let traffic_bytes =
    (s.Stats.read_elems +. s.Stats.extra_read_elems +. s.Stats.write_elems) *. bytes_per
  in
  let mem_eff = memory_efficiency ~spec ~backend s in
  let mem_time_s = traffic_bytes /. (spec.Spec.mem_bw_gb_s *. 1e9 *. mem_eff) in
  let compute_time_s =
    match s.Stats.linear_prims with
    | [] ->
      let peak = Precision.vector_tflops spec precision *. 1e12 in
      s.Stats.flops /. (peak *. ew_compute_eff)
    | lins ->
      let peak = Precision.peak_tflops spec precision *. 1e12 in
      let eff =
        List.fold_left
          (fun acc id ->
            match Stats.linear_dims g id with
            | Some dims -> Float.min acc (gemm_efficiency dims)
            | None -> acc)
          1.0 lins
      in
      s.Stats.flops /. (peak *. Float.max 0.01 eff)
  in
  (Float.max mem_time_s compute_time_s *. 1e6) +. spec.Spec.launch_overhead_us

(** [substitute_shapes g shapes] — the same graph with every node's shape
    replaced. The cost model reads a graph only through shapes and op
    kinds ({!Stats}), so substituting the shapes a batch-parametric model
    takes at another batch ({!Ir.Batch_sym.shapes_at}) re-prices its
    kernels at that batch without re-running fission or stitching. Stale
    payload numerals (Reshape targets, Broadcast sizes) are harmless
    here: no {!Stats} quantity reads them. *)
let substitute_shapes (g : Ir.Primgraph.t) (shapes : Tensor.Shape.t array) : Ir.Primgraph.t =
  if Array.length shapes <> Array.length g.Ir.Graph.nodes then
    invalid_arg "Cost_model.substitute_shapes: shape count does not match the graph";
  {
    g with
    Ir.Graph.nodes =
      Array.mapi (fun i nd -> { nd with Ir.Graph.shape = shapes.(i) }) g.Ir.Graph.nodes;
  }

(** [workspace_bytes ~precision g members ~outputs] — modelled scratch
    footprint of running [members] as one kernel publishing [outputs]:
    the peak bytes of kernel-internal intermediates simultaneously live
    during a last-use sweep over the kernel's topological order.
    Published outputs are global memory traffic (already priced by
    {!latency_us}), not workspace, so they are excluded. Real codegen
    keeps many intermediates in registers/shared memory; this is a
    deliberate materialize-everything upper bound, comparable across
    candidates. *)
let workspace_bytes ~(precision : Precision.t) (g : Ir.Primgraph.t)
    (members : Ir.Bitset.t) ~(outputs : int list) : int =
  let bytes_per = Precision.bytes_per_element precision in
  let order = List.filter (fun id -> Ir.Bitset.mem members id) (Ir.Graph.topo_order g) in
  let steps = List.length order in
  let outset = Ir.Bitset.of_list (Ir.Graph.length g) outputs in
  (* Last in-kernel consumer of each member (at least its own step). *)
  let last = Hashtbl.create 16 in
  List.iteri
    (fun i id ->
      if not (Hashtbl.mem last id) then Hashtbl.replace last id i;
      List.iter
        (fun src -> if Ir.Bitset.mem members src then Hashtbl.replace last src i)
        (Ir.Graph.inputs g id))
    order;
  let delta = Array.make (steps + 1) 0 in
  List.iteri
    (fun i id ->
      if not (Ir.Bitset.mem outset id) then begin
        let b = Tensor.Shape.numel (Ir.Graph.shape g id) * bytes_per in
        delta.(i) <- delta.(i) + b;
        let d = Hashtbl.find last id in
        if d + 1 <= steps then delta.(d + 1) <- delta.(d + 1) - b
      end)
    order;
  let live = ref 0 and peak = ref 0 in
  Array.iter
    (fun d ->
      live := !live + d;
      if !live > !peak then peak := !live)
    delta;
  !peak
