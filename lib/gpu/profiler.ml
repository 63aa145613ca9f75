(** The kernel profiler (§5.2).

    Takes a candidate kernel (a convex set of primitives plus its output
    set), decides which backend would implement it, and returns the
    modelled latency — or rejects the candidate, mirroring the paper's
    rules: memory-intensive subgraphs go to the TVM-MetaSchedule-style
    generated backend, subgraphs containing exactly one linear
    transformation primitive go to vendor libraries (cuBLAS/cuDNN/TensorRT),
    and everything else is rejected. Simulated tuning time feeds Table 2. *)

open Ir

type config = {
  max_tvm_prims : int;  (** "too many operators to generate within one kernel" (§6.5) *)
}

let default_config = { max_tvm_prims = 10 }

(* Layout/elementwise primitives a vendor kernel can absorb around its
   linear primitive. *)
let max_vendor_companions = 4

type result = {
  latency_us : float;
  backend : Cost_model.backend_kind;
  tuning_time_s : float;  (** simulated auto-tuning wall-clock cost *)
}

(** [signature g members ~outputs ~spec ~precision] — canonical structural
    key of a candidate kernel, used by {!Profile_cache} to avoid re-tuning
    identical kernels (the paper's "TVM database"). Member nodes are
    renumbered by position so that structurally identical subgraphs from
    different graph regions share one entry. *)
let signature (g : Primgraph.t) (members : Bitset.t) ~(outputs : int list)
    ~(spec : Spec.t) ~(precision : Precision.t) : string =
  let ids = Bitset.elements members in
  let local = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace local id i) ids;
  let buf = Buffer.create 256 in
  Buffer.add_string buf spec.Spec.name;
  Buffer.add_char buf '/';
  Buffer.add_string buf (Precision.to_string precision);
  List.iter
    (fun id ->
      let nd = Graph.node g id in
      Buffer.add_char buf '|';
      Buffer.add_string buf (Primitive.to_string nd.Graph.op);
      Buffer.add_string buf (Tensor.Shape.to_string nd.Graph.shape);
      List.iter
        (fun i ->
          match Hashtbl.find_opt local i with
          | Some l -> Buffer.add_string buf (Printf.sprintf "@%d" l)
          | None ->
            (* External input: only its shape matters. *)
            Buffer.add_string buf ("ext" ^ Tensor.Shape.to_string (Graph.shape g i)))
        nd.Graph.inputs;
      if List.mem id outputs then Buffer.add_string buf "!out")
    ids;
  Buffer.contents buf

(* Deterministic pseudo-random tuning time: most memory-intensive kernels
   tune "within 2 minutes" (§5.2); a small heavy tail models the 12-hour
   outlier the paper reports for YOLOv4 (§6.5). *)
let simulated_tuning_time ~(backend : Cost_model.backend_kind) (sig_ : string)
    (n_prims : int) : float =
  match backend with
  | Cost_model.Vendor -> 1.0
  | OpaqueExec -> 0.5
  | Tvm ->
    let h = Hashtbl.hash sig_ in
    let base = 6.0 +. (2.5 *. float_of_int n_prims) +. float_of_int (h mod 25) in
    if h mod 311 = 0 then base *. 60.0 else base

(** [profile cfg ~spec ~precision g members ~outputs] — generate-and-profile
    one candidate kernel. [None] means the candidate is rejected (the
    paper's "Profiling returns infinity"). *)
(* Accept/reject census of raw (uncached) profiler calls. *)
let m_accepted = Obs.Metrics.counter "profiler.accepted"
let m_rejected = Obs.Metrics.counter "profiler.rejected"

let profile (cfg : config) ~(spec : Spec.t) ~(precision : Precision.t) (g : Primgraph.t)
    (members : Bitset.t) ~(outputs : int list) : result option =
  (* A real measurement can crash or hang the tuner; the injection site
     lets tests force exactly that for any chosen candidate. *)
  Faults.check Faults.Profiler;
  let counted r =
    Obs.Metrics.incr (if r = None then m_rejected else m_accepted);
    r
  in
  counted
  @@
  let s = Stats.kernel_stats g members ~outputs in
  if s.Stats.n_prims = 0 then None
  else
    let backend =
      if s.Stats.has_opaque then
        if s.Stats.n_prims = 1 then Some Cost_model.OpaqueExec else None
      else
        match s.Stats.linear_prims with
        | [] -> if s.Stats.n_prims <= cfg.max_tvm_prims then Some Cost_model.Tvm else None
        | [ _ ] ->
          (* Vendor kernels absorb a few layout/elementwise/broadcast
             companions (transposed operands, bias/activation epilogues)
             but cannot host reductions or large generated prologues. *)
          let companions = s.Stats.n_prims - 1 in
          let has_reduction =
            List.mem Primitive.Reduction s.Stats.classes
          in
          if companions <= max_vendor_companions && not has_reduction then
            Some Cost_model.Vendor
          else None
        | _ :: _ :: _ -> None (* multiple linear primitives: reject (§6.5) *)
    in
    match backend with
    | None -> None
    | Some backend ->
      let latency_us = Cost_model.latency_us ~spec ~precision ~backend g members ~outputs in
      let sig_ = signature g members ~outputs ~spec ~precision in
      let tuning_time_s = simulated_tuning_time ~backend sig_ s.Stats.n_prims in
      Some { latency_us; backend; tuning_time_s }
