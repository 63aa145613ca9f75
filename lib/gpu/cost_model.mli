(** Analytical GPU kernel cost model (substitute for on-device profiling).

    A roofline with kernel-launch overhead,
    [latency = max (memory_time, compute_time) + launch_overhead], under
    one fixed calibration (private to the implementation): fusion removes
    intermediate traffic, in-kernel reductions consumed at pre-reduction
    resolution cost an extra pass, mixing parallelism classes or fusing
    very many primitives lowers generated-kernel bandwidth, and thin
    GEMMs underfill tiles. *)

type backend_kind = Tvm | Vendor | OpaqueExec

val backend_to_string : backend_kind -> string
val backend_of_string : string -> backend_kind option

(** [gemm_efficiency (m, n, k)] — fraction of peak matrix throughput a
    vendor GEMM achieves; decays linearly below the tile size in any
    dimension. *)
val gemm_efficiency : int * int * int -> float

(** [memory_efficiency ~spec ~backend stats] — achieved fraction of peak
    bandwidth for a kernel. Generated kernels also scale with the
    architecture's [tvm_maturity]. *)
val memory_efficiency : spec:Spec.t -> backend:backend_kind -> Stats.kernel_stats -> float

(** [latency_us ~spec ~precision ~backend g members ~outputs] — modelled
    latency in microseconds of running the primitive set [members] as one
    kernel publishing [outputs]. *)
val latency_us :
  spec:Spec.t ->
  precision:Precision.t ->
  backend:backend_kind ->
  Ir.Primgraph.t ->
  Ir.Bitset.t ->
  outputs:int list ->
  float

(** [substitute_shapes g shapes] — [g] with every node's shape replaced,
    to re-price its kernels at another batch ({!Ir.Batch_sym.shapes_at})
    without re-running fission or stitching. Raises [Invalid_argument]
    when the shape count does not match the graph. *)
val substitute_shapes : Ir.Primgraph.t -> Tensor.Shape.t array -> Ir.Primgraph.t

(** [workspace_bytes ~precision g members ~outputs] — modelled scratch
    footprint of running [members] as one kernel: peak bytes of
    kernel-internal intermediates live at once (published outputs
    excluded). *)
val workspace_bytes :
  precision:Precision.t -> Ir.Primgraph.t -> Ir.Bitset.t -> outputs:int list -> int
