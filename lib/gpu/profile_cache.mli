(** Profile database (the paper's "TVM database", §6.5/A.7).

    Caches profiling results by canonical kernel signature so structurally
    identical candidates are tuned once, and accumulates the simulated
    tuning time Table 2 reports. The table is striped into independently
    locked shards, so concurrent lookup/insert from several orchestrator
    worker domains is safe; a miss profiles under its shard lock, so each
    distinct kernel is tuned exactly once even under races. *)

open Ir

type t

(** [create ?shards ()] — an empty cache striped over [shards] (default
    64, clamped to at least 1) independently locked hash tables. *)
val create : ?shards:int -> unit -> t

(** Cached version of {!Profiler.profile}: a miss profiles and charges its
    tuning time; a hit is free. Safe to call from several domains. *)
val profile :
  t ->
  Profiler.config ->
  spec:Spec.t ->
  precision:Precision.t ->
  Primgraph.t ->
  Bitset.t ->
  outputs:int list ->
  Profiler.result option

(** Accumulated simulated tuning time (each distinct kernel charged once). *)
val tuning_time_s : t -> float

(** Lookups answered from the table. *)
val hits : t -> int

(** Lookups that had to profile. *)
val misses : t -> int

(** Number of distinct candidate kernels profiled so far. *)
val distinct_kernels : t -> int
