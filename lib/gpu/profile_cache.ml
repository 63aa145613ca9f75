(** Profile database (the paper's "TVM database", §6.5/A.7).

    Caches profiling results by canonical kernel signature so structurally
    identical candidates are tuned once. Tracks cumulative simulated tuning
    time — the quantity Table 2 reports — counting each distinct kernel's
    tuning cost exactly once.

    The table is striped into independently locked shards (keys are
    assigned by signature hash) so the orchestrator's worker domains can
    look up and insert concurrently: contention is limited to two workers
    racing for the same shard, and a miss computes the profile {e while
    holding its shard lock}, so a kernel signature is profiled exactly once
    no matter how many domains request it simultaneously — which keeps
    tuning-time accounting identical to a sequential run. *)

open Ir

type shard = {
  table : (string, Profiler.result option) Hashtbl.t;
  lock : Mutex.t;
  mutable tuning_time_s : float;
  mutable hits : int;
  mutable misses : int;
}

type t = { shards : shard array }

(* Process-wide census across every cache instance; the per-instance
   fields above keep the per-run Table 2 accounting. *)
let m_hits = Obs.Metrics.counter "profile_cache.hits"
let m_misses = Obs.Metrics.counter "profile_cache.misses"

let h_tuning =
  Obs.Metrics.histogram
    ~bounds:[| 1.0; 10.0; 60.0; 120.0; 600.0; 3600.0; 43200.0 |]
    "profile_cache.tuning_s"

let default_shards = 64

let create ?(shards = default_shards) () : t =
  let shards = max 1 shards in
  {
    shards =
      Array.init shards (fun _ ->
          { table = Hashtbl.create 64; lock = Mutex.create (); tuning_time_s = 0.0; hits = 0; misses = 0 });
  }

let shard_of (cache : t) (key : string) : shard =
  cache.shards.(Hashtbl.hash key mod Array.length cache.shards)

(** [profile cache cfg ~spec ~precision g members ~outputs] — cached
    version of {!Profiler.profile}. Safe to call from several domains. *)
let profile (cache : t) (cfg : Profiler.config) ~(spec : Spec.t)
    ~(precision : Precision.t) (g : Primgraph.t) (members : Bitset.t)
    ~(outputs : int list) : Profiler.result option =
  let key = Profiler.signature g members ~outputs ~spec ~precision in
  let sh = shard_of cache key in
  Mutex.lock sh.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.lock)
    (fun () ->
      match Hashtbl.find_opt sh.table key with
      | Some r ->
        sh.hits <- sh.hits + 1;
        Obs.Metrics.incr m_hits;
        r
      | None ->
        sh.misses <- sh.misses + 1;
        Obs.Metrics.incr m_misses;
        let r = Profiler.profile cfg ~spec ~precision g members ~outputs in
        (match r with
        | Some r ->
          sh.tuning_time_s <- sh.tuning_time_s +. r.Profiler.tuning_time_s;
          Obs.Metrics.observe h_tuning r.Profiler.tuning_time_s
        | None -> ());
        Hashtbl.replace sh.table key r;
        r)

let sum_int (cache : t) f = Array.fold_left (fun a sh -> a + f sh) 0 cache.shards

(** [tuning_time_s cache] — accumulated simulated tuning time, each
    distinct kernel charged exactly once. *)
let tuning_time_s (cache : t) =
  Array.fold_left (fun a sh -> a +. sh.tuning_time_s) 0.0 cache.shards

(** [hits cache] — lookups answered from the table. *)
let hits (cache : t) = sum_int cache (fun sh -> sh.hits)

(** [misses cache] — lookups that had to profile. *)
let misses (cache : t) = sum_int cache (fun sh -> sh.misses)

(** [distinct_kernels cache] — number of distinct candidate kernels
    profiled (cache entries). *)
let distinct_kernels (cache : t) = sum_int cache (fun sh -> Hashtbl.length sh.table)
