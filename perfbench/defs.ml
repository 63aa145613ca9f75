(* The benchmark's metric catalogue. BENCHMARK.json at the repository root
   declares the same names, units and directions; the self-test
   (perfbench/test) checks the two agree, and [Report.emit] refuses to
   print a metric that is not declared here. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let workloads = [ "compile-zoo"; "execute-native"; "serve-mixed" ]

(* End-to-end metrics: every workload reports all of them. What "the
   operation" is differs per workload (README.md has the table):
   compile-zoo orchestrates a model, execute-native runs one warm native
   inference, serve-mixed answers one cache-hit request. The alternative
   path is the decode plan-table sweep, one Interp-backend inference and
   one cache-miss request respectively. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "latency_ms_p50" "ms" Lower;
    m "latency_ms_tail" "ms" Lower;
    m "alt_latency_ms_p50" "ms" Lower;
    m "throughput_per_s" "1/s" Higher;
    m "peak_rss_mb" "MiB" Lower;
  ]

(* Per-layer metrics of the traced run. Every workload prints all of them;
   a layer the workload bypasses reads 0. *)
let per_layer =
  [
    (* plan quality: deterministic cost-model outputs *)
    m "plan.latency_geomean_us" "model_us" Lower;
    m "plan.peak_mem_geomean_mb" "MiB" Lower;
    (* fission + partition + transform *)
    m "models.build_ms" "ms" Lower;
    m "fission.fold_bn_ms" "ms" Lower;
    m "fission.ms" "ms" Lower;
    m "fission.prims" "count" Lower;
    m "core.partition.ms" "ms" Lower;
    m "core.partition.segments" "count" Lower;
    m "transform.ms" "ms" Lower;
    (* kernel identification + profiling *)
    m "core.identify.ms" "ms" Lower;
    m "core.identify.states" "count" Lower;
    m "core.identify.candidates" "count" Lower;
    m "core.candidates_pruned" "count" Lower;
    m "gpu.profile_cache.hits" "count" Higher;
    m "gpu.profile_cache.misses" "count" Lower;
    m "gpu.profile_cache.hit_ratio" "ratio" Higher;
    (* the BLP *)
    m "lp.ilp.ms" "ms" Lower;
    m "lp.ilp.solves" "count" Lower;
    m "lp.ilp.nodes" "count" Lower;
    m "lp.ilp.us_per_node" "us" Lower;
    m "lp.ilp.columns" "count" Lower;
    m "lp.ilp.rows" "count" Lower;
    m "lp.ilp.optimal_ratio" "ratio" Higher;
    m "core.solve.ms" "ms" Lower;
    m "core.schedule.ms" "ms" Lower;
    m "core.cuts_added" "count" Lower;
    (* stitch, verification, memory planning *)
    m "core.stitch.ms" "ms" Lower;
    m "verify.ms" "ms" Lower;
    m "analysis.hazard.ms" "ms" Lower;
    m "runtime.memplan.ms" "ms" Lower;
    m "runtime.memplan.reuse_ratio" "ratio" Higher;
    (* plan tables *)
    m "core.plan_table.ms" "ms" Lower;
    m "core.plan_table.probes" "count" Lower;
    m "core.plan_table.ranges" "count" Lower;
    (* native code generation *)
    m "codegen.build_ms" "ms" Lower;
    m "codegen.emit.ms" "ms" Lower;
    m "codegen.cc.ms" "ms" Lower;
    m "codegen.verify.ms" "ms" Lower;
    m "codegen.compiles" "count" Lower;
    m "codegen.cache.hit_ratio" "ratio" Higher;
    m "codegen.fallbacks" "count" Lower;
    (* execution *)
    m "codegen.kernel_us" "us" Lower;
    m "runtime.exec_overhead_ms" "ms" Lower;
    m "runtime.interp.ms" "ms" Lower;
    (* serving *)
    m "serve.plan_cache.key_ms" "ms" Lower;
    m "serve.plan_cache.lookup_ms" "ms" Lower;
    m "serve.plan_cache.store_ms" "ms" Lower;
    m "serve.protocol.encode_ms" "ms" Lower;
    m "serve.handle.hit_ms" "ms" Lower;
    m "serve.handle.miss_ms" "ms" Lower;
    m "serve.plan_cache.hit_ratio" "ratio" Higher;
    m "serve.queue.peak" "count" Lower;
    m "serve.overloaded" "count" Lower;
    (* what the layers leave unexplained, and what tracing costs *)
    m "unaccounted.ms" "ms" Lower;
    m "trace.overhead_pct" "%" Lower;
  ]

let find name = List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)

let better_to_string = function Lower -> "lower" | Higher -> "higher"
