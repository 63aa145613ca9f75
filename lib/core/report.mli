(** Human-readable orchestration reports. *)

(** [pp_result ppf r] prints node/state/candidate counts, selected kernel
    count, redundancy, estimated latency, simulated tuning time and the
    static memory plan (tensors, slots, peak vs. no-reuse bytes, reuse
    ratio), followed by the degradation-ladder summary: segments per
    tier and any degraded or enumeration-truncated segments. *)
val pp_result : Format.formatter -> Orchestrator.result -> unit

(** [pp_segments ppf r] prints the per-segment outcome table: index,
    ladder tier, selected kernel count, worker retries and fallback
    notes. *)
val pp_segments : Format.formatter -> Orchestrator.result -> unit

(** [summary r] is [pp_result] rendered to a string. *)
val summary : Orchestrator.result -> string

(** [segment_table r] is [pp_segments] rendered to a string. *)
val segment_table : Orchestrator.result -> string

(** [execution_to_json ~backend stats] — the optional ["execution"] block
    of a korch-report/1 document: the backend that ran the plan plus the
    native backend's per-kernel accounting (native vs. interpreted kernel
    counts, per-kernel fallbacks with reasons, measured per-kernel
    wall-clocks). Pass the result to {!to_json}'s [?execution]. *)
val execution_to_json :
  backend:Runtime.Backend.t -> Runtime.Backend.exec_stats -> Obs.Jsonw.t

(** [to_json ?meta ?execution r] — machine-readable report, schema [korch-report/1]:
    run-level counts (primitives, states, candidates, kernels, redundancy,
    plan latency, tuning time), the degradation-tier census, a ["memory"]
    object with the {!Runtime.Memplan} stats of the stitched plan (an
    optional field — pre-memplan readers of the schema ignore it), an
    ["analysis"] object with the hazard cross-check outcome
    (status checked/skipped/off plus finding counts — also optional),
    per-phase wall-clock timings, one object per segment (tier,
    kernel/candidate counts, enumeration stats, retries, fallback reason,
    phase timings) and a {!Obs.Metrics} snapshot under ["metrics"]. [meta] adds a
    caller-supplied ["meta"] object (model name, GPU, precision, jobs…);
    [execution] adds the optional ["execution"] block (see
    {!execution_to_json}). The output parses back with [Onnx.Json]. *)
val to_json :
  ?meta:(string * Obs.Jsonw.t) list ->
  ?execution:Obs.Jsonw.t ->
  Orchestrator.result ->
  Obs.Jsonw.t

(** [json_string ?meta ?execution r] is [to_json] rendered compactly. *)
val json_string :
  ?meta:(string * Obs.Jsonw.t) list ->
  ?execution:Obs.Jsonw.t ->
  Orchestrator.result ->
  string

(** [plan_to_json p] — an executable plan as a JSON object
    ([total_latency_us] plus one object per kernel: [prims], [outputs],
    [latency_us], [backend]). Floats print with 17 significant digits, so
    {!plan_of_json} recovers the plan bit-identically — the round-trip
    the serving layer's durable plan cache depends on. *)
val plan_to_json : Runtime.Plan.t -> Obs.Jsonw.t

(** [plan_of_json j] — parse a plan written by {!plan_to_json}. Validates
    shape and that the stored total matches the kernels (a mismatch means
    a torn or hand-edited document); never raises. *)
val plan_of_json : Onnx.Json.t -> (Runtime.Plan.t, string) result

(** [plan_roundtrip_string p] is [plan_to_json] rendered compactly. *)
val plan_roundtrip_string : Runtime.Plan.t -> string

(** [jsonw_of_json j] — value-exact conversion from a parsed
    [Onnx.Json] document to the write-only [Obs.Jsonw] AST, used to
    embed serialized graphs inside larger documents. Both sides print
    numbers identically, so write → parse → write stays a fixpoint. *)
val jsonw_of_json : Onnx.Json.t -> Obs.Jsonw.t

(** [plan_table_to_json t] — a batch-parametric plan table as a JSON
    object, schema [korch-plan-table/1]: model/GPU/precision, the
    covered batch interval, the crossover batches, and one object per
    range (bounds, probes, anchor, the anchor's serialized primitive
    graph and plan, structural signature, refinement flag). Floats print
    with 17 significant digits so {!plan_table_of_json} recovers the
    table bit-identically. *)
val plan_table_to_json : Plan_table.t -> Obs.Jsonw.t

(** [plan_table_of_json j] — parse a table written by
    {!plan_table_to_json}. Validates the schema string, that the ranges
    contiguously partition [lo, hi], and that the crossover list agrees
    with the range bounds; never raises. *)
val plan_table_of_json : Onnx.Json.t -> (Plan_table.t, string) result

(** [plan_table_json_string t] is [plan_table_to_json] rendered
    compactly — the on-disk form the serving plan cache stores. *)
val plan_table_json_string : Plan_table.t -> string
