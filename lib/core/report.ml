(** Human-readable orchestration reports. *)

(* Render a byte count with a binary-unit suffix. *)
let pp_bytes (b : int) : string =
  let f = float_of_int b in
  if f >= 1024.0 *. 1024.0 *. 1024.0 then Printf.sprintf "%.2f GiB" (f /. (1024.0 ** 3.0))
  else if f >= 1024.0 *. 1024.0 then Printf.sprintf "%.2f MiB" (f /. (1024.0 ** 2.0))
  else if f >= 1024.0 then Printf.sprintf "%.2f KiB" (f /. 1024.0)
  else Printf.sprintf "%d B" b

let pp_result ppf (r : Orchestrator.result) =
  Format.fprintf ppf "Korch orchestration result@.";
  Format.fprintf ppf "  primitive nodes : %d@." r.Orchestrator.prim_nodes;
  Format.fprintf ppf "  segments        : %d@." (List.length r.Orchestrator.segments);
  Format.fprintf ppf "  execution states: %d@." r.Orchestrator.total_states;
  Format.fprintf ppf "  candidates      : %d@." r.Orchestrator.total_candidates;
  Format.fprintf ppf "  kernels selected: %d@."
    (Runtime.Plan.kernel_count r.Orchestrator.plan);
  Format.fprintf ppf "  redundancy      : %d extra primitive executions@."
    (Runtime.Plan.redundancy r.Orchestrator.plan);
  Format.fprintf ppf "  est. latency    : %.2f us@."
    r.Orchestrator.plan.Runtime.Plan.total_latency_us;
  Format.fprintf ppf "  sim. tuning time: %.1f s@." r.Orchestrator.tuning_time_s;
  let m = r.Orchestrator.memory in
  Format.fprintf ppf
    "  memory plan     : %d tensors -> %d slots, peak %s (no-reuse %s, %.1f%% reused)@."
    m.Runtime.Memplan.instances m.Runtime.Memplan.slots
    (pp_bytes m.Runtime.Memplan.peak_bytes)
    (pp_bytes m.Runtime.Memplan.no_reuse_bytes)
    (100.0 *. m.Runtime.Memplan.reuse_ratio);
  Format.fprintf ppf "  hazard check    : %s@."
    (Orchestrator.analysis_outcome_to_string r.Orchestrator.analysis);
  (* Degradation-ladder summary: how many segments landed on each tier. *)
  let count t =
    List.length
      (List.filter (fun s -> s.Orchestrator.outcome.Orchestrator.tier = t) r.Orchestrator.segments)
  in
  let optimal = count Orchestrator.Optimal
  and incumbent = count Orchestrator.Incumbent
  and greedy = count Orchestrator.Greedy
  and unfused = count Orchestrator.Unfused in
  Format.fprintf ppf "  segment tiers   : %d optimal, %d incumbent, %d greedy, %d unfused@."
    optimal incumbent greedy unfused;
  if r.Orchestrator.degraded_segments <> [] then
    Format.fprintf ppf "  DEGRADED        : segment%s %s fell back below the BLP@."
      (if List.length r.Orchestrator.degraded_segments > 1 then "s" else "")
      (String.concat ", " (List.map string_of_int r.Orchestrator.degraded_segments));
  if r.Orchestrator.truncated_segments <> [] then
    Format.fprintf ppf
      "  TRUNCATED       : segment%s %s stopped state enumeration at the bound@."
      (if List.length r.Orchestrator.truncated_segments > 1 then "s" else "")
      (String.concat ", " (List.map string_of_int r.Orchestrator.truncated_segments))

(** Per-segment outcome table: one line per segment with its ladder tier,
    retries, and the failure that pushed it down (if any). *)
let pp_segments ppf (r : Orchestrator.result) =
  Format.fprintf ppf "  seg  tier       kernels  retries  notes@.";
  List.iter
    (fun (s : Orchestrator.segment_result) ->
      let o = s.Orchestrator.outcome in
      let notes =
        List.filter_map Fun.id
          [
            o.Orchestrator.fallback_reason;
            (if o.Orchestrator.transform_degraded then Some "transform degraded" else None);
            (if s.Orchestrator.id_stats.Kernel_identifier.states_truncated then
               Some "states truncated"
             else None);
          ]
      in
      Format.fprintf ppf "  %3d  %-9s  %7d  %7d  %s@." s.Orchestrator.seg_index
        (Orchestrator.tier_to_string o.Orchestrator.tier)
        (List.length s.Orchestrator.selected)
        o.Orchestrator.retries
        (match notes with [] -> "-" | l -> String.concat "; " l))
    r.Orchestrator.segments

let summary (r : Orchestrator.result) : string = Format.asprintf "%a" pp_result r

let segment_table (r : Orchestrator.result) : string = Format.asprintf "%a" pp_segments r

(* ----------------------------- JSON report ----------------------------- *)

let phase_obj (phases : (string * float) list) : Obs.Jsonw.t =
  Obs.Jsonw.Obj (List.map (fun (k, v) -> (k, Obs.Jsonw.Float v)) phases)

let segment_to_json (s : Orchestrator.segment_result) : Obs.Jsonw.t =
  let o = s.Orchestrator.outcome in
  let st = s.Orchestrator.id_stats in
  Obs.Jsonw.Obj
    [
      ("seg", Obs.Jsonw.Int s.Orchestrator.seg_index);
      ("tier", Obs.Jsonw.Str (Orchestrator.tier_to_string o.Orchestrator.tier));
      ("kernels", Obs.Jsonw.Int (List.length s.Orchestrator.selected));
      ("candidates", Obs.Jsonw.Int (Array.length s.Orchestrator.candidates));
      ("states", Obs.Jsonw.Int st.Kernel_identifier.states);
      ("states_truncated", Obs.Jsonw.Bool st.Kernel_identifier.states_truncated);
      ("profiled", Obs.Jsonw.Int st.Kernel_identifier.profiled);
      ("prefiltered", Obs.Jsonw.Int st.Kernel_identifier.prefiltered);
      ("latency_us", Obs.Jsonw.Float s.Orchestrator.latency_us);
      ("cuts_added", Obs.Jsonw.Int s.Orchestrator.cuts_added);
      ("retries", Obs.Jsonw.Int o.Orchestrator.retries);
      ("transform_degraded", Obs.Jsonw.Bool o.Orchestrator.transform_degraded);
      ( "fallback_reason",
        match o.Orchestrator.fallback_reason with
        | Some s -> Obs.Jsonw.Str s
        | None -> Obs.Jsonw.Null );
      ("phase_us", phase_obj s.Orchestrator.phase_us);
    ]

(** [execution_to_json ~backend stats] — the ["execution"] block of a
    korch-report/1 document: which backend ran the plan and the native
    backend's per-kernel accounting (kernels run natively vs. on the
    interpreter, per-kernel fallbacks with their reasons, and measured
    per-kernel wall-clocks). *)
let execution_to_json ~(backend : Runtime.Backend.t)
    (s : Runtime.Backend.exec_stats) : Obs.Jsonw.t =
  Obs.Jsonw.Obj
    [
      ("backend", Obs.Jsonw.Str (Runtime.Backend.to_string backend));
      ("native_kernels", Obs.Jsonw.Int s.Runtime.Backend.native_kernels);
      ("interp_kernels", Obs.Jsonw.Int s.Runtime.Backend.interp_kernels);
      ( "fallbacks",
        Obs.Jsonw.List
          (List.map
             (fun (ki, reason) ->
               Obs.Jsonw.Obj
                 [ ("kernel", Obs.Jsonw.Int ki); ("reason", Obs.Jsonw.Str reason) ])
             (List.sort compare s.Runtime.Backend.fallbacks)) );
      ( "kernel_times_us",
        Obs.Jsonw.List
          (List.map
             (fun (ki, us) ->
               Obs.Jsonw.Obj
                 [ ("kernel", Obs.Jsonw.Int ki); ("us", Obs.Jsonw.Float us) ])
             (List.sort compare s.Runtime.Backend.kernel_times_us)) );
    ]

(** [to_json ?meta ?execution r] — the machine-readable orchestration
    report (schema [korch-report/1]). *)
let to_json ?(meta : (string * Obs.Jsonw.t) list = [])
    ?(execution : Obs.Jsonw.t option) (r : Orchestrator.result) :
    Obs.Jsonw.t =
  let count t =
    List.length
      (List.filter (fun s -> s.Orchestrator.outcome.Orchestrator.tier = t) r.Orchestrator.segments)
  in
  let ints l = Obs.Jsonw.List (List.map (fun i -> Obs.Jsonw.Int i) l) in
  Obs.Jsonw.Obj
    ([ ("schema", Obs.Jsonw.Str "korch-report/1") ]
    @ (if meta = [] then [] else [ ("meta", Obs.Jsonw.Obj meta) ])
    @ [
        ("prim_nodes", Obs.Jsonw.Int r.Orchestrator.prim_nodes);
        ("segments", Obs.Jsonw.Int (List.length r.Orchestrator.segments));
        ("total_states", Obs.Jsonw.Int r.Orchestrator.total_states);
        ("total_candidates", Obs.Jsonw.Int r.Orchestrator.total_candidates);
        ("kernels", Obs.Jsonw.Int (Runtime.Plan.kernel_count r.Orchestrator.plan));
        ("redundancy", Obs.Jsonw.Int (Runtime.Plan.redundancy r.Orchestrator.plan));
        ( "plan_latency_us",
          Obs.Jsonw.Float r.Orchestrator.plan.Runtime.Plan.total_latency_us );
        ("tuning_time_s", Obs.Jsonw.Float r.Orchestrator.tuning_time_s);
        ( "tiers",
          Obs.Jsonw.Obj
            [
              ("optimal", Obs.Jsonw.Int (count Orchestrator.Optimal));
              ("incumbent", Obs.Jsonw.Int (count Orchestrator.Incumbent));
              ("greedy", Obs.Jsonw.Int (count Orchestrator.Greedy));
              ("unfused", Obs.Jsonw.Int (count Orchestrator.Unfused));
            ] );
        ("degraded_segments", ints r.Orchestrator.degraded_segments);
        ("truncated_segments", ints r.Orchestrator.truncated_segments);
        (* New in this revision; optional for korch-report/1 readers. *)
        ( "memory",
          let m = r.Orchestrator.memory in
          Obs.Jsonw.Obj
            [
              ("instances", Obs.Jsonw.Int m.Runtime.Memplan.instances);
              ("steps", Obs.Jsonw.Int m.Runtime.Memplan.steps);
              ("slots", Obs.Jsonw.Int m.Runtime.Memplan.slots);
              ("no_reuse_bytes", Obs.Jsonw.Int m.Runtime.Memplan.no_reuse_bytes);
              ("peak_bytes", Obs.Jsonw.Int m.Runtime.Memplan.peak_bytes);
              ("live_peak_bytes", Obs.Jsonw.Int m.Runtime.Memplan.live_peak_bytes);
              ("reuse_ratio", Obs.Jsonw.Float m.Runtime.Memplan.reuse_ratio);
            ] );
        (* New in this revision; optional for korch-report/1 readers. *)
        ( "analysis",
          match r.Orchestrator.analysis with
          | Orchestrator.Analysis_off -> Obs.Jsonw.Obj [ ("status", Obs.Jsonw.Str "off") ]
          | Orchestrator.Analysis_skipped reason ->
            Obs.Jsonw.Obj
              [ ("status", Obs.Jsonw.Str "skipped"); ("reason", Obs.Jsonw.Str reason) ]
          | Orchestrator.Analysis_checked report ->
            let e, w, i = Verify.Diagnostics.count_severity report in
            Obs.Jsonw.Obj
              [
                ("status", Obs.Jsonw.Str "checked");
                ("errors", Obs.Jsonw.Int e);
                ("warnings", Obs.Jsonw.Int w);
                ("infos", Obs.Jsonw.Int i);
              ] );
        ("phase_us", phase_obj r.Orchestrator.phase_us);
        ( "per_segment",
          Obs.Jsonw.List (List.map segment_to_json r.Orchestrator.segments) );
      ]
    (* New in this revision; optional for korch-report/1 readers. *)
    @ (match execution with Some e -> [ ("execution", e) ] | None -> [])
    @ [ ("metrics", Obs.Metrics.to_json ()) ])

let json_string ?meta ?execution (r : Orchestrator.result) : string =
  Obs.Jsonw.to_string (to_json ?meta ?execution r)

(* ------------------------- plan round-trip ------------------------- *)

(* The serving layer's durable plan cache stores plans as JSON and must
   read back the exact plan it wrote: [Jsonw] prints floats with 17
   significant digits and [Onnx.Json] parses them back bit-identically,
   so write → read → write is a fixpoint. *)

let plan_to_json (p : Runtime.Plan.t) : Obs.Jsonw.t =
  let ints l = Obs.Jsonw.List (List.map (fun i -> Obs.Jsonw.Int i) l) in
  Obs.Jsonw.Obj
    [
      ("total_latency_us", Obs.Jsonw.Float p.Runtime.Plan.total_latency_us);
      ( "kernels",
        Obs.Jsonw.List
          (List.map
             (fun (k : Runtime.Plan.kernel) ->
               Obs.Jsonw.Obj
                 [
                   ("prims", ints k.Runtime.Plan.prims);
                   ("outputs", ints k.Runtime.Plan.outputs);
                   ("latency_us", Obs.Jsonw.Float k.Runtime.Plan.latency_us);
                   ("backend", Obs.Jsonw.Str k.Runtime.Plan.backend);
                 ])
             p.Runtime.Plan.kernels) );
    ]

let plan_of_json (j : Onnx.Json.t) : (Runtime.Plan.t, string) result =
  let open Onnx.Json in
  let field name obj =
    match member name obj with
    | Some v -> v
    | None -> failwith (Printf.sprintf "plan_of_json: missing field %S" name)
  in
  match
    let kernels =
      field "kernels" j |> to_list_exn
      |> List.map (fun k ->
             Runtime.Plan.
               {
                 prims = List.map to_int_exn (to_list_exn (field "prims" k));
                 outputs = List.map to_int_exn (to_list_exn (field "outputs" k));
                 latency_us = to_float_exn (field "latency_us" k);
                 backend = to_string_exn (field "backend" k);
               })
    in
    let p = Runtime.Plan.make kernels in
    let declared = to_float_exn (field "total_latency_us" j) in
    (* [make] recomputes the total from the kernels; a mismatch with the
       stored total means the document was hand-edited or torn. *)
    if Float.abs (declared -. p.Runtime.Plan.total_latency_us) > 1e-6 *. Float.max 1.0 declared
    then failwith "plan_of_json: total_latency_us disagrees with kernel latencies";
    p
  with
  | p -> Ok p
  | exception Failure msg -> Error msg
  | exception e -> Error (Printexc.to_string e)

let plan_roundtrip_string (p : Runtime.Plan.t) : string =
  Obs.Jsonw.to_string (plan_to_json p)

(* ---------------------- plan-table round-trip ---------------------- *)

(* [Jsonw] is write-only by design; graphs serialize through [Onnx.Json].
   To embed a serialized graph inside a plan-table document we convert
   the parsed value node-for-node. The conversion is value-exact:
   [Onnx.Json.Num] carries the same float [Jsonw.Float] prints (both
   sides print integral values without a decimal point and everything
   else with 17 significant digits), so write → parse → write is still a
   fixpoint. *)
let rec jsonw_of_json : Onnx.Json.t -> Obs.Jsonw.t = function
  | Onnx.Json.Null -> Obs.Jsonw.Null
  | Onnx.Json.Bool b -> Obs.Jsonw.Bool b
  | Onnx.Json.Num n -> Obs.Jsonw.Float n
  | Onnx.Json.Str s -> Obs.Jsonw.Str s
  | Onnx.Json.List l -> Obs.Jsonw.List (List.map jsonw_of_json l)
  | Onnx.Json.Obj kvs -> Obs.Jsonw.Obj (List.map (fun (k, v) -> (k, jsonw_of_json v)) kvs)

let plan_table_schema = "korch-plan-table/1"

let range_to_json (r : Plan_table.range) : Obs.Jsonw.t =
  Obs.Jsonw.Obj
    [
      ("lo", Obs.Jsonw.Int r.Plan_table.lo);
      ("hi", Obs.Jsonw.Int r.Plan_table.hi);
      ("probes", Obs.Jsonw.List (List.map (fun p -> Obs.Jsonw.Int p) r.Plan_table.probes));
      ("anchor", Obs.Jsonw.Int r.Plan_table.anchor);
      ("graph", jsonw_of_json (Onnx.Serialize.of_primgraph r.Plan_table.graph));
      ("plan", plan_to_json r.Plan_table.plan);
      ("signature", Obs.Jsonw.Str r.Plan_table.signature);
      ("refined", Obs.Jsonw.Bool r.Plan_table.refined);
    ]

let plan_table_to_json (t : Plan_table.t) : Obs.Jsonw.t =
  Obs.Jsonw.Obj
    [
      ("schema", Obs.Jsonw.Str plan_table_schema);
      ("model", Obs.Jsonw.Str t.Plan_table.model);
      ("gpu", Obs.Jsonw.Str t.Plan_table.gpu);
      ("precision", Obs.Jsonw.Str t.Plan_table.precision);
      ("lo", Obs.Jsonw.Int t.Plan_table.lo);
      ("hi", Obs.Jsonw.Int t.Plan_table.hi);
      ("crossovers", Obs.Jsonw.List (List.map (fun c -> Obs.Jsonw.Int c) t.Plan_table.crossovers));
      ("ranges", Obs.Jsonw.List (List.map range_to_json t.Plan_table.ranges));
    ]

let plan_table_of_json (j : Onnx.Json.t) : (Plan_table.t, string) result =
  let open Onnx.Json in
  let field name obj =
    match member name obj with
    | Some v -> v
    | None -> failwith (Printf.sprintf "plan_table_of_json: missing field %S" name)
  in
  match
    (match member "schema" j with
    | Some (Str s) when s = plan_table_schema -> ()
    | Some (Str s) ->
      failwith (Printf.sprintf "plan_table_of_json: unknown schema %S" s)
    | _ -> failwith "plan_table_of_json: missing schema");
    let range_of_json rj : Plan_table.range =
      let graph =
        Onnx.Deserialize.to_graph Onnx.Deserialize.to_primitive ~expect_kind:"primitive"
          (field "graph" rj)
      in
      let plan =
        match plan_of_json (field "plan" rj) with
        | Ok p -> p
        | Error m -> failwith (Printf.sprintf "plan_table_of_json: %s" m)
      in
      {
        Plan_table.lo = to_int_exn (field "lo" rj);
        hi = to_int_exn (field "hi" rj);
        probes = List.map to_int_exn (to_list_exn (field "probes" rj));
        anchor = to_int_exn (field "anchor" rj);
        graph;
        plan;
        signature = to_string_exn (field "signature" rj);
        refined =
          (match field "refined" rj with
          | Bool b -> b
          | _ -> failwith "plan_table_of_json: refined must be a boolean");
      }
    in
    let ranges = List.map range_of_json (to_list_exn (field "ranges" j)) in
    if ranges = [] then failwith "plan_table_of_json: no ranges";
    let t =
      {
        Plan_table.model = to_string_exn (field "model" j);
        gpu = to_string_exn (field "gpu" j);
        precision = to_string_exn (field "precision" j);
        lo = to_int_exn (field "lo" j);
        hi = to_int_exn (field "hi" j);
        ranges;
        crossovers = List.map to_int_exn (to_list_exn (field "crossovers" j));
      }
    in
    (* The ranges must partition [lo, hi] and agree with the crossover
       list; a violation means a torn or hand-edited document. *)
    let rec check_cover pos = function
      | [] -> if pos <> t.Plan_table.hi + 1 then failwith "plan_table_of_json: ranges do not cover [lo, hi]"
      | (r : Plan_table.range) :: rest ->
        if r.Plan_table.lo <> pos then failwith "plan_table_of_json: ranges are not contiguous";
        if r.Plan_table.hi < r.Plan_table.lo then failwith "plan_table_of_json: empty range";
        check_cover (r.Plan_table.hi + 1) rest
    in
    check_cover t.Plan_table.lo t.Plan_table.ranges;
    if
      t.Plan_table.crossovers
      <> List.map (fun (r : Plan_table.range) -> r.Plan_table.lo) (List.tl t.Plan_table.ranges)
    then failwith "plan_table_of_json: crossovers disagree with range bounds";
    t
  with
  | t -> Ok t
  | exception Failure msg -> Error msg
  | exception Onnx.Deserialize.Format_error msg ->
    Error (Printf.sprintf "plan_table_of_json: bad graph: %s" msg)
  | exception e -> Error (Printexc.to_string e)

let plan_table_json_string (t : Plan_table.t) : string =
  Obs.Jsonw.to_string (plan_table_to_json t)
