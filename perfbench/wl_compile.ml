(* compile-zoo: the path users pay on `korch optimize` / `korch table`.

   Each pass orchestrates candy, decode and efficientvit at paper scale
   (batch 1, V100/FP32, jobs = 1) and builds one decode Plan_table over
   batches 1..64, in an order the seed draws. Passes repeat until the
   measuring time is up, at least [min_passes] of them, so every plan is
   compared with an earlier one. Codegen, execution and serving do no work
   here. *)

let models = [ "candy"; "decode"; "efficientvit" ]

(* The models whose plans set-up also orchestrates, as the reference the
   timed passes must reproduce bit for bit (the two cheap ones). *)
let reference_models = [ "candy"; "decode" ]

let sweep_lo = 1
let sweep_hi = 64
let min_passes = 2

(* probes on each side of a timed job, which runs for seconds *)
let probe_burst = 10

let cfg =
  {
    Korch.Orchestrator.default_config with
    Korch.Orchestrator.spec = Gpu.Spec.v100;
    precision = Gpu.Precision.FP32;
    jobs = 1;
  }

(* efficientvit is the model whose BLPs end at the node budget. With the
   default 1200-node budget one orchestration takes 10-20 s, too long to
   sample within a run; a 100-node budget keeps six of its seventeen
   segments ending at the budget (tier Incumbent) and takes ~1.5 s. *)
let cfg_for name =
  if name = "efficientvit" then { cfg with Korch.Orchestrator.ilp_node_limit = 100 } else cfg

let entry name =
  match Models.Registry.find name with Some e -> e | None -> failwith ("unknown model " ^ name)

let fold = Fission.Canonicalize.fold_batch_norms

(* One orchestrated plan reduced to what must reproduce across passes. *)
type fingerprint = { signature : string; latency_us : float }

let fingerprint (r : Korch.Orchestrator.result) =
  {
    signature = Korch.Plan_table.signature r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan;
    latency_us = r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us;
  }

(* The correctness contract of one orchestration: no degraded segment,
   an executable plan, a clean static plan check, and (when known) the
   same plan as before. *)
let check_result (rep : Report.t) ~name ?expect (r : Korch.Orchestrator.result) =
  let g = r.Korch.Orchestrator.graph and plan = r.Korch.Orchestrator.plan in
  Report.check rep (r.Korch.Orchestrator.degraded_segments = [])
    "%s: %d degraded segment(s)" name (List.length r.Korch.Orchestrator.degraded_segments);
  (match Runtime.Executor.validate g plan with
  | Ok () -> ()
  | Error msg -> Report.fail rep (Printf.sprintf "%s: invalid plan: %s" name msg));
  let diags = Verify.plan_check g plan in
  Report.check rep
    (not (Verify.Diagnostics.has_errors diags))
    "%s: plan check found %d error(s)" name
    (List.length (Verify.Diagnostics.errors diags));
  match expect with
  | Some fp ->
    Report.check rep (fingerprint r = fp) "%s: plan differs from the reference orchestration"
      name
  | None -> ()

let check_table (rep : Report.t) (tab : Korch.Plan_table.t) =
  let rec contiguous next = function
    | [] -> next = sweep_hi + 1
    | (r : Korch.Plan_table.range) :: rest ->
      r.Korch.Plan_table.lo = next && r.Korch.Plan_table.hi >= r.Korch.Plan_table.lo
      && contiguous (r.Korch.Plan_table.hi + 1) rest
  in
  Report.check rep (contiguous sweep_lo tab.Korch.Plan_table.ranges)
    "decode table: ranges do not partition [%d, %d]" sweep_lo sweep_hi;
  List.iter
    (fun (r : Korch.Plan_table.range) ->
      (match Runtime.Executor.validate r.Korch.Plan_table.graph r.Korch.Plan_table.plan with
      | Ok () -> ()
      | Error msg ->
        Report.fail rep
          (Printf.sprintf "decode table: range [%d, %d] plan invalid: %s" r.Korch.Plan_table.lo
             r.Korch.Plan_table.hi msg));
      Report.check rep
        (Korch.Plan_table.signature r.Korch.Plan_table.graph r.Korch.Plan_table.plan
        = r.Korch.Plan_table.signature)
        "decode table: range [%d, %d] signature does not match its plan" r.Korch.Plan_table.lo
        r.Korch.Plan_table.hi)
    tab.Korch.Plan_table.ranges

let table_fingerprint (tab : Korch.Plan_table.t) =
  List.map
    (fun (r : Korch.Plan_table.range) ->
      (r.Korch.Plan_table.lo, r.Korch.Plan_table.hi, r.Korch.Plan_table.signature))
    tab.Korch.Plan_table.ranges

type setup = {
  graphs : (string * Ir.Opgraph.t) list;
  references : (string * fingerprint) list;
  build_ms : float;  (** building the operator graphs *)
  fold_ms : float;  (** folding their batch norms *)
}

let setup_once () =
  let raw, build_s =
    Bstats.timed (fun () -> List.map (fun n -> (n, (entry n).Models.Registry.build ())) models)
  in
  let graphs, fold_s = Bstats.timed (fun () -> List.map (fun (n, g) -> (n, fold g)) raw) in
  let references =
    List.map
      (fun n -> (n, fingerprint (Korch.Orchestrator.run (cfg_for n) (List.assoc n graphs))))
      reference_models
  in
  { graphs; references; build_ms = build_s *. 1e3; fold_ms = fold_s *. 1e3 }

let setup_reps = 3

let run ~(rep : Report.t) ~seed ~seconds ~trace ~work_dir =
  (* Set-up: build the graphs and the reference plans, several times; the
     median set-up time is reported. *)
  let setups = List.init setup_reps (fun _ -> Bstats.timed setup_once) in
  let st = fst (List.nth setups (setup_reps - 1)) in
  Report.set rep "setup_s" (Bstats.median (List.map snd setups));
  let rng = Random.State.make [| seed; 0x636f6d70 |] in
  (* every sample is (wall ms, probe units); see Bstats.host_timed *)
  let times : (string, (float * float) list) Hashtbl.t = Hashtbl.create 8 in
  let sweep_times = ref [] in
  let host_probes = ref [] in
  let last : (string, Korch.Orchestrator.result) Hashtbl.t = Hashtbl.create 8 in
  let expected = Hashtbl.create 8 in
  List.iter (fun (n, fp) -> Hashtbl.replace expected n fp) st.references;
  let expected_table = ref None in
  let last_table = ref None in
  let passes = ref 0 in
  let one_pass () =
    let jobs = Bstats.shuffle rng (`Sweep :: List.map (fun n -> `Model n) models) in
    List.iter
      (fun job ->
        (* every job starts from a compacted heap, as a fresh process
           would, whatever ran before it *)
        Gc.compact ();
        match job with
        | `Model name ->
          let g = List.assoc name st.graphs in
          Report.attempt rep;
          let r, ms, rel =
            Bstats.host_timed ~burst:probe_burst host_probes (fun () ->
                Obs.Span.with_ ~name:("bench.optimize." ^ name) (fun () ->
                    Korch.Orchestrator.run (cfg_for name) g))
          in
          Hashtbl.replace times name
            ((ms, rel) :: Option.value ~default:[] (Hashtbl.find_opt times name));
          check_result rep ~name ?expect:(Hashtbl.find_opt expected name) r;
          if not (Hashtbl.mem expected name) then Hashtbl.replace expected name (fingerprint r);
          Hashtbl.replace last name r
        | `Sweep ->
          Report.attempt rep;
          (* the sweep runs for seconds: each graph it asks for also
             samples the host *)
          let build ~batch =
            Bstats.record_probe host_probes;
            fold ((entry "decode").Models.Registry.build ~batch ())
          in
          let tab, ms, rel =
            Bstats.host_timed ~burst:probe_burst host_probes (fun () ->
                Obs.Span.with_ ~name:"bench.plan_table" (fun () ->
                    Korch.Plan_table.build cfg ~model:"decode" ~build ~lo:sweep_lo ~hi:sweep_hi))
          in
          sweep_times := (ms, rel) :: !sweep_times;
          check_table rep tab;
          (match !expected_table with
          | Some fp ->
            Report.check rep (table_fingerprint tab = fp)
              "decode table differs between passes"
          | None -> expected_table := Some (table_fingerprint tab));
          last_table := Some tab)
      jobs;
    incr passes
  in
  let measure () =
    let t0 = Bstats.now_s () in
    while !passes < min_passes || Bstats.now_s () -. t0 < seconds do
      one_pass ()
    done;
    Bstats.now_s () -. t0
  in
  let before = Obs.Metrics.snapshot () in
  let (section_s, spans) =
    if trace then
      let s, spans = Layers.traced measure in
      (s, Some spans)
    else (measure (), None)
  in
  let after = Obs.Metrics.snapshot () in
  let model_ms name = List.map fst (Hashtbl.find times name) in
  (* the end-to-end timings: each job in probe units, in reference ms *)
  let host samples = Bstats.reference_ms (List.map snd samples) in
  let model_host name = host (Hashtbl.find times name) in
  let results = List.map (fun n -> (n, Hashtbl.find last n)) models in
  (* per-model rows *)
  Report.row "%-13s %10s %10s %10s %14s %8s %10s  %s\n" "model" "p50 s" "tail s" "raw p50 s"
    "plan us" "kernels" "peak MiB" "tiers (opt/inc/greedy/unfused)";
  List.iter
    (fun (n, (r : Korch.Orchestrator.result)) ->
      let ms = model_host n in
      let tiers t =
        List.length
          (List.filter
             (fun s -> s.Korch.Orchestrator.outcome.Korch.Orchestrator.tier = t)
             r.Korch.Orchestrator.segments)
      in
      Report.row "%-13s %10.3f %10.3f %10.3f %14.2f %8d %10.2f  %d/%d/%d/%d\n" n
        (Bstats.median ms /. 1e3) (Bstats.tail_value ms /. 1e3)
        (Bstats.median (model_ms n) /. 1e3)
        r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us
        (Runtime.Plan.kernel_count r.Korch.Orchestrator.plan)
        (float_of_int r.Korch.Orchestrator.memory.Runtime.Memplan.peak_bytes /. 1048576.0)
        (tiers Korch.Orchestrator.Optimal) (tiers Korch.Orchestrator.Incumbent)
        (tiers Korch.Orchestrator.Greedy) (tiers Korch.Orchestrator.Unfused))
    results;
  let sweep_ms = host !sweep_times in
  (match !last_table with
  | Some tab ->
    Report.row "%-13s %10.3f %10.3f %10.3f  %d ranges, crossovers at [%s]\n"
      (Printf.sprintf "decode %d..%d" sweep_lo sweep_hi)
      (Bstats.median sweep_ms /. 1e3) (Bstats.tail_value sweep_ms /. 1e3)
      (Bstats.median (List.map fst !sweep_times) /. 1e3)
      (List.length tab.Korch.Plan_table.ranges)
      (String.concat "; " (List.map string_of_int tab.Korch.Plan_table.crossovers))
  | None -> ());
  Report.row "passes %d, measured %.2f s; host probe %.3f ms median, %.3f ms fastest 1%% (%d probes)\n"
    !passes section_s (Bstats.median !host_probes) (Bstats.percentile 1.0 !host_probes)
    (List.length !host_probes);
  let all_ms = List.concat_map model_host models in
  Report.set rep "latency_ms_p50"
    (Bstats.geomean (List.map (fun n -> Bstats.median (model_host n)) models));
  Report.set rep "latency_ms_tail"
    (Bstats.geomean (List.map (fun n -> Bstats.tail_value (model_host n)) models));
  Report.set rep "alt_latency_ms_p50" (Bstats.median sweep_ms);
  Report.set rep "throughput_per_s"
    (float_of_int (List.length all_ms) /. (Bstats.sum all_ms /. 1e3));
  Report.set rep "peak_rss_mb" (Bstats.peak_rss_mb ());
  match spans with
  | None -> ()
  | Some spans ->
    let passes_f = float_of_int !passes in
    let per_pass x = x /. passes_f in
    let span_metrics = ("core.plan_table.ms", "bench.plan_table") :: Layers.orchestration_spans in
    List.iter
      (fun (metric, span) -> Report.set rep metric (per_pass (Layers.self_ms spans span)))
      span_metrics;
    List.iter (fun (k, v) -> Report.set rep k v) (Layers.counter_deltas ~passes:!passes before after);
    let nodes = float_of_int (Layers.delta before after "ilp.nodes") in
    Report.set rep "lp.ilp.us_per_node"
      (Layers.ratio (Layers.total_ms spans "ilp.solve" *. 1e3) nodes);
    Report.set rep "lp.ilp.columns" (Layers.arg_mean spans "ilp.solve" "vars");
    Report.set rep "lp.ilp.rows" (Layers.arg_mean spans "ilp.solve" "rows");
    let hits = float_of_int (Layers.delta before after "profile_cache.hits") in
    let misses = float_of_int (Layers.delta before after "profile_cache.misses") in
    Report.set rep "gpu.profile_cache.hit_ratio" (Layers.ratio hits (hits +. misses));
    let segments = List.concat_map (fun (_, r) -> r.Korch.Orchestrator.segments) results in
    let solved =
      List.filter
        (fun (s : Korch.Orchestrator.segment_result) ->
          Ir.Primgraph.non_source_nodes s.Korch.Orchestrator.transformed <> [])
        segments
    in
    Report.set rep "lp.ilp.optimal_ratio"
      (Layers.ratio
         (float_of_int
            (List.length
               (List.filter
                  (fun s ->
                    s.Korch.Orchestrator.outcome.Korch.Orchestrator.tier
                    = Korch.Orchestrator.Optimal)
                  solved)))
         (float_of_int (List.length solved)));
    Report.set rep "core.cuts_added"
      (float_of_int
         (List.fold_left (fun a s -> a + s.Korch.Orchestrator.cuts_added) 0 segments));
    Report.set rep "fission.prims"
      (float_of_int (List.fold_left (fun a (_, r) -> a + r.Korch.Orchestrator.prim_nodes) 0 results));
    (* Layers the library does not span, timed from outside by one extra
       call each on the final plans (work the timed orchestrations also
       did once per model or segment). *)
    let time_ms f = snd (Bstats.timed f) *. 1e3 in
    let memplan_ms, hazard_ms, reuse =
      List.fold_left
        (fun (mm, hm, ru) (_, (r : Korch.Orchestrator.result)) ->
          let g = r.Korch.Orchestrator.graph and plan = r.Korch.Orchestrator.plan in
          let mp = ref None in
          let m = time_ms (fun () -> mp := Some (Runtime.Memplan.analyze ~bytes_per_element:4 g plan)) in
          let h =
            match !mp with
            | Some mp -> time_ms (fun () -> ignore (Analysis.Hazard.check ~bytes_per_element:4 g plan mp))
            | None -> 0.0
          in
          (mm +. m, hm +. h, r.Korch.Orchestrator.memory.Runtime.Memplan.reuse_ratio :: ru))
        (0.0, 0.0, []) results
    in
    Report.set rep "runtime.memplan.ms" memplan_ms;
    Report.set rep "analysis.hazard.ms" hazard_ms;
    Report.set rep "runtime.memplan.reuse_ratio" (Bstats.sum reuse /. float_of_int (List.length reuse));
    Report.set rep "core.schedule.ms"
      (Bstats.sum
         (List.map
            (fun (s : Korch.Orchestrator.segment_result) ->
              time_ms (fun () ->
                  ignore
                    (Korch.Scheduler.schedule s.Korch.Orchestrator.transformed
                       s.Korch.Orchestrator.candidates ~selected:s.Korch.Orchestrator.selected)))
            segments));
    (match !last_table with
    | Some tab ->
      Report.set rep "core.plan_table.probes"
        (float_of_int
           (List.fold_left
              (fun a (r : Korch.Plan_table.range) -> a + List.length r.Korch.Plan_table.probes)
              0 tab.Korch.Plan_table.ranges));
      Report.set rep "core.plan_table.ranges" (float_of_int (List.length tab.Korch.Plan_table.ranges))
    | None -> ());
    let plans = List.map snd results in
    Report.set rep "plan.latency_geomean_us"
      (Bstats.geomean
         (List.map (fun r -> r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us) plans));
    Report.set rep "plan.peak_mem_geomean_mb"
      (Bstats.geomean
         (List.map
            (fun r ->
              float_of_int r.Korch.Orchestrator.memory.Runtime.Memplan.peak_bytes /. 1048576.0)
            plans));
    Report.set rep "models.build_ms" st.build_ms;
    Report.set rep "fission.fold_bn_ms" st.fold_ms;
    let accounted = Bstats.sum (List.map (fun (_, s) -> Layers.self_ms spans s) span_metrics) in
    Report.set rep "unaccounted.ms" (per_pass ((section_s *. 1e3) -. accounted));
    Layers.write_chrome_trace (Filename.concat work_dir "trace-compile-zoo.json");
    (* Tracing overhead: the reference models again, untraced, against
       their traced times in the section above. *)
    let traced_ms = Bstats.sum (List.map (fun n -> Bstats.median (model_host n)) reference_models) in
    let untraced_ms =
      Bstats.sum
        (host
           (List.map
              (fun n ->
                let g = List.assoc n st.graphs in
                let (), ms, rel =
                  Bstats.host_timed ~burst:probe_burst host_probes (fun () ->
                      ignore (Korch.Orchestrator.run (cfg_for n) g))
                in
                (ms, rel))
              reference_models))
    in
    Report.set rep "trace.overhead_pct" (100.0 *. (traced_ms -. untraced_ms) /. untraced_ms);
    Report.bypass rep
      [ "codegen.build_ms"; "codegen.emit.ms"; "codegen.cc.ms"; "codegen.verify.ms";
        "codegen.cache.hit_ratio"; "codegen.fallbacks"; "codegen.kernel_us";
        "runtime.exec_overhead_ms"; "runtime.interp.ms"; "serve.plan_cache.key_ms";
        "serve.plan_cache.lookup_ms"; "serve.plan_cache.store_ms"; "serve.protocol.encode_ms";
        "serve.handle.hit_ms"; "serve.handle.miss_ms"; "serve.plan_cache.hit_ratio";
        "serve.queue.peak"; "serve.overloaded" ]
