(* execute-native: what a compiled plan costs to run.

   Set-up orchestrates the test-scale candy, segformer and decode, then
   builds every plan kernel from an empty kernel cache (emit + cc + dlopen
   + differential verify). The timed section runs warm inferences of each
   model on the Native backend and on the default Interp backend. The seed
   draws the input tensors and the model order. The orchestrator (and so
   the BLP) only runs in set-up. *)

let models = [ "candy"; "segformer"; "decode" ]

(* Set-up orchestrates with the default configuration, except that
   segformer's BLPs get a 100-node budget: at test scale its kernels are
   all launch-bound, so near-ties make the default 1200-node proofs take
   ~30 s, while the incumbent after 100 nodes is a plan of the same
   modelled latency (464.09 us, 92 kernels). *)
let cfg_for name =
  if name = "segformer" then { Wl_compile.cfg with Korch.Orchestrator.ilp_node_limit = 100 }
  else Wl_compile.cfg

let bits_equal (a : Tensor.Nd.t) (b : Tensor.Nd.t) =
  Tensor.Shape.equal (Tensor.Nd.shape a) (Tensor.Nd.shape b)
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Tensor.Nd.data b.Tensor.Nd.data

let outputs_bits_equal xs ys = List.length xs = List.length ys && List.for_all2 bits_equal xs ys

(* The output contract of one native run: bit-identical to the Interp
   backend, and within FP32 tolerance of the operator-level reference
   (fission and transformations legitimately reassociate). *)
let check_native_outputs (rep : Report.t) ~name ~interp ~reference native =
  Report.check rep (outputs_bits_equal interp native)
    "%s: native outputs differ from the Interp backend" name;
  Report.check rep
    (List.length reference = List.length native
    && List.for_all2 (fun e a -> Tensor.Nd.allclose ~rtol:1e-4 ~atol:1e-6 e a) reference native)
    "%s: native outputs diverge from the operator-level reference" name

let inputs_of ~seed (g : Ir.Opgraph.t) =
  let rng = Tensor.Rng.create (seed lor 1) in
  Array.to_list g.Ir.Graph.nodes
  |> List.filter_map (fun nd ->
         match nd.Ir.Graph.op with
         | Ir.Optype.Input name -> Some (name, Tensor.Nd.randn rng nd.Ir.Graph.shape)
         | _ -> None)

type model = {
  name : string;
  result : Korch.Orchestrator.result;
  inputs : (string * Tensor.Nd.t) list;
  reference : Tensor.Nd.t list;  (** operator-level Runtime.Interp outputs *)
}

(* One kernel-cache build of every plan kernel, timed by part. *)
type build = {
  total_ms : float;
  emit_ms : float;
  cc_ms : float;  (** resolve minus emission: cc + dlopen *)
  verify_ms : float;  (** prepare on a resolved kernel: layout + differential verify *)
  kernels : int;
  compiles : int;  (** cc invocations *)
  failures : string list;
}

let build_kernels ~dir (ms : model list) : build =
  Codegen.Native.reset_verdicts ();
  let cache = Codegen.Kernel_cache.create ~dir () in
  let emit = ref 0.0 and cc = ref 0.0 and verify = ref 0.0 and kernels = ref 0 in
  let failures = ref [] in
  let (), total =
    Bstats.timed (fun () ->
        List.iter
          (fun m ->
            let g = m.result.Korch.Orchestrator.graph in
            List.iteri
              (fun ki (k : Runtime.Plan.kernel) ->
                incr kernels;
                let fail reason =
                  failures := Printf.sprintf "%s kernel %d: %s" m.name (ki + 1) reason :: !failures
                in
                match Codegen.Emit.signature g k with
                | exception Codegen.Emit.Unsupported_kernel msg -> fail ("unsupported: " ^ msg)
                | signature -> (
                  let emit_s = ref 0.0 in
                  let source () =
                    let src, dt = Bstats.timed (fun () -> Codegen.Emit.source g k) in
                    emit_s := !emit_s +. dt;
                    src
                  in
                  match Bstats.timed (fun () -> Codegen.Kernel_cache.resolve cache ~signature ~source) with
                  | exception Faults.Injected _ -> fail "injected codegen_compile fault"
                  | Error msg, _ -> fail msg
                  | Ok _, resolve_s -> (
                    emit := !emit +. !emit_s;
                    cc := !cc +. (resolve_s -. !emit_s);
                    match Bstats.timed (fun () -> Codegen.Native.prepare cache g k) with
                    | exception Faults.Injected _ -> fail "injected codegen_compile fault"
                    | Error msg, _ -> fail msg
                    | Ok _, dt -> verify := !verify +. dt)))
              m.result.Korch.Orchestrator.plan.Runtime.Plan.kernels)
          ms)
  in
  {
    total_ms = total *. 1e3;
    emit_ms = !emit *. 1e3;
    cc_ms = !cc *. 1e3;
    verify_ms = !verify *. 1e3;
    kernels = !kernels;
    compiles = (Codegen.Kernel_cache.stats cache).Codegen.Kernel_cache.compiles;
    failures = List.rev !failures;
  }

let run ~(rep : Report.t) ~seed ~seconds ~trace ~work_dir ~run_dir =
  let kernel_dir = Filename.concat run_dir "kernels" in
  (* The executor's process-wide kernel cache reads this once, on first
     native run: the warm runs load the kernels set-up compiled. *)
  Unix.putenv "KORCH_KERNEL_CACHE" kernel_dir;
  (* Set-up runs once: its kernel build alone compiles ~140 kernels. *)
  let (ms, build, build_ms, fold_ms), setup_s =
    Bstats.timed @@ fun () ->
    let graphs, b =
      Bstats.timed (fun () ->
          List.map (fun n -> (n, (Wl_compile.entry n).Models.Registry.build_small ())) models)
    in
    let graphs, f = Bstats.timed (fun () -> List.map (fun (n, g) -> (n, Wl_compile.fold g)) graphs) in
    let ms =
      List.mapi
        (fun mi (name, g) ->
          let result = Korch.Orchestrator.run (cfg_for name) g in
          Report.attempt rep;
          Wl_compile.check_result rep ~name result;
          let inputs = inputs_of ~seed:((seed * 7919) + mi) g in
          { name; result; inputs; reference = Runtime.Interp.run g ~inputs })
        graphs
    in
    (ms, build_kernels ~dir:kernel_dir ms, b *. 1e3, f *. 1e3)
  in
  Report.set rep "setup_s" setup_s;
  Report.attempt rep;
  List.iter (Report.fail rep) build.failures;
  let rng = Random.State.make [| seed; 0x65786563 |] in
  let order = Bstats.shuffle rng ms in
  (* Warm-up: one run per backend, checked against each other and against
     the operator-level reference. The Interp-backend outputs become the
     bit-exact expectation of every timed run. *)
  let expected =
    List.map
      (fun m ->
        let g = m.result.Korch.Orchestrator.graph and plan = m.result.Korch.Orchestrator.plan in
        let interp = Runtime.Executor.run ~backend:Runtime.Backend.Interp g plan ~inputs:m.inputs in
        let stats = Runtime.Backend.fresh_exec_stats () in
        let native =
          Runtime.Executor.run ~backend:Runtime.Backend.Native ~exec_stats:stats g plan
            ~inputs:m.inputs
        in
        Report.attempt rep;
        check_native_outputs rep ~name:m.name ~interp ~reference:m.reference native;
        Report.check rep (stats.Runtime.Backend.fallbacks = []) "%s: %d native fallback(s) on warm-up"
          m.name (List.length stats.Runtime.Backend.fallbacks);
        (m.name, interp))
      order
  in
  let native_ms = Hashtbl.create 4 and interp_ms = Hashtbl.create 4 in
  let kernel_us = Hashtbl.create 4 in
  (* each inference's time in probe units: wall time over its probes' mean *)
  let native_rel = Hashtbl.create 4 and interp_rel = Hashtbl.create 4 in
  let host_probes = ref [] in
  let fallbacks = ref 0 in
  let push tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  let run_one m backend =
    let g = m.result.Korch.Orchestrator.graph and plan = m.result.Korch.Orchestrator.plan in
    let want = List.assoc m.name expected in
    let span = Printf.sprintf "bench.%s.%s" (Runtime.Backend.to_string backend) m.name in
    let stats = Runtime.Backend.fresh_exec_stats () in
    Report.attempt rep;
    let out, wall_ms, rel =
      Bstats.host_timed host_probes (fun () ->
          Obs.Span.with_ ~name:span (fun () ->
              Runtime.Executor.run ~backend ~exec_stats:stats g plan ~inputs:m.inputs))
    in
    Report.check rep (outputs_bits_equal want out) "%s: %s outputs differ from the Interp backend"
      m.name (Runtime.Backend.to_string backend);
    match backend with
    | Runtime.Backend.Native ->
      push native_ms m.name wall_ms;
      push native_rel m.name rel;
      push kernel_us m.name (Bstats.sum (List.map snd stats.Runtime.Backend.kernel_times_us));
      let nf = List.length stats.Runtime.Backend.fallbacks in
      fallbacks := !fallbacks + nf;
      Report.check rep (nf = 0) "%s: %d native fallback(s): %s" m.name nf
        (String.concat "; " (List.map snd stats.Runtime.Backend.fallbacks))
    | Runtime.Backend.Interp ->
      push interp_ms m.name wall_ms;
      push interp_rel m.name rel
  in
  (* Rounds of one inference per model and backend, interleaved, so every
     model samples the same stretch of machine time. *)
  let rounds ~backends ~seconds =
    let t0 = Bstats.now_s () in
    let round () = List.iter (fun m -> List.iter (run_one m) backends) order in
    round ();
    while Bstats.now_s () -. t0 < seconds do
      round ()
    done;
    Bstats.now_s () -. t0
  in
  let both = [ Runtime.Backend.Native; Runtime.Backend.Interp ] in
  (* Untimed rounds first, from a compacted heap: the first seconds after
     set-up ran slower while the heap grew to its working size. Their
     checks still count; their samples are dropped. *)
  Gc.compact ();
  ignore (rounds ~backends:both ~seconds:(Float.min 1.0 (seconds /. 10.0)));
  List.iter Hashtbl.reset [ native_ms; interp_ms; kernel_us; native_rel; interp_rel ];
  host_probes := [];
  fallbacks := 0;
  let measure () = rounds ~backends:both ~seconds in
  let before = Obs.Metrics.snapshot () in
  let section_s, spans =
    if trace then
      let s, spans = Layers.traced measure in
      (s, Some spans)
    else (measure (), None)
  in
  let after = Obs.Metrics.snapshot () in
  let get tbl name = Hashtbl.find tbl name in
  (* the end-to-end timings: each inference in probe units, in reference ms *)
  let host_ms = Bstats.reference_ms in
  Report.row "%-10s %12s %12s %12s %12s %12s %8s %8s\n" "model" "native p50" "native tail"
    "interp p50" "native raw" "kernel us" "kernels" "runs";
  List.iter
    (fun m ->
      let nat = host_ms (get native_rel m.name) in
      Report.row "%-10s %9.3f ms %9.3f ms %9.3f ms %9.3f ms %12.1f %8d %8d\n" m.name
        (Bstats.median nat) (Bstats.tail_value nat)
        (Bstats.median (host_ms (get interp_rel m.name)))
        (Bstats.median (get native_ms m.name))
        (Bstats.median (get kernel_us m.name))
        (Runtime.Plan.kernel_count m.result.Korch.Orchestrator.plan)
        (List.length nat))
    ms;
  Report.row "kernel build (cold cache): %.1f ms for %d kernels (emit %.1f, cc+dlopen %.1f, verify %.1f)\n"
    build.total_ms build.kernels build.emit_ms build.cc_ms build.verify_ms;
  Report.row "measured %.2f s; host probe %.3f ms median, %.3f ms fastest 1%% (%d probes)\n"
    section_s (Bstats.median !host_probes) (Bstats.percentile 1.0 !host_probes)
    (List.length !host_probes);
  let per_model tbl f = List.map (fun m -> f (get tbl m.name)) ms in
  let native_host () = per_model native_rel host_ms in
  Report.set rep "latency_ms_p50" (Bstats.geomean (List.map Bstats.median (native_host ())));
  Report.set rep "latency_ms_tail" (Bstats.geomean (List.map Bstats.tail_value (native_host ())));
  Report.set rep "alt_latency_ms_p50"
    (Bstats.geomean (per_model interp_rel (fun r -> Bstats.median (host_ms r))));
  let all_native = List.concat (native_host ()) in
  Report.set rep "throughput_per_s"
    (float_of_int (List.length all_native) /. (Bstats.sum all_native /. 1e3));
  Report.set rep "peak_rss_mb" (Bstats.peak_rss_mb ());
  match spans with
  | None -> ()
  | Some _ ->
    let plans = List.map (fun m -> m.result) ms in
    Report.set rep "plan.latency_geomean_us"
      (Bstats.geomean
         (List.map (fun r -> r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us) plans));
    Report.set rep "plan.peak_mem_geomean_mb"
      (Bstats.geomean
         (List.map
            (fun r ->
              float_of_int r.Korch.Orchestrator.memory.Runtime.Memplan.peak_bytes /. 1048576.0)
            plans));
    Report.set rep "models.build_ms" build_ms;
    Report.set rep "fission.fold_bn_ms" fold_ms;
    List.iter (fun (k, v) -> Report.set rep k v) (Layers.counter_deltas ~passes:1 before after);
    (* codegen.compiles is the set-up build's work; the timed section
       itself must compile nothing *)
    Report.set rep "codegen.compiles" (float_of_int build.compiles);
    let cache_hits =
      Layers.delta before after "codegen.cache.mem_hits" + Layers.delta before after "codegen.cache.disk_hits"
    in
    let compiles = Layers.delta before after "codegen.compiles" in
    Report.set rep "codegen.cache.hit_ratio"
      (Layers.ratio (float_of_int cache_hits) (float_of_int (cache_hits + compiles)));
    Report.set rep "codegen.build_ms" build.total_ms;
    Report.set rep "codegen.emit.ms" build.emit_ms;
    Report.set rep "codegen.cc.ms" build.cc_ms;
    Report.set rep "codegen.verify.ms" build.verify_ms;
    Report.set rep "codegen.fallbacks" (float_of_int !fallbacks);
    Report.set rep "codegen.kernel_us" (Bstats.geomean (per_model kernel_us Bstats.median));
    let overhead =
      List.map
        (fun m ->
          let wall = get native_ms m.name and ker = get kernel_us m.name in
          Bstats.median (List.map2 (fun w k -> w -. (k /. 1e3)) wall ker))
        ms
    in
    Report.set rep "runtime.exec_overhead_ms" (Bstats.geomean overhead);
    Report.set rep "runtime.interp.ms" (Bstats.geomean (per_model interp_ms Bstats.median));
    (* harness time per inference, the probes included *)
    let wall = List.concat (per_model native_ms Fun.id @ per_model interp_ms Fun.id) in
    Report.set rep "unaccounted.ms"
      ((section_s -. (Bstats.sum wall /. 1e3)) *. 1e3 /. float_of_int (List.length wall));
    Layers.write_chrome_trace (Filename.concat work_dir "trace-execute-native.json");
    (* Tracing overhead: a short untraced native sample per model. *)
    let p50 () = Bstats.geomean (List.map Bstats.median (native_host ())) in
    let traced = p50 () in
    List.iter (fun m -> Hashtbl.replace native_rel m.name []) ms;
    host_probes := [];
    ignore (rounds ~backends:[ Runtime.Backend.Native ] ~seconds:(Float.min 1.0 (seconds /. 4.0)));
    let untraced = p50 () in
    Report.set rep "trace.overhead_pct" (100.0 *. (traced -. untraced) /. untraced);
    Report.bypass rep
      [ "fission.ms"; "fission.prims"; "core.partition.ms"; "transform.ms"; "core.identify.ms";
        "gpu.profile_cache.hit_ratio"; "lp.ilp.ms"; "lp.ilp.us_per_node"; "lp.ilp.columns";
        "lp.ilp.rows"; "lp.ilp.optimal_ratio"; "core.solve.ms"; "core.schedule.ms";
        "core.cuts_added"; "core.stitch.ms"; "verify.ms"; "analysis.hazard.ms";
        "runtime.memplan.ms"; "runtime.memplan.reuse_ratio"; "core.plan_table.ms";
        "core.plan_table.probes"; "core.plan_table.ranges"; "serve.plan_cache.key_ms";
        "serve.plan_cache.lookup_ms"; "serve.plan_cache.store_ms"; "serve.protocol.encode_ms";
        "serve.handle.hit_ms"; "serve.handle.miss_ms"; "serve.plan_cache.hit_ratio";
        "serve.queue.peak"; "serve.overloaded" ]
