(* serve-mixed: the korch_serve daemon under a closed loop of clients.

   Set-up starts `korch_serve daemon -j 2` on a fresh plan-cache
   directory and warms it with candy, decode and segformer at paper
   scale. The timed section runs two client domains, each in a closed
   loop (a client sends its next request when the last one is answered).
   The cold client sends cache misses, in cycles of one on candy and one
   on decode in a seeded order, each at a batch not seen before in the
   run. The hot client sends cache hits on candy, decode and segformer,
   evenly, in a seeded order, for as long as the cold client runs.
   Splitting the traffic this way keeps the contention every hot hit sees
   the same from run to run: there is always exactly one orchestration
   beside it. *)

let models = [ "candy"; "decode"; "segformer" ]
let miss_models = [ "candy"; "decode" ]
let hot_models = models
let clients = 2

(* Miss batches come from [min_miss_batch]..[max_miss_batch], where
   orchestrating candy or decode costs about the same at every batch
   (0.5-0.9 s; batches 2-5 and 50-64 stray further); the in-process probe
   of the traced run uses [max_miss_batch + 1], which no client asks for. *)
let min_miss_batch = 8
let max_miss_batch = 40

type kind = Hit | Miss

type sample = { kind : kind; model : string; ms : float }

let request_json ?(batch = 1) ?(verb = "optimize") model =
  Serve.Protocol.request_to_json
    { Serve.Protocol.default_request with Serve.Protocol.verb; model = Some model; batch }

let str_field name j =
  match Onnx.Json.member name j with Some (Onnx.Json.Str s) -> s | _ -> "?"

let plan_digest j =
  match Onnx.Json.member "plan" j with
  | Some p -> Digest.to_hex (Digest.string (Onnx.Json.to_string p))
  | None -> ""

(* ------------------------------ daemon ------------------------------ *)

type daemon = { pid : int; socket : string; cache_dir : string }

let start_daemon ~serve_exe ~run_dir =
  let socket = Filename.concat run_dir "serve.sock" in
  let cache_dir = Filename.concat run_dir "plans" in
  let log = Unix.openfile (Filename.concat run_dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process serve_exe
      [| serve_exe; "daemon"; "--socket"; socket; "--cache-dir"; cache_dir; "-j"; "2" |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  let d = { pid; socket; cache_dir } in
  (d, fun () -> Serve.Client.wait_ready ~timeout_s:60.0 ~socket ())

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Bstats.now_s () < deadline ->
    Unix.sleepf 0.05;
    wait_exit pid deadline
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Drain the daemon and reap it; kill it if it does not exit in time. *)
let stop_daemon d =
  (try ignore (Serve.Client.request_once ~socket:d.socket (Serve.Protocol.request_to_json
                 { Serve.Protocol.default_request with Serve.Protocol.verb = "drain" }))
   with _ -> ());
  if not (wait_exit d.pid (Bstats.now_s () +. 30.0)) then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_exit d.pid (Bstats.now_s () +. 10.0))
  end

(* The daemon's process-wide metrics, via the stats verb. *)
let daemon_stats d =
  Serve.Client.request_once ~socket:d.socket
    (Serve.Protocol.request_to_json
       { Serve.Protocol.default_request with Serve.Protocol.verb = "stats" })

let stats_counter stats name =
  match Option.bind (Onnx.Json.member "metrics" stats) (Onnx.Json.member "counters") with
  | Some (Onnx.Json.Obj kvs) -> (
    match List.assoc_opt name kvs with Some (Onnx.Json.Num f) -> f | _ -> 0.0)
  | _ -> 0.0

let queue_peak stats =
  match Onnx.Json.member "queue" stats with
  | Some q -> ( match Onnx.Json.member "peak" q with Some (Onnx.Json.Num f) -> f | _ -> 0.0)
  | None -> 0.0

(* ------------------------------ clients ------------------------------ *)

type request = Hit_req of string | Miss_req of string * int

(* The cold client's cycles: a candy miss and a decode miss in a seeded
   order, each at the next batch of its model's seeded permutation of
   [min_miss_batch]..[max_miss_batch]. *)
let cold_stream ~seed =
  let rng = Random.State.make [| seed; 0x636f6c64 |] in
  let batches = List.init (max_miss_batch - min_miss_batch + 1) (fun i -> i + min_miss_batch) in
  let queues = List.map (fun m -> (m, ref (Bstats.shuffle rng batches))) miss_models in
  let next_batch m =
    let q = List.assoc m queues in
    match !q with
    | b :: rest ->
      q := rest;
      b
    | [] -> failwith "serve-mixed: ran out of unseen miss batches"
  in
  fun () ->
    Bstats.shuffle rng (List.map (fun m -> Miss_req (m, next_batch m)) miss_models)

(* The hot client's cycles: one hit on each hot model, in a seeded order. *)
let hot_stream ~seed =
  let rng = Random.State.make [| seed; 0x686f74 |] in
  fun () -> Bstats.shuffle rng (List.map (fun m -> Hit_req m) hot_models)

type client_result = {
  samples : sample list;
  failures : string list;
  attempted : int;
  elapsed_s : float;
}

(* Run whole cycles of [next_cycle ()] while [continue ()] holds. *)
let client_loop ~socket ~warm ~next_cycle ~continue : client_result =
  let samples = ref [] and failures = ref [] and attempted = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let one req =
    let kind, model, batch =
      match req with Miss_req (m, b) -> (Miss, m, b) | Hit_req m -> (Hit, m, 1)
    in
    incr attempted;
    let span = match kind with Hit -> "bench.request.hit" | Miss -> "bench.request.miss" in
    match
      Bstats.timed (fun () ->
          Obs.Span.with_ ~name:span (fun () ->
              Serve.Client.request_once ~socket (request_json ~batch model)))
    with
    | exception e -> fail "%s b=%d: request failed: %s" model batch (Printexc.to_string e)
    | resp, dt ->
      let status = str_field "status" resp and cache = str_field "cache" resp in
      let digest = plan_digest resp in
      if status <> "ok" then fail "%s b=%d: status %s" model batch status
      else begin
        (match kind with
        | Hit ->
          if cache <> "hit" then fail "%s: expected a cache hit, got %s" model cache
          else if Some digest <> List.assoc_opt model warm then
            fail "%s: cache hit returned a different plan than its miss" model
        | Miss -> if cache <> "miss" then fail "%s b=%d: expected a miss, got %s" model batch cache);
        samples := { kind; model; ms = dt *. 1e3 } :: !samples
      end
  in
  let t0 = Bstats.now_s () in
  while continue () do
    List.iter one (next_cycle ())
  done;
  {
    samples = !samples;
    failures = List.rev !failures;
    attempted = !attempted;
    elapsed_s = Bstats.now_s () -. t0;
  }

(* ------------------------------ workload ------------------------------ *)

let gpu_name = Gpu.Spec.v100.Gpu.Spec.name
let precision_name = Gpu.Precision.to_string Gpu.Precision.FP32

let run ~(rep : Report.t) ~seed ~seconds ~trace ~work_dir ~run_dir ~serve_exe =
  let (d, ready), spawn_s = Bstats.timed (fun () -> start_daemon ~serve_exe ~run_dir) in
  (* A benchmark stopped by a signal takes its daemon with it. *)
  let on_signal = Sys.Signal_handle (fun _ -> (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()); exit 2) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  (* Set-up: daemon start, then the three cold misses that warm the cache,
     two at a time (one per daemon worker), in a fixed pairing. *)
  let warm, warm_s =
    Bstats.timed @@ fun () ->
    ready ();
    let halves = [ [ "segformer" ]; [ "candy"; "decode" ] ] in
    let doms =
      List.map
        (fun ms ->
          Domain.spawn (fun () ->
              List.map
                (fun m -> (m, Serve.Client.request_once ~socket:d.socket (request_json m)))
                ms))
        halves
    in
    List.concat_map Domain.join doms
  in
  Report.set rep "setup_s" (spawn_s +. warm_s);
  List.iter
    (fun (m, resp) ->
      Report.attempt rep;
      Report.check rep
        (str_field "status" resp = "ok" && str_field "cache" resp = "miss")
        "warm-up %s: status %s, cache %s" m (str_field "status" resp) (str_field "cache" resp))
    warm;
  (* Reset the daemon's high-water mark, so that the peak read after the
     timed section covers the mixed traffic only. *)
  let daemon_pid = string_of_int d.pid in
  let rss_warm = Bstats.peak_rss_mb ~pid:daemon_pid () in
  Bstats.reset_peak_rss ~pid:daemon_pid;
  let warm_digests = List.map (fun (m, resp) -> (m, plan_digest resp)) warm in
  let warm_latency =
    List.map
      (fun (m, resp) ->
        match Onnx.Json.member "plan_latency_us" resp with
        | Some (Onnx.Json.Num f) -> (m, f)
        | _ -> (m, Float.nan))
      warm
  in
  let stats_before = if trace then Some (daemon_stats d) else None in
  let measure () =
    let t0 = Bstats.now_s () in
    let deadline = t0 +. seconds in
    let cold_running = Atomic.make true in
    let cold_cycle = cold_stream ~seed and hot_cycle = hot_stream ~seed in
    (* the cold client finishes whole cycles; the hot one runs beside it *)
    let cold =
      Domain.spawn (fun () ->
          let r =
            client_loop ~socket:d.socket ~warm:warm_digests ~next_cycle:cold_cycle
              ~continue:(fun () -> Bstats.now_s () < deadline)
          in
          Atomic.set cold_running false;
          r)
    in
    let hot =
      Domain.spawn (fun () ->
          client_loop ~socket:d.socket ~warm:warm_digests ~next_cycle:hot_cycle
            ~continue:(fun () -> Atomic.get cold_running))
    in
    let results = [ Domain.join cold; Domain.join hot ] in
    (results, Bstats.now_s () -. t0)
  in
  let (results, section_s), spans =
    if trace then
      let v, spans = Layers.traced measure in
      (v, Some spans)
    else (measure (), None)
  in
  let stats_after = if trace then Some (daemon_stats d) else None in
  let rss_loaded = Bstats.peak_rss_mb ~pid:daemon_pid () in
  List.iter
    (fun r ->
      rep.Report.attempted <- rep.Report.attempted + r.attempted;
      List.iter (Report.fail rep) r.failures)
    results;
  let samples = List.concat_map (fun r -> r.samples) results in
  let ms_of kind model =
    List.filter_map
      (fun s -> if s.kind = kind && s.model = model then Some s.ms else None)
      samples
  in
  let hit_models = List.filter (fun m -> ms_of Hit m <> []) models in
  let miss_seen = List.filter (fun m -> ms_of Miss m <> []) miss_models in
  Report.check rep (List.length hit_models = List.length models) "not every model was hit";
  Report.check rep (miss_seen <> []) "no cache miss completed in %.1f s" seconds;
  Report.row "%-13s %8s %12s %12s %8s %12s %14s\n" "model" "hits" "hit p50" "hit tail" "misses"
    "miss p50" "plan us";
  List.iter
    (fun m ->
      let h = ms_of Hit m and ms = ms_of Miss m in
      let tv, tp, _ = Bstats.tail h in
      Report.row "%-13s %8d %9.3f ms %9.3f ms %8d %9.1f ms %14.2f  (tail = p%.1f)\n" m
        (List.length h) (Bstats.median h) tv (List.length ms)
        (if ms = [] then Float.nan else Bstats.median ms)
        (List.assoc m warm_latency) tp)
    models;
  Report.row "measured %.2f s, %d requests, %d clients, closed loop\n" section_s
    (List.length samples) clients;
  let geo f ms = Bstats.geomean (List.map f ms) in
  Report.set rep "latency_ms_p50" (geo (fun m -> Bstats.median (ms_of Hit m)) hit_models);
  Report.set rep "latency_ms_tail" (geo (fun m -> Bstats.tail_value (ms_of Hit m)) hit_models);
  Report.set rep "alt_latency_ms_p50" (geo (fun m -> Bstats.median (ms_of Miss m)) miss_seen);
  (* each client's own closed-loop rate, summed *)
  Report.set rep "throughput_per_s"
    (Bstats.sum (List.map (fun r -> float_of_int (List.length r.samples) /. r.elapsed_s) results));
  Report.row "daemon peak RSS: %.1f MiB over warm-up, %.1f MiB over the timed section\n" rss_warm
    rss_loaded;
  Report.set rep "peak_rss_mb" rss_loaded;
  match (spans, stats_before, stats_after) with
  | Some _, Some before, Some after ->
    let misses = float_of_int (List.length (List.filter (fun s -> s.kind = Miss) samples)) in
    let per_miss name =
      (stats_counter after name -. stats_counter before name) /. Float.max 1.0 misses
    in
    (* the daemon's work counters, per cache miss *)
    List.iter (fun (metric, counter) -> Report.set rep metric (per_miss counter)) Layers.work_counters;
    let cache_hits = stats_counter after "serve.plan_cache.hits" -. stats_counter before "serve.plan_cache.hits" in
    let cache_misses =
      stats_counter after "serve.plan_cache.misses" -. stats_counter before "serve.plan_cache.misses"
    in
    Report.set rep "serve.plan_cache.hit_ratio" (Layers.ratio cache_hits (cache_hits +. cache_misses));
    let pc_hits = per_miss "profile_cache.hits" and pc_misses = per_miss "profile_cache.misses" in
    Report.set rep "gpu.profile_cache.hit_ratio" (Layers.ratio pc_hits (pc_hits +. pc_misses));
    Report.set rep "serve.queue.peak" (queue_peak after);
    Report.set rep "serve.overloaded"
      (stats_counter after "serve.overloaded" -. stats_counter before "serve.overloaded");
    Layers.write_chrome_trace (Filename.concat work_dir "trace-serve-mixed.json");
    (* In-process probes, timed call by call: the serving layers the
       daemon runs for a hit, and two misses whose spans attribute the
       orchestration time. *)
    let per_call f = Bstats.median (List.init 3 (fun _ -> snd (Bstats.timed f) *. 1e3)) in
    let built = List.map (fun m -> (m, (Wl_compile.entry m).Models.Registry.build ())) models in
    Report.set rep "models.build_ms"
      (geo (fun m -> per_call (fun () -> ignore ((Wl_compile.entry m).Models.Registry.build ()))) models);
    Report.set rep "fission.fold_bn_ms"
      (geo (fun m -> per_call (fun () -> ignore (Wl_compile.fold (List.assoc m built)))) models);
    let folded = List.map (fun (m, g) -> (m, Wl_compile.fold g)) built in
    let key m =
      Serve.Plan_cache.key ~graph:(List.assoc m folded) ~gpu:gpu_name ~precision:precision_name ~batch:1
    in
    Report.set rep "serve.plan_cache.key_ms" (geo (fun m -> per_call (fun () -> ignore (key m))) models);
    let cache = Serve.Plan_cache.create ~dir:d.cache_dir () in
    let entries =
      List.filter_map
        (fun m ->
          let e = Serve.Plan_cache.lookup cache (key m) in
          Report.check rep (e <> None) "%s: warm plan missing from the cache directory" m;
          Option.map (fun e -> (m, e)) e)
        models
    in
    Report.set rep "serve.plan_cache.lookup_ms"
      (geo (fun m -> per_call (fun () -> ignore (Serve.Plan_cache.lookup cache (key m)))) models);
    let store_cache = Serve.Plan_cache.create ~dir:(Filename.concat run_dir "probe-store") () in
    Report.set rep "serve.plan_cache.store_ms"
      (geo
         (fun (m, (e : Serve.Plan_cache.entry)) ->
           per_call (fun () ->
               Serve.Plan_cache.store store_cache (key m) ~status:Serve.Plan_cache.Final
                 ~graph:e.Serve.Plan_cache.graph ~plan:e.Serve.Plan_cache.plan ~report:"{}"))
         entries);
    Report.set rep "plan.latency_geomean_us" (geo (fun m -> List.assoc m warm_latency) models);
    Report.set rep "plan.peak_mem_geomean_mb"
      (geo
         (fun (_, (e : Serve.Plan_cache.entry)) ->
           let mp = Runtime.Memplan.analyze ~bytes_per_element:4 e.Serve.Plan_cache.graph e.Serve.Plan_cache.plan in
           float_of_int (Runtime.Memplan.stats mp).Runtime.Memplan.peak_bytes /. 1048576.0)
         entries);
    let server =
      Serve.Server.create
        {
          Serve.Server.default_config with
          Serve.Server.cache_dir = d.cache_dir;
          socket_path = Filename.concat run_dir "unused.sock";
          jobs = 1;
        }
    in
    let handle m ~batch = Serve.Server.handle server (Onnx.Json.of_string (Obs.Jsonw.to_string (request_json ~batch m))) in
    let responses = List.map (fun m -> (m, handle m ~batch:1)) models in
    Report.set rep "serve.handle.hit_ms" (geo (fun m -> per_call (fun () -> ignore (handle m ~batch:1))) models);
    Report.set rep "serve.protocol.encode_ms"
      (geo (fun m -> per_call (fun () -> ignore (Serve.Protocol.encode (List.assoc m responses)))) models);
    let handle_hit_ms = Report.get rep "serve.handle.hit_ms" |> Option.value ~default:0.0 in
    (match Report.get rep "latency_ms_p50" with
    | Some client -> Report.set rep "unaccounted.ms" (client -. handle_hit_ms)
    | None -> ());
    (* two misses in process, traced: the orchestration layers of a miss *)
    let (miss_ms, probe_spans) =
      Layers.traced (fun () ->
          List.map
            (fun m -> snd (Bstats.timed (fun () -> ignore (handle m ~batch:(max_miss_batch + 1)))) *. 1e3)
            miss_models)
    in
    Report.set rep "serve.handle.miss_ms" (Bstats.geomean miss_ms);
    let n_miss = float_of_int (List.length miss_models) in
    List.iter
      (fun (metric, span) -> Report.set rep metric (Layers.self_ms probe_spans span /. n_miss))
      Layers.orchestration_spans;
    Report.set rep "lp.ilp.columns" (Layers.arg_mean probe_spans "ilp.solve" "vars");
    Report.set rep "lp.ilp.rows" (Layers.arg_mean probe_spans "ilp.solve" "rows");
    let nodes = per_miss "ilp.nodes" in
    Report.set rep "lp.ilp.us_per_node"
      (Layers.ratio (Layers.total_ms probe_spans "ilp.solve" *. 1e3 /. n_miss) nodes);
    let optimal = per_miss "orchestrator.tier.optimal" in
    Report.set rep "lp.ilp.optimal_ratio"
      (Layers.ratio optimal (optimal +. per_miss "orchestrator.tier.incumbent"
                             +. per_miss "orchestrator.tier.greedy" +. per_miss "orchestrator.tier.unfused"));
    (* Tracing overhead: single-client hot hits, traced against untraced. *)
    let hit_sample () =
      List.init 30 (fun i ->
          let m = List.nth hot_models (i mod List.length hot_models) in
          snd (Bstats.timed (fun () ->
                   Obs.Span.with_ ~name:"bench.request.hit" (fun () ->
                       ignore (Serve.Client.request_once ~socket:d.socket (request_json m)))))
          *. 1e3)
    in
    let traced, _ = Layers.traced hit_sample in
    let untraced = hit_sample () in
    Report.set rep "trace.overhead_pct"
      (100.0 *. (Bstats.median traced -. Bstats.median untraced) /. Bstats.median untraced);
    Report.bypass rep
      [ "fission.prims"; "core.schedule.ms"; "core.cuts_added"; "analysis.hazard.ms";
        "runtime.memplan.ms"; "runtime.memplan.reuse_ratio"; "core.plan_table.ms";
        "core.plan_table.probes"; "core.plan_table.ranges"; "codegen.build_ms"; "codegen.emit.ms";
        "codegen.cc.ms"; "codegen.verify.ms"; "codegen.cache.hit_ratio"; "codegen.fallbacks";
        "codegen.kernel_us"; "runtime.exec_overhead_ms"; "runtime.interp.ms" ]
  | _ -> ()
