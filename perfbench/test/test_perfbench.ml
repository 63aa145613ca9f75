(* Self-tests of the benchmark harness: the metric catalogue matches
   BENCHMARK.json, the correctness checks catch wrong outputs and injected
   faults, the result line refuses undeclared or missing metrics, and the
   work counters the traced run reports repeat exactly. *)

open Perfbench

let benchmark_json = "../../BENCHMARK.json"

let json_list name j =
  match Onnx.Json.member name j with
  | Some (Onnx.Json.List l) -> l
  | _ -> Alcotest.failf "BENCHMARK.json: %s is not a list" name

let str name j =
  match Onnx.Json.member name j with
  | Some (Onnx.Json.Str s) -> s
  | _ -> Alcotest.failf "BENCHMARK.json: missing string %s" name

let declared (ms : Defs.metric list) =
  List.map (fun (m : Defs.metric) -> (m.Defs.name, m.Defs.unit_, Defs.better_to_string m.Defs.better)) ms

let test_catalogue_matches_json () =
  let ic = open_in benchmark_json in
  let doc = Onnx.Json.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let listed name = List.map (fun j -> (str "name" j, str "unit" j, str "better" j)) (json_list name doc) in
  Alcotest.(check (list (triple string string string)))
    "end_to_end" (declared Defs.end_to_end) (listed "end_to_end");
  Alcotest.(check (list (triple string string string)))
    "per_layer" (declared Defs.per_layer) (listed "per_layer");
  Alcotest.(check (list string))
    "workloads" Defs.workloads
    (List.map (str "name") (json_list "workloads" doc))

let all_end_to_end rep = List.iter (fun (m : Defs.metric) -> Report.set rep m.Defs.name 1.0) Defs.end_to_end

let test_emit_exit_code () =
  let ok = Report.create () in
  Report.attempt ok;
  all_end_to_end ok;
  Alcotest.(check int) "correct run exits 0" 0 (Report.emit ok ~trace:false);
  let bad = Report.create () in
  Report.attempt bad;
  Report.fail bad "deliberate";
  all_end_to_end bad;
  Alcotest.(check int) "failed check exits 1" 1 (Report.emit bad ~trace:false)

let test_emit_rejects_unknown_and_missing () =
  let rep = Report.create () in
  all_end_to_end rep;
  Report.set rep "no.such.metric" 1.0;
  Alcotest.check_raises "undeclared" (Report.Undeclared "metric no.such.metric is not declared")
    (fun () -> ignore (Report.emit rep ~trace:false));
  let rep = Report.create () in
  Report.set rep "setup_s" 1.0;
  Alcotest.(check bool) "missing metric raises" true
    (match Report.emit rep ~trace:false with
    | _ -> false
    | exception Report.Undeclared _ -> true)

(* A small orchestrated model with inputs and its two reference outputs. *)
let small_decode () =
  let g = Wl_compile.fold ((Wl_compile.entry "decode").Models.Registry.build_small ()) in
  let r = Korch.Orchestrator.run Wl_compile.cfg g in
  let inputs = Wl_exec.inputs_of ~seed:5 g in
  let interp =
    Runtime.Executor.run ~backend:Runtime.Backend.Interp r.Korch.Orchestrator.graph
      r.Korch.Orchestrator.plan ~inputs
  in
  (interp, Runtime.Interp.run g ~inputs)

let test_wrong_output_fails () =
  let interp, reference = small_decode () in
  let rep = Report.create () in
  Report.attempt rep;
  Wl_exec.check_native_outputs rep ~name:"decode" ~interp ~reference interp;
  Alcotest.(check int) "the right output passes" 0 rep.Report.failed;
  let wrong =
    List.mapi
      (fun i (t : Tensor.Nd.t) ->
        if i > 0 then t
        else begin
          let data = Array.copy t.Tensor.Nd.data in
          data.(0) <- data.(0) +. 1.0;
          { t with Tensor.Nd.data }
        end)
      interp
  in
  Wl_exec.check_native_outputs rep ~name:"decode" ~interp ~reference wrong;
  Alcotest.(check int) "a wrong output fails both checks" 2 rep.Report.failed;
  Alcotest.(check bool) "error_rate above 0" true (Report.error_rate rep > 0.0)

let test_fault_raises_error_rate () =
  let rep = Report.create () in
  let run_dir = Filename.concat (Sys.getcwd ()) "perfbench-fault-test" in
  Bstats.rm_rf run_dir;
  Bstats.mkdir_p run_dir;
  Faults.with_policy [ (Faults.Codegen_compile, Faults.Always) ] (fun () ->
      Wl_exec.run ~rep ~seed:1 ~seconds:0.3 ~trace:false ~work_dir:run_dir ~run_dir);
  Bstats.rm_rf run_dir;
  Alcotest.(check bool) "codegen_compile:always raises error_rate above 0" true
    (Report.error_rate rep > 0.0)

let test_counters_repeat () =
  let pass () =
    let before = Obs.Metrics.snapshot () in
    List.iter
      (fun n ->
        let g = Wl_compile.fold ((Wl_compile.entry n).Models.Registry.build_small ()) in
        ignore (Korch.Orchestrator.run Wl_compile.cfg g))
      [ "candy"; "decode" ];
    Layers.counter_deltas ~passes:1 before (Obs.Metrics.snapshot ())
  in
  let first = pass () in
  Alcotest.(check (list (pair string (float 0.0)))) "second pass counts the same" first (pass ());
  Alcotest.(check bool) "the BLP did work" true (List.assoc "lp.ilp.nodes" first > 0.0)

let test_self_times () =
  let ev name ts dur = { Obs.Trace.name; cat = ""; ts_us = ts; dur_us = dur; tid = 0; args = [] } in
  let t = Layers.of_events [ ev "outer" 0.0 100.0; ev "inner" 10.0 30.0; ev "inner" 50.0 20.0; ev "leaf" 55.0 5.0 ] in
  Alcotest.(check (float 1e-9)) "outer self" 0.050 (Layers.self_ms t "outer");
  Alcotest.(check (float 1e-9)) "inner self" 0.045 (Layers.self_ms t "inner");
  Alcotest.(check (float 1e-9)) "inner total" 0.050 (Layers.total_ms t "inner")

let test_tail () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let v, p, n = Bstats.tail xs in
  Alcotest.(check (float 0.0)) "eleventh largest" 90.0 v;
  Alcotest.(check (float 1e-9)) "percentile" 90.0 p;
  Alcotest.(check int) "count" 100 n;
  Alcotest.(check (float 0.0)) "few samples: max" 3.0 (Bstats.tail_value [ 1.0; 3.0; 2.0 ])

let test_host_correction () =
  let probes = List.init 200 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "1st percentile" 2.0 (Bstats.percentile 1.0 probes);
  Alcotest.(check (list (float 1e-12))) "probe units in reference ms"
    [ 10.0 *. Bstats.probe_reference_ms; 20.0 *. Bstats.probe_reference_ms ]
    (Bstats.reference_ms [ 10.0; 20.0 ]);
  let host_probes = ref [] in
  let v, ms, rel = Bstats.host_timed host_probes (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 v;
  match !host_probes with
  | [ p1; p0 ] ->
    Alcotest.(check (float 1e-9)) "probe units: wall over the mean probe" (ms /. ((p0 +. p1) /. 2.0)) rel
  | ps -> Alcotest.failf "expected one probe on each side, got %d" (List.length ps)

let () =
  Alcotest.run "perfbench"
    [
      ( "catalogue",
        [
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick test_catalogue_matches_json;
          Alcotest.test_case "exit code follows correctness" `Quick test_emit_exit_code;
          Alcotest.test_case "undeclared or missing metrics rejected" `Quick
            test_emit_rejects_unknown_and_missing;
        ] );
      ( "checks",
        [
          Alcotest.test_case "wrong output fails the check" `Quick test_wrong_output_fails;
          Alcotest.test_case "injected codegen fault raises error_rate" `Slow
            test_fault_raises_error_rate;
        ] );
      ( "layers",
        [
          Alcotest.test_case "work counters repeat exactly" `Quick test_counters_repeat;
          Alcotest.test_case "span self times" `Quick test_self_times;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "host-speed correction" `Quick test_host_correction;
        ] );
    ]
