(* korch_bench — run one benchmark workload and print its result line.

     korch_bench --workload compile-zoo|execute-native|serve-mixed
                 --seed N --seconds S --trace 0|1
                 [--work-dir DIR] [--serve-exe PATH]

   perfbench/run.py builds this program and forwards its arguments. With
   --trace 0 the result carries the end-to-end metrics, with --trace 1 the
   per-layer metrics (and a Chrome trace is written under the work
   directory). Exit code 0 when every correctness check held, 1 when one failed, 2 on
   a usage or harness error (no result line). *)

let usage () =
  prerr_endline
    "usage: korch_bench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR] \
     [--serve-exe PATH]";
  exit 2

let () =
  let workload = ref None
  and seed = ref 1
  and seconds = ref 10.0
  and trace = ref false
  and work_dir = ref ".perfbench_run"
  and serve_exe = ref "_build/default/bin/korch_serve.exe" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := (v = "1"); parse rest
    | "--work-dir" :: v :: rest -> work_dir := v; parse rest
    | "--serve-exe" :: v :: rest -> serve_exe := v; parse rest
    | arg :: _ -> prerr_endline ("korch_bench: unexpected argument " ^ arg); usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let workload =
    match !workload with
    | Some w when List.mem w Perfbench.Defs.workloads -> w
    | Some w -> prerr_endline ("korch_bench: unknown workload " ^ w); exit 2
    | None -> usage ()
  in
  let rep = Perfbench.Report.create () in
  let code =
    try
      Perfbench.Bstats.mkdir_p !work_dir;
      let run_dir = Filename.concat !work_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
      Perfbench.Bstats.rm_rf run_dir;
      Perfbench.Bstats.mkdir_p run_dir;
      Fun.protect
        ~finally:(fun () -> Perfbench.Bstats.rm_rf run_dir)
        (fun () ->
          let seed = !seed and seconds = !seconds and trace = !trace in
          (match workload with
          | "compile-zoo" ->
            Perfbench.Wl_compile.run ~rep ~seed ~seconds ~trace ~work_dir:!work_dir
          | "execute-native" ->
            Perfbench.Wl_exec.run ~rep ~seed ~seconds ~trace ~work_dir:!work_dir ~run_dir
          | _ ->
            Perfbench.Wl_serve.run ~rep ~seed ~seconds ~trace ~work_dir:!work_dir ~run_dir
              ~serve_exe:!serve_exe);
          Perfbench.Report.emit rep ~trace)
    with e ->
      Printf.eprintf "korch_bench: %s: %s\n%!" workload (Printexc.to_string e);
      2
  in
  exit code
