(* Per-layer attribution for the traced run: self times from Obs.Trace
   spans (the library's own spans plus the benchmark's spans around each
   layer call) and work counters from Obs.Metrics snapshot deltas. *)

type totals = { mutable total_us : float; mutable self_us : float }

type t = { by_name : (string, totals) Hashtbl.t; events : Obs.Trace.event list }

(* Rebuild each track's span tree from interval containment and charge
   every span its duration minus its children's: the self time. *)
let of_events (events : Obs.Trace.event list) : t =
  let by_name = Hashtbl.create 32 in
  let totals name =
    match Hashtbl.find_opt by_name name with
    | Some x -> x
    | None ->
      let x = { total_us = 0.0; self_us = 0.0 } in
      Hashtbl.replace by_name name x;
      x
  in
  let tids = List.sort_uniq compare (List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.tid) events) in
  List.iter
    (fun tid ->
      let evs =
        List.filter (fun (e : Obs.Trace.event) -> e.Obs.Trace.tid = tid) events
        |> List.stable_sort (fun (a : Obs.Trace.event) (b : Obs.Trace.event) ->
               match compare a.Obs.Trace.ts_us b.Obs.Trace.ts_us with
               | 0 -> compare b.Obs.Trace.dur_us a.Obs.Trace.dur_us
               | c -> c)
      in
      (* stack of (end_us, totals) for the open ancestors *)
      let stack = ref [] in
      List.iter
        (fun (e : Obs.Trace.event) ->
          let rec pop () =
            match !stack with
            | (end_us, _) :: rest when end_us <= e.Obs.Trace.ts_us ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (_, parent) :: _ -> parent.self_us <- parent.self_us -. e.Obs.Trace.dur_us
          | [] -> ());
          let x = totals e.Obs.Trace.name in
          x.total_us <- x.total_us +. e.Obs.Trace.dur_us;
          x.self_us <- x.self_us +. e.Obs.Trace.dur_us;
          stack := (e.Obs.Trace.ts_us +. e.Obs.Trace.dur_us, x) :: !stack)
        evs)
    tids;
  { by_name; events }

let self_ms t name =
  match Hashtbl.find_opt t.by_name name with Some x -> x.self_us /. 1e3 | None -> 0.0

let total_ms t name =
  match Hashtbl.find_opt t.by_name name with Some x -> x.total_us /. 1e3 | None -> 0.0

(* Mean of an integer span argument over every span with [name]. *)
let arg_mean t name key =
  let vals =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        if e.Obs.Trace.name <> name then None
        else
          match List.assoc_opt key e.Obs.Trace.args with
          | Some (Obs.Jsonw.Int n) -> Some (float_of_int n)
          | Some (Obs.Jsonw.Float f) -> Some f
          | _ -> None)
      t.events
  in
  match vals with [] -> 0.0 | _ -> Bstats.sum vals /. float_of_int (List.length vals)

(* [traced f] — run [f] with span collection on; its result and the
   collected spans. Collection stops on exception too. *)
let traced f =
  Obs.Trace.start ();
  let v = Fun.protect ~finally:Obs.Trace.stop f in
  (v, of_events (Obs.Trace.events ()))

(* Write the spans collected by the last [traced] call as a Chrome trace. *)
let write_chrome_trace path =
  let oc = open_out path in
  output_string oc (Obs.Trace.export ());
  close_out oc

(* ----------------------------- counters ----------------------------- *)

let counter (s : Obs.Metrics.snapshot) name =
  match List.assoc_opt name s.Obs.Metrics.counters with Some v -> v | None -> 0

(* [delta before after name] — how much counter [name] grew. *)
let delta before after name = counter after name - counter before name

(* The library's work counters the benchmark reports, by metric name. *)
let work_counters =
  [
    ("core.partition.segments", "partition.segments");
    ("core.identify.states", "identifier.states");
    ("core.identify.candidates", "identifier.candidates_accepted");
    ("core.candidates_pruned", "orchestrator.candidates_pruned");
    ("gpu.profile_cache.hits", "profile_cache.hits");
    ("gpu.profile_cache.misses", "profile_cache.misses");
    ("lp.ilp.solves", "ilp.solves");
    ("lp.ilp.nodes", "ilp.nodes");
    ("codegen.compiles", "codegen.compiles");
  ]

(* The library's orchestration spans the benchmark reports as self times,
   by metric name. *)
let orchestration_spans =
  [
    ("fission.ms", "fission");
    ("core.partition.ms", "partition.split");
    ("transform.ms", "transform");
    ("core.identify.ms", "identify");
    ("lp.ilp.ms", "ilp.solve");
    ("core.solve.ms", "solve");
    ("core.stitch.ms", "stitch");
    ("verify.ms", "verify");
  ]

(* Counter deltas between two snapshots, per pass, by metric name. *)
let counter_deltas ~passes before after : (string * float) list =
  List.map
    (fun (metric, counter_name) ->
      (metric, float_of_int (delta before after counter_name) /. float_of_int (max 1 passes)))
    work_counters

let ratio num den = if den <= 0.0 then 0.0 else num /. den
