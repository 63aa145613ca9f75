(* Operation accounting, correctness failures and the final result line.

   Every operation a workload performs counts into [attempted]; every
   correctness check that does not hold counts one failure, so
   error_rate = failed / attempted. The last line of standard output is
   one JSON object: correct, attempted, failed, metrics. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (** newest first, at most [max_reasons] *)
  values : (string, float) Hashtbl.t;
}

let max_reasons = 20

let create () = { attempted = 0; failed = 0; reasons = []; values = Hashtbl.create 64 }

let attempt t = t.attempted <- t.attempted + 1

let fail t reason =
  t.failed <- t.failed + 1;
  if List.length t.reasons < max_reasons then t.reasons <- reason :: t.reasons;
  Printf.eprintf "perfbench: FAILED: %s\n%!" reason

(* [check t ok fmt] — count a failure with the formatted reason unless [ok]. *)
let check t ok fmt = Printf.ksprintf (fun reason -> if not ok then fail t reason) fmt

let error_rate t =
  if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted

let set t name v = Hashtbl.replace t.values name v

let get t name = Hashtbl.find_opt t.values name

(* Layers a workload does not reach read 0 in its traced run. *)
let bypass t names = List.iter (fun n -> set t n 0.0) names

(* Human-readable lines go to stdout before the result line. *)
let row fmt = Printf.ksprintf (fun s -> print_string s; flush stdout) fmt

exception Undeclared of string

(* Print the metric table and the result line; the exit code is 0 when
   every correctness check held. Only the mode's metrics are printed (the
   untraced set without --trace, the per-layer set with it). Raises
   [Undeclared] when the workload set an undeclared metric or left one of
   the mode's unset — a bench bug, reported without a result line. *)
let emit t ~trace : int =
  let expected = if trace then Defs.per_layer else Defs.end_to_end in
  Hashtbl.iter
    (fun name _ ->
      if Defs.find name = None then
        raise (Undeclared (Printf.sprintf "metric %s is not declared" name)))
    t.values;
  let metrics =
    List.map
      (fun (m : Defs.metric) ->
        match Hashtbl.find_opt t.values m.Defs.name with
        | Some v when Float.is_finite v -> (m, v)
        | Some v -> raise (Undeclared (Printf.sprintf "metric %s is %g" m.Defs.name v))
        | None -> raise (Undeclared (Printf.sprintf "metric %s was not measured" m.Defs.name)))
      expected
  in
  row "\n%-30s %16s  %s\n" "metric" "value" "unit";
  List.iter (fun ((m : Defs.metric), v) -> row "%-30s %16.6g  %s\n" m.Defs.name v m.Defs.unit_) metrics;
  row "%-30s %16.6g  %s  (%d failed / %d attempted)\n" "error_rate" (error_rate t) "ratio"
    t.failed t.attempted;
  List.iter (fun r -> row "  failure: %s\n" r) (List.rev t.reasons);
  let json =
    Obs.Jsonw.Obj
      [
        ("correct", Obs.Jsonw.Bool (t.failed = 0));
        ("attempted", Obs.Jsonw.Int (max 1 t.attempted));
        ("failed", Obs.Jsonw.Int t.failed);
        ( "metrics",
          Obs.Jsonw.Obj
            (List.map
               (fun ((m : Defs.metric), v) ->
                 ( m.Defs.name,
                   Obs.Jsonw.Obj
                     [ ("value", Obs.Jsonw.Float v); ("unit", Obs.Jsonw.Str m.Defs.unit_) ] ))
               metrics) );
      ]
  in
  print_endline (Obs.Jsonw.to_string json);
  if t.failed = 0 then 0 else 1
