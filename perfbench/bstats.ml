(* Order statistics, the host-speed probe and process probes shared by
   every workload. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Median; [nan] on an empty sample. *)
let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail: the highest percentile with at least ten samples beyond it,
   i.e. the eleventh-largest value. Returns the value, the percentile it
   sits at and the sample count. With eleven samples or fewer there is no
   such percentile and the maximum is reported (percentile 100). *)
let tail (xs : float list) : float * float * int =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, 0.0, 0)
  else if n <= 11 then (a.(n - 1), 100.0, n)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n, n)

let tail_value xs =
  let v, _, _ = tail xs in
  v

(* The [p]th percentile (0-100), nearest rank; [nan] on an empty sample. *)
let percentile (p : float) (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let geomean (xs : float list) : float =
  match xs with
  | [] -> Float.nan
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

let now_s () = Obs.Clock.now_s ()

(* [timed f] — result and wall seconds. *)
let timed f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* Host-speed probe. On a shared host, other tenants slow the same code
   by up to ~1.8x, for seconds to minutes at a time, and no run length
   averages that out. The probe is a fixed float loop over an L1-resident
   array (~0.25 ms on an idle 2 GHz Xeon core), run right before and
   after each timed operation, on the same thread: the operation's time
   over its probes' mean is its cost in probe units, which the host's
   state barely moves. [host_probe_ms] returns the probe's wall time in ms. *)
let probe_buf = Domain.DLS.new_key (fun () -> Array.make 4096 1.0)
let probe_sink = Atomic.make 0.0

let host_probe_ms () =
  let buf = Domain.DLS.get probe_buf in
  let t0 = now_s () in
  let acc = ref 0.0 in
  for _ = 1 to 60 do
    for i = 0 to Array.length buf - 1 do
      let x = (buf.(i) *. 0.999) +. 0.001 in
      buf.(i) <- x;
      acc := !acc +. x
    done
  done;
  Atomic.set probe_sink !acc;
  (now_s () -. t0) *. 1e3

(* Run a probe and add its time to [host_probes]. *)
let record_probe (host_probes : float list ref) =
  host_probes := host_probe_ms () :: !host_probes

(* [host_timed ~burst host_probes f] — [f ()] between two bursts of
   [burst] probes, whose times are added to [host_probes]: f's result,
   its wall ms, and that time in probe units, over the mean of every probe
   recorded meanwhile (an [f] that runs for seconds can record more, from
   callbacks it hands to the program, to sample the host under it). *)
let host_timed ?(burst = 1) (host_probes : float list ref) f =
  let before = List.length !host_probes in
  let sample () = for _ = 1 to burst do record_probe host_probes done in
  sample ();
  let v, dt = timed f in
  sample ();
  let n = List.length !host_probes - before in
  let added = List.filteri (fun i _ -> i < n) !host_probes in
  let ms = dt *. 1e3 in
  (v, ms, ms /. (sum added /. float_of_int (List.length added)))

(* Costs in probe units back to ms: times the probe's time on an idle
   core of a 2.0 GHz Intel Xeon (0.23-0.25 ms there; 0.5-0.58 ms while
   another tenant shares the core). A fixed reference rather than one
   measured in the run: a run may see no idle moment at all. *)
let probe_reference_ms = 0.23

let reference_ms (rel : float list) : float list = List.map (fun r -> r *. probe_reference_ms) rel

(* Peak resident set (VmHWM) of a process, in MiB; [nan] when /proc is
   unreadable. *)
let peak_rss_mb ?(pid = "self") () : float =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Reset a process's VmHWM to its current resident set (clear_refs 5);
   a no-op where /proc does not allow it. *)
let reset_peak_rss ~pid =
  match open_out (Printf.sprintf "/proc/%s/clear_refs" pid) with
  | exception Sys_error _ -> ()
  | oc -> (
    try
      output_string oc "5";
      close_out oc
    with Sys_error _ -> close_out_noerr oc)

(* A seeded Fisher-Yates shuffle. *)
let shuffle (rng : Random.State.t) (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
