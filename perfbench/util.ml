(* Timing, statistics, host calibration of timed slices, failure
   accounting and the result line. *)

let now = Unix.gettimeofday

(* Nearest-rank quantile, [q] in [0, 1]. *)
let quantile (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let s = Array.copy xs in
    Array.sort compare s;
    let r = int_of_float (ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) r))

let median xs = quantile xs 0.5

let started = Unix.gettimeofday ()


(* Peak resident set size (VmHWM) of process [pid], in MB. *)
let vm_hwm_mb (pid : int) : float =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec find () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
  in
  let v = find () in
  close_in ic;
  v

(* Progress on stderr, with seconds since start and the peak RSS so far. *)
let phase fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "perfbench: [%6.1fs, %.0f MB] %s\n%!"
        (Unix.gettimeofday () -. started)
        (vm_hwm_mb (Unix.getpid ()))
        msg)
    fmt

(* ------------------------------------------------------------------ *)
(* Operations attempted and failed.  A failed operation is a wrong
   verdict, a dropped response or a timeout; a correct syntax-error
   verdict is not a failure. *)

let attempted = ref 0
let failed = ref 0

let fail_op fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if !failed <= 10 then prerr_endline ("perfbench: mismatch: " ^ msg))
    fmt

(* ------------------------------------------------------------------ *)
(* Timed slices.  A sequence of slices runs the calibration kernel once
   before its first slice and once after each; a slice's factor comes
   from the kernel runs on either side of it and rescales its time to
   nominal host speed.  Each slice starts from a compacted heap: a pass
   that allocates faster than the major GC reclaims otherwise hands its
   debt to the next one. *)

let kernel_samples : float list ref = ref []

let kernel () : float =
  let k = Spans.span "calib" Calib.measure in
  kernel_samples := k :: !kernel_samples;
  k

(* [runs] kernel runs per measurement, median taken: set-up slices last
   seconds, and one 15 ms sample is a noisy estimate of the host's speed
   over them. *)
type seq = { runs : int; mutable last_kernel : float }

let measure runs =
  if runs = 1 then kernel () else median (Array.init runs (fun _ -> kernel ()))

let seq ?(runs = 1) () : seq = { runs; last_kernel = measure runs }

type slice = {
  raw_s : float;
  kernel_s : float; (* mean of the kernel runs before and after *)
  minor_words : float; (* allocated inside the slice *)
  major : int; (* major collections inside the slice *)
}

let factor (s : slice) : float = Calib.nominal_s /. s.kernel_s
let cal (s : slice) : float = s.raw_s *. factor s

let slice (q : seq) (f : unit -> 'a) : 'a * slice =
  Spans.span "gc" Gc.compact;
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let raw_s = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let kb = q.last_kernel and ka = measure q.runs in
  q.last_kernel <- ka;
  ( r,
    {
      raw_s;
      kernel_s = (kb +. ka) /. 2.0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* ------------------------------------------------------------------ *)
(* The result: the last line of standard output. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result (metrics : metric list) : unit =
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  List.iter
    (fun m -> Printf.eprintf "perfbench: metric %s is not finite\n" m.name)
    bad;
  let correct = bad = [] && !failed = 0 in
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
             (if Float.is_finite m.value then m.value else 0.0)
             m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed body;
  if not correct then exit 1
