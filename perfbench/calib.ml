(* Host-speed calibration kernel.

   A shared 2-vCPU VM can change speed by up to 2x within minutes, and
   CPU time tracks wall time, so the drift is the host's, not steal
   time.  A fixed amount of alloc/hash/sort work -- the same kinds of
   work a lexer and a parser do -- is timed just before and just after
   every timed slice; each slice's time is rescaled to the speed at which
   the kernel takes [nominal_s].  Every time-based end-to-end metric is
   reported at that nominal speed; the per-layer [raw.*] metrics keep the
   uncalibrated values.

   The kernel links only the OCaml stdlib, so no change to antlrkit can
   move it: a change that moves [calib.kernel_s] points at the host, and
   its other numbers are suspect. *)

(* Seconds the kernel takes at nominal host speed: about its time on an
   uncontended 2-vCPU x86-64 Linux VM, OCaml 5.1.1 without flambda.  It
   sets only the scale of the calibrated figures. *)
let nominal_s = 0.015

let rounds = 3
let size = 16_384

(* Work areas, allocated once at start-up: the kernel itself allocates
   only short-lived blocks, which die in the minor heap, so its time does
   not depend on how big the program's own heap is.  It has no
   cache-missing part: on a contended host such reads slow down far more
   than parsing does, and would over-correct. *)
let keys = Array.make size 0
let table = Array.make (2 * size) (-1)

(* One round: fill [keys] from an LCG stream; insert each key's decimal
   string hash into an open-addressing table; sort the keys; allocate and
   drop a small list per key. *)
let round (seed : int) : int =
  let x = ref seed in
  for i = 0 to size - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    keys.(i) <- !x
  done;
  Array.fill table 0 (Array.length table) (-1);
  let mask = Array.length table - 1 and acc = ref 0 in
  Array.iter
    (fun k ->
      let h = ref (Hashtbl.hash (string_of_int k) land mask) in
      while table.(!h) <> -1 && table.(!h) <> k do
        h := (!h + 1) land mask
      done;
      if table.(!h) = -1 then begin
        table.(!h) <- k;
        incr acc
      end)
    keys;
  Array.sort (fun (a : int) b -> compare a b) keys;
  Array.iteri
    (fun i k ->
      let l = Sys.opaque_identity [ (i, k); (k, i); (i, !acc) ] in
      acc := !acc + List.length l)
    keys;
  !acc + keys.(size / 2)
(* Wall seconds of one kernel run. *)
let measure () : float =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for r = 1 to rounds do
    acc := !acc + round r
  done;
  ignore (Sys.opaque_identity !acc);
  Unix.gettimeofday () -. t0
