(* Bench-owned spans for the traced run.

   A span records a layer name, its start and end, the span it nests in,
   and the minor-heap words allocated while it was open.  Spans are taken
   in this directory's code around calls into each antlrkit module, never
   inside the program.  They stay in memory and are written out once, at
   exit.  With tracing off, [span] is one flag test and a direct call. *)

let on = ref false

type t = {
  mutable n : int;
  mutable name : string array;
  mutable parent : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable w0 : float array;
  mutable w1 : float array;
  mutable cur : int; (* innermost open span, or -1 *)
}

let st =
  {
    n = 0;
    name = [||];
    parent = [||];
    t0 = [||];
    t1 = [||];
    w0 = [||];
    w1 = [||];
    cur = -1;
  }

let grow () =
  let cap = max 1024 (2 * Array.length st.name) in
  let ext a d = Array.append a (Array.make (cap - Array.length a) d) in
  st.name <- ext st.name "";
  st.parent <- ext st.parent (-1);
  st.t0 <- ext st.t0 0.0;
  st.t1 <- ext st.t1 0.0;
  st.w0 <- ext st.w0 0.0;
  st.w1 <- ext st.w1 0.0

let enter (name : string) : int =
  if st.n = Array.length st.name then grow ();
  let id = st.n in
  st.n <- id + 1;
  st.name.(id) <- name;
  st.parent.(id) <- st.cur;
  st.cur <- id;
  st.w0.(id) <- Gc.minor_words ();
  st.t0.(id) <- Unix.gettimeofday ();
  id

let leave (id : int) : unit =
  st.t1.(id) <- Unix.gettimeofday ();
  st.w1.(id) <- Gc.minor_words ();
  st.cur <- st.parent.(id)

let span (name : string) (f : unit -> 'a) : 'a =
  if not !on then f ()
  else
    let id = enter name in
    match f () with
    | r ->
        leave id;
        r
    | exception e ->
        leave id;
        raise e

let count () = st.n

(* Per-layer totals over spans [first, last): self seconds (duration
   minus the part covered by child spans) and self minor words. *)
type totals = { self_s : float; self_words : float }

let totals ~(first : int) ~(last : int) : (string, totals) Hashtbl.t =
  let n = last in
  let child_s = Array.make n 0.0 and child_w = Array.make n 0.0 in
  for i = first to n - 1 do
    let p = st.parent.(i) in
    if p >= first then begin
      child_s.(p) <- child_s.(p) +. (st.t1.(i) -. st.t0.(i));
      child_w.(p) <- child_w.(p) +. (st.w1.(i) -. st.w0.(i))
    end
  done;
  let tbl = Hashtbl.create 16 in
  for i = first to n - 1 do
    let self_s = st.t1.(i) -. st.t0.(i) -. child_s.(i)
    and self_words = st.w1.(i) -. st.w0.(i) -. child_w.(i) in
    let prev =
      Option.value
        (Hashtbl.find_opt tbl st.name.(i))
        ~default:{ self_s = 0.0; self_words = 0.0 }
    in
    Hashtbl.replace tbl st.name.(i)
      {
        self_s = prev.self_s +. self_s;
        self_words = prev.self_words +. self_words;
      }
  done;
  tbl

(* One line per span: id, parent, name, start and end (seconds). *)
let write (path : string) : unit =
  let oc = open_out path in
  for i = 0 to st.n - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%.6f\t%.6f\n" i st.parent.(i) st.name.(i)
      st.t0.(i) st.t1.(i)
  done;
  close_out oc
