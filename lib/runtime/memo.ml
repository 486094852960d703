(* The speculation memo shared by {!Interp} and {!Generated}: Ford's
   position-keyed packrat table, consulted only while speculating (paper
   section 6.2), which keeps it far smaller than a packrat parser's while
   still bounding backtracking to linear time.

   The table is created on first use, so parses that never speculate pay
   nothing for memoization, and it subscribes to its stream's release hook
   at that moment: entries keyed at positions behind the release frontier
   can never be hit again (the stream refuses to rewind there), so they are
   dropped whenever the window slides.  A stream that never slides (an
   array) never calls the hook. *)

type entry = Failed | Succeeded of int (* stop index *)

type t = {
  ts : Token_stream.t;
  mutable tbl : (int, entry) Hashtbl.t option;
      (* keyed by packed (rule, prec, pos) *)
}

let create (ts : Token_stream.t) : t = { ts; tbl = None }

(* Key packing: position in bits 0..29, precedence bound in bits 30..44,
   rule id in bits 45..61.  The bounds are far beyond anything a real
   grammar produces (2^30 tokens, prec < 2^15, 2^17 rules); an int key
   keeps the speculation-time lookup allocation-free, and the position in
   the low bits makes eviction a cheap range test per entry. *)
let key ~(rule : int) ~(prec : int) ~(pos : int) : int =
  (((rule lsl 15) lor prec) lsl 30) lor pos

let pos (key : int) : int = key land 0x3FFFFFFF

let evict_before (tbl : (int, entry) Hashtbl.t) (frontier : int) : unit =
  Hashtbl.filter_map_inplace
    (fun key v -> if pos key < frontier then None else Some v)
    tbl

(* 1024 buckets: a speculating parse memoizes every rule invocation it
   tries, and growing from a smaller table costs more than it saves. *)
let table (m : t) : (int, entry) Hashtbl.t =
  match m.tbl with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 1024 in
      Token_stream.set_release_hook m.ts (evict_before tbl);
      m.tbl <- Some tbl;
      tbl

let find (m : t) (key : int) : entry option = Hashtbl.find_opt (table m) key

(* Run [body] under the memo entry [key]: a recorded failure re-raises
   {!Token_stream.Spec_fail}, a recorded success replays its stop position
   (valid because speculation builds no tree and runs no actions), and a
   miss runs [body] and records how it ended. *)
let memoized (m : t) (key : int) (body : unit -> unit) : unit =
  let tbl = table m in
  match Hashtbl.find_opt tbl key with
  | Some Failed -> raise Token_stream.Spec_fail
  | Some (Succeeded stop) -> Token_stream.seek m.ts stop
  | None -> (
      match body () with
      | () -> Hashtbl.replace tbl key (Succeeded (Token_stream.index m.ts))
      | exception Token_stream.Spec_fail ->
          Hashtbl.replace tbl key Failed;
          raise Token_stream.Spec_fail)

(* Number of (rule, position) results currently memoized. *)
let entries (m : t) : int =
  match m.tbl with Some tbl -> Hashtbl.length tbl | None -> 0
