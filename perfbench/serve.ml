(* Driving [antlrkit serve] as its own process, over its socket protocol:
   start and stop the daemon, closed-loop request traffic, response
   checks against in-process verdicts, and the [stats] op's latency
   summaries. *)

module J = Obs.Json

let antlrkit = ref "antlrkit"
let run_dir = ".perfbench-run"

type daemon = { pid : int; sock : string }

let live : daemon option ref = ref None

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect (sock : string) : conn =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX sock)
   with e ->
     Unix.close fd;
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close (c : conn) = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send (c : conn) (line : string) =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let call (c : conn) (req : J.t) : J.t =
  send c (J.to_string req);
  match J.parse (input_line c.ic) with
  | Ok j -> j
  | Error msg -> failwith ("invalid response: " ^ msg)

let op name = J.obj [ ("op", J.str name) ]

let is_ok (j : J.t) = J.member "ok" j = Some (J.Bool true)

let alive (d : daemon) =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> true
  | _ -> false

(* Start a daemon and wait until it answers a ping; returns the raw
   seconds from spawn to that answer.  Every grammar it preloads is
   compiled before it listens. *)
let start (args : string list) : daemon * float =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  let sock = Printf.sprintf "%s/serve-%d.sock" run_dir (Unix.getpid ()) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile (run_dir ^ "/serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Util.now () in
  let pid =
    Unix.create_process !antlrkit
      (Array.of_list
         ([ !antlrkit; "serve"; "--jobs"; "1"; "--socket"; sock ] @ args))
      null log log
  in
  Unix.close null;
  Unix.close log;
  let d = { pid; sock } in
  live := Some d;
  let rec wait () =
    match connect sock with
    | c ->
        let ok = is_ok (call c (op "ping")) in
        close c;
        if not ok then failwith "daemon refused a ping"
    | exception Unix.Unix_error _ ->
        if not (alive d) then begin
          live := None;
          failwith ("antlrkit serve exited; see " ^ run_dir ^ "/serve.log")
        end;
        if Util.now () -. t0 > 120.0 then failwith "antlrkit serve never listened";
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  (d, Util.now () -. t0)

(* Graceful shutdown, then SIGKILL if it has not exited in 10 s; either
   way the process is reaped. *)
let stop (d : daemon) : unit =
  (try
     let c = connect d.sock in
     ignore (call c (op "shutdown"));
     close c
   with _ -> ());
  let t0 = Util.now () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now () -. t0 < 10.0 ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  (try reap () with Unix.Unix_error _ -> ());
  (try Unix.unlink d.sock with Unix.Unix_error _ -> ());
  live := None

let () =
  at_exit (fun () ->
      match !live with
      | Some d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
          (try Unix.unlink d.sock with Unix.Unix_error _ -> ());
          live := None
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Requests and the verdict each must get *)

type expect =
  | Accept of int * int (* tokens, consumed *)
  | Parse_error of int * string * int (* consumed, kind, token index *)
  | Lex_error of int * int (* line, col *)

let expect_of_verdict : Docs.verdict -> expect = function
  | Docs.Lex_failed e ->
      Lex_error (e.Runtime.Lexer_engine.line, e.Runtime.Lexer_engine.col)
  | Docs.Parsed (o, n) -> (
      match o.Runtime.Generated.error with
      | None -> Accept (n, o.Runtime.Generated.consumed)
      | Some e ->
          Parse_error
            ( o.Runtime.Generated.consumed,
              Runtime.Parse_error.kind_label e,
              e.Runtime.Parse_error.token.Runtime.Token.index ))

type req = {
  line : string; (* the request, one JSON line *)
  bytes : int; (* its text payload *)
  backend : Docs.backend;
  expect : expect;
}

let request ~id ~op ~grammar ~backend ~expect (text : string) : req =
  {
    line =
      J.to_string
        (J.obj
           ([
              ("id", J.int id);
              ("op", J.str op);
              ("grammar", J.str grammar);
              ("backend", J.str (Docs.backend_name backend));
              ("text", J.str text);
            ]
           @ if op = "parse_stream" then [ ("window", J.int Docs.window) ] else []));
    bytes = String.length text;
    backend;
    expect;
  }

let at (path : string list) (j : J.t) : J.t option =
  List.fold_left
    (fun acc k ->
      match acc with
      | Some (J.List (x :: _)) when k = "0" -> Some x
      | Some j -> J.member k j
      | None -> None)
    (Some j) path

let int_at path j = match at path j with Some (J.Int n) -> Some n | _ -> None
let str_at path j = match at path j with Some (J.String s) -> Some s | _ -> None

(* Whether a response line carries the expected verdict, and the daemon's
   own wall time for the request when it reports one. *)
let check (e : expect) (line : string) : bool * int option =
  match J.parse line with
  | Error _ -> (false, None)
  | Ok j ->
      let wall = int_at [ "wall_us" ] j in
      let okv = is_ok j in
      let code = str_at [ "error"; "code" ] j in
      let good =
        match e with
        | Accept (n, consumed) ->
            okv
            && int_at [ "tokens" ] j = Some n
            && int_at [ "consumed" ] j = Some consumed
        | Parse_error (consumed, kind, index) ->
            (not okv)
            && code = Some "parse_error"
            && int_at [ "consumed" ] j = Some consumed
            && str_at [ "errors"; "0"; "kind" ] j = Some kind
            && int_at [ "errors"; "0"; "token"; "index" ] j = Some index
        | Lex_error (l, c) ->
            (not okv)
            && code = Some "lex_error"
            && int_at [ "position"; "line" ] j = Some l
            && int_at [ "position"; "col" ] j = Some c
      in
      (good, wall)

(* ------------------------------------------------------------------ *)
(* Closed loop: each connection sends its next request only when the
   previous reply has arrived.  Requests [start, start + count) of [reqs]
   (cyclically) are sent; returns (request index, round-trip seconds,
   response line) per answered request.  Replies are checked afterwards,
   outside the loop; a dropped connection or a 60 s silence fails every
   outstanding request. *)

let closed_loop (conns : conn array) (reqs : req array) ~(start : int)
    ~(count : int) : (int * float * string) list =
  let busy = Array.make (Array.length conns) None in
  let next = ref 0 and out = ref [] and dead = ref false in
  let send_next ci =
    if !next < count && not !dead then begin
      let k = (start + !next) mod Array.length reqs in
      incr next;
      busy.(ci) <- Some (k, Util.now ());
      try send conns.(ci) reqs.(k).line
      with Sys_error _ | Unix.Unix_error _ ->
        busy.(ci) <- None;
        dead := true;
        Util.fail_op "request %d: connection lost on send" k
    end
  in
  Array.iteri (fun ci _ -> send_next ci) conns;
  let pending () =
    List.filter_map
      (fun ci -> Option.map (fun _ -> ci) busy.(ci))
      (List.init (Array.length conns) Fun.id)
  in
  let rec loop () =
    match pending () with
    | [] -> ()
    | cis -> (
        let fds = List.map (fun ci -> conns.(ci).fd) cis in
        match Unix.select fds [] [] 60.0 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | [], _, _ ->
            List.iter
              (fun ci ->
                busy.(ci) <- None;
                Util.fail_op "request timed out after 60 s")
              cis;
            dead := true
        | ready, _, _ ->
            List.iter
              (fun ci ->
                if List.mem conns.(ci).fd ready then
                  match busy.(ci) with
                  | None -> ()
                  | Some (k, t0) -> (
                      busy.(ci) <- None;
                      match input_line conns.(ci).ic with
                      | line ->
                          out := (k, Util.now () -. t0, line) :: !out;
                          send_next ci
                      | exception (End_of_file | Sys_error _) ->
                          dead := true;
                          Util.fail_op "request %d: connection dropped" k))
              cis;
            loop ())
  in
  loop ();
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Daemon-side latency, from the stats op: the duration buckets of one
   metric merged across every label set, as lower bound -> count. *)

let buckets (stats : J.t) (name : string) : (int, int) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let points =
    match
      Option.bind (J.member "stats" stats) (fun s ->
          Option.bind (J.member "benches" s) (J.member "serve"))
    with
    | Some (J.List pts) -> pts
    | _ -> []
  in
  List.iter
    (fun p ->
      if J.member "name" p = Some (J.str name) then
        match Option.bind (J.member "metric" p) (J.member "buckets") with
        | Some (J.List bs) ->
            List.iter
              (function
                | J.List [ J.Int lo; J.Int n ] ->
                    Hashtbl.replace tbl lo
                      (n + Option.value (Hashtbl.find_opt tbl lo) ~default:0)
                | _ -> ())
              bs
        | _ -> ())
    points;
  tbl

(* p50 and p99 of what was observed between two stats snapshots, each as
   the midpoint of its bucket. *)
let window_quantiles ~(before : J.t) ~(after : J.t) (name : string) :
    float * float =
  let b = buckets before name and a = buckets after name in
  let diff =
    Hashtbl.fold
      (fun lo n acc ->
        let d = n - Option.value (Hashtbl.find_opt b lo) ~default:0 in
        if d > 0 then (lo, d) :: acc else acc)
      a []
    |> List.sort compare
  in
  let total = List.fold_left (fun s (_, n) -> s + n) 0 diff in
  let q p =
    let rank = max 1 (int_of_float (ceil (p *. float_of_int total))) in
    let rec go cum = function
      | [] -> nan
      | (lo, n) :: rest ->
          if cum + n >= rank then
            let l, h = Obs.Duration.bounds_of (Obs.Duration.index_of lo) in
            float_of_int (l + h) /. 2.0
          else go (cum + n) rest
    in
    go 0 diff
  in
  (q 0.5, q 0.99)

let serve_layers ~before ~after (protocol_us : float array) :
    Report.serve_layers =
  {
    Report.request_us = window_quantiles ~before ~after "serve.request_us";
    queue_us = window_quantiles ~before ~after "serve.queue_us";
    parse_us = window_quantiles ~before ~after "serve.parse_us";
    protocol_us = (Util.quantile protocol_us 0.5, Util.quantile protocol_us 0.99);
  }

(* Check every reply; the client round trip minus the daemon's own wall
   time is the protocol cost (JSON codec, socket hops, dispatch). *)
let check_replies (reqs : req array) (replies : (int * float * string) list) :
    float list =
  List.fold_left
    (fun acc (k, rtt, line) ->
      incr Util.attempted;
      match check reqs.(k).expect line with
      | true, Some wall -> ((rtt *. 1e6) -. float_of_int wall) :: acc
      | true, None -> acc
      | false, _ ->
          Util.fail_op "request %d: unexpected reply %s" k
            (if String.length line > 200 then String.sub line 0 200 else line);
          acc)
    [] replies

(* The serve layers for another workload's documents: a daemon preloading
   [args]' grammars, [prelude] requests (e.g. loading a grammar from
   text), then every request once over one connection. *)
let probe ~(args : string list) ~(prelude : J.t list) (reqs : req array) :
    Report.serve_layers =
  let d, _ = start args in
  let c = connect d.sock in
  List.iter
    (fun r ->
      let resp = call c r in
      if not (is_ok resp) then failwith ("serve probe: " ^ J.to_string resp))
    prelude;
  let before = call c (op "stats") in
  let replies = closed_loop [| c |] reqs ~start:0 ~count:(Array.length reqs) in
  let after = call c (op "stats") in
  close c;
  stop d;
  let protocol = check_replies reqs replies in
  serve_layers ~before ~after (Array.of_list protocol)
