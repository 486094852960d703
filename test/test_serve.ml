(* Serve layer: protocol codec, handler round trips, budgets/limits, the
   cross-request state-reset contract (the reuse-twice regressions), and a
   full server lifecycle over a Unix socket with concurrent clients and a
   graceful drain.

   The memo-isolation regression near the bottom is the distilled
   serve-layer bug: parser state reused across requests would let one
   input's speculation memo decide another input's parse. *)

open Helpers
module Json = Obs.Json

let tiny_src = "grammar tiny; s : A B | A C ;"

(* Pool + registry (ad-hoc "tiny" grammar and the MiniJava builtin with
   its generated backend) + handler, torn down with the pool. *)
let with_handler ?limits (f : Serve.Handler.t -> unit) : unit =
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let registry = Serve.Registry.create () in
      (match Serve.Registry.load_builtin registry ~pool "MiniJava" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      (match
         Serve.Registry.load_source registry ~pool ~name:"tiny" tiny_src
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      f (Serve.Handler.create ?limits ~registry ~pool ()))

let req fields = Json.to_string (Json.obj fields)

let handle_ok h line : Json.t =
  let resp, action = Serve.Handler.handle h line in
  (match action with
  | `Continue -> ()
  | `Shutdown -> Alcotest.fail "unexpected shutdown action");
  match Json.parse resp with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad response JSON: %s" e

let get k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" k (Json.to_string j)

let get_ok j = match get "ok" j with Json.Bool b -> b | _ -> false

let error_code j =
  match Json.member "code" (get "error" j) with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "no error code in %s" (Json.to_string j)

let parse_req ?(backend = "interp") ?(grammar = "tiny") ?extra text =
  req
    ([
       ("op", Json.str "parse");
       ("grammar", Json.str grammar);
       ("backend", Json.str backend);
       ("text", Json.str text);
     ]
    @ Option.value extra ~default:[])

(* Responses are deterministic except for the measured wall clock. *)
let strip_wall = function
  | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> k <> "wall_us") fields)
  | j -> j

let protocol_tests =
  [
    test "request codec round trip" (fun () ->
        match
          Serve.Protocol.parse_request
            {|{"id":7,"op":"parse","grammar":"g","backend":"generated","text":"x","recover":true}|}
        with
        | Error e -> Alcotest.fail e
        | Ok r ->
            check string "op" "parse" r.Serve.Protocol.op;
            check bool "backend" true
              (r.Serve.Protocol.backend = Serve.Protocol.Generated);
            check bool "recover" true r.Serve.Protocol.recover;
            check string "grammar" "g"
              (Option.get r.Serve.Protocol.grammar));
    test "malformed requests are rejected, not raised" (fun () ->
        let bad s =
          match Serve.Protocol.parse_request s with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "accepted %S" s
        in
        bad "not json";
        bad "[1,2]";
        bad {|{"grammar":"g"}|};
        bad {|{"op":"parse","backend":"llvm"}|});
    test "tcp address parsing" (fun () ->
        (match Serve.Protocol.tcp_of_string "127.0.0.1:4000" with
        | Ok (Serve.Protocol.Tcp ("127.0.0.1", 4000)) -> ()
        | _ -> Alcotest.fail "tcp parse");
        match Serve.Protocol.tcp_of_string "nocolon" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted bad tcp addr");
  ]

let handler_tests =
  [
    test "ping, list, unknown op" (fun () ->
        with_handler (fun h ->
            let pong = handle_ok h (req [ ("op", Json.str "ping") ]) in
            check bool "pong ok" true (get_ok pong);
            let listed = handle_ok h (req [ ("op", Json.str "list") ]) in
            (match get "grammars" listed with
            | Json.List gs -> check int "two grammars" 2 (List.length gs)
            | _ -> Alcotest.fail "grammars not a list");
            let unk = handle_ok h (req [ ("op", Json.str "frobnicate") ]) in
            check string "unknown op" "unknown_op" (error_code unk)));
    test "parse: accept, reject, both backends" (fun () ->
        with_handler (fun h ->
            let ok = handle_ok h (parse_req "A B") in
            check bool "accepts" true (get_ok ok);
            check bool "consumed" true (get "consumed" ok = Json.Int 2);
            let bad = handle_ok h (parse_req "A A") in
            check bool "rejects" false (get_ok bad);
            check string "code" "parse_error" (error_code bad);
            (match get "errors" bad with
            | Json.List [ e ] ->
                check bool "structured kind" true
                  (Json.member "kind" e <> None);
                check bool "token position" true
                  (Json.member "token" e <> None)
            | _ -> Alcotest.fail "expected one structured error");
            let gen =
              handle_ok h
                (parse_req ~grammar:"MiniJava" ~backend:"generated"
                   "class A { int x ; }")
            in
            check bool "generated accepts" true (get_ok gen);
            let nogen = handle_ok h (parse_req ~backend:"generated" "A B") in
            check string "no generated parser" "no_generated_parser"
              (error_code nogen)));
    test "parse: unknown grammar and lex error" (fun () ->
        with_handler (fun h ->
            let unk = handle_ok h (parse_req ~grammar:"nope" "A B") in
            check string "unknown grammar" "unknown_grammar" (error_code unk);
            let lex = handle_ok h (parse_req "A !") in
            check string "lex error" "lex_error" (error_code lex);
            check bool "position reported" true
              (Json.member "position" lex <> None)));
    test "budgets: token cap and oversized requests" (fun () ->
        let limits =
          { Serve.Handler.default_limits with Serve.Handler.max_tokens = 1 }
        in
        with_handler ~limits (fun h ->
            let capped = handle_ok h (parse_req "A B") in
            check string "token budget" "token_budget" (error_code capped));
        let limits =
          {
            Serve.Handler.default_limits with
            Serve.Handler.max_request_bytes = 64;
          }
        in
        with_handler ~limits (fun h ->
            let big = handle_ok h (parse_req (String.make 200 'A')) in
            check string "too large" "too_large" (error_code big)));
    test "recover collects errors; rejected on generated backend" (fun () ->
        with_handler (fun h ->
            let r =
              handle_ok h
                (parse_req ~extra:[ ("recover", Json.bool true) ] "A A")
            in
            check bool "still rejects" false (get_ok r);
            let gen =
              handle_ok h
                (parse_req ~backend:"generated" ~grammar:"MiniJava"
                   ~extra:[ ("recover", Json.bool true) ] "class")
            in
            check string "recover+generated refused" "bad_request"
              (error_code gen)));
    test "load and evict round trip" (fun () ->
        with_handler (fun h ->
            let loaded =
              handle_ok h
                (req
                   [
                     ("op", Json.str "load");
                     ("grammar", Json.str "two");
                     ("text", Json.str "grammar two; s : X Y ;");
                   ])
            in
            check bool "load ok" true (get_ok loaded);
            let ok = handle_ok h (parse_req ~grammar:"two" "X Y") in
            check bool "parses via loaded grammar" true (get_ok ok);
            let ev =
              handle_ok h
                (req [ ("op", Json.str "evict"); ("grammar", Json.str "two") ])
            in
            check bool "evicted" true (get "evicted" ev = Json.Bool true);
            let gone = handle_ok h (parse_req ~grammar:"two" "X Y") in
            check string "gone after evict" "unknown_grammar"
              (error_code gone)));
    test "stats is an antlrkit-telemetry/2 document" (fun () ->
        with_handler (fun h ->
            ignore (handle_ok h (parse_req "A B"));
            let stats = get "stats" (handle_ok h (req [ ("op", Json.str "stats") ])) in
            check bool "schema" true
              (get "schema" stats = Json.String "antlrkit-telemetry/2");
            check bool "tool" true
              (get "tool" stats = Json.String "antlrkit-serve");
            match get "benches" stats with
            | Json.Obj benches ->
                check bool "serve metrics present" true
                  (List.mem_assoc "serve" benches)
            | _ -> Alcotest.fail "benches not an object"));
    test "shutdown op requests shutdown" (fun () ->
        with_handler (fun h ->
            let resp, action = Serve.Handler.handle h (req [ ("op", Json.str "shutdown") ]) in
            (match Json.parse resp with
            | Ok j -> check bool "ok" true (get_ok j)
            | Error e -> Alcotest.fail e);
            check bool "shutdown action" true (action = `Shutdown)));
    test "no generated parser: both ops answer it before lexing" (fun () ->
        let limits =
          { Serve.Handler.default_limits with Serve.Handler.max_tokens = 1 }
        in
        with_handler ~limits (fun h ->
            List.iter
              (fun text ->
                List.iter
                  (fun op ->
                    let r =
                      handle_ok h
                        (req
                           [
                             ("op", Json.str op);
                             ("grammar", Json.str "tiny");
                             ("backend", Json.str "generated");
                             ("text", Json.str text);
                           ])
                    in
                    check string
                      (Printf.sprintf "%s on %S" op text)
                      "no_generated_parser" (error_code r))
                  [ "parse"; "parse_stream" ])
              [ "A ~"; "A B C" ]));
  ]

(* ------------------------------------------------------------------ *)
(* Telemetry surface: the metrics/health/ready ops, latency summaries in
   the stats doc, and the tail-sampled slow-request log. *)

let telemetry_op_tests =
  [
    test "metrics op serves Prometheus text after a parse" (fun () ->
        with_handler (fun h ->
            ignore (handle_ok h (parse_req "A B"));
            ignore (handle_ok h (parse_req "A A"));
            let resp = handle_ok h (req [ ("op", Json.str "metrics") ]) in
            check bool "ok" true (get_ok resp);
            check bool "content type" true
              (get "content_type" resp
              = Json.String "text/plain; version=0.0.4; charset=utf-8");
            match get "body" resp with
            | Json.String body ->
                check bool "request counter exported" true
                  (contains body "antlrkit_serve_requests");
                check bool "latency summary exported" true
                  (contains body "antlrkit_serve_request_us");
                check bool "HELP lines present" true (contains body "# HELP ");
                check bool "up gauge" true (contains body "antlrkit_up 1");
                check bool "grammar label" true
                  (contains body "grammar=\"tiny\"")
            | _ -> Alcotest.fail "metrics body not a string"));
    test "health and ready answer" (fun () ->
        with_handler (fun h ->
            let hr = handle_ok h (req [ ("op", Json.str "health") ]) in
            check bool "healthy" true (get "healthy" hr = Json.Bool true);
            check bool "uptime present" true
              (Json.member "uptime_s" hr <> None);
            let rr = handle_ok h (req [ ("op", Json.str "ready") ]) in
            check bool "ready" true (get "ready" rr = Json.Bool true);
            check bool "grammar count" true (get "grammars" rr = Json.Int 2);
            check bool "pending gauge" true
              (match get "pool_pending" rr with Json.Int n -> n >= 0 | _ -> false)));
    test "stats carries latency summaries and pool backlog" (fun () ->
        with_handler (fun h ->
            ignore (handle_ok h (parse_req "A B"));
            let stats =
              get "stats" (handle_ok h (req [ ("op", Json.str "stats") ]))
            in
            let benches =
              match Json.member "benches" stats with
              | Some b -> b
              | None -> Alcotest.fail "no benches"
            in
            (match Json.member "pool" benches with
            | Some (Json.Obj fields) ->
                check bool "pending" true (List.mem_assoc "pending" fields)
            | _ -> Alcotest.fail "pool not an object");
            let serve_points =
              match Json.member "serve" benches with
              | Some (Json.List pts) -> pts
              | _ -> Alcotest.fail "serve metrics not a list"
            in
            let durations =
              List.filter
                (fun p ->
                  match Json.member "metric" p with
                  | Some v -> (
                      match Json.member "type" v with
                      | Some (Json.String "duration") -> true
                      | _ -> false)
                  | None -> false)
                serve_points
            in
            check bool "request/queue/parse summaries" true
              (List.length durations >= 3);
            List.iter
              (fun p ->
                let v = get "metric" p in
                check bool "p50 present" true (Json.member "p50_us" v <> None);
                check bool "p99 present" true (Json.member "p99_us" v <> None))
              durations));
  ]

(* Handler with an armed slow log writing to a temp file. *)
let with_slow_handler ?max_records ~threshold_us
    (f : Serve.Handler.t -> string -> unit) : unit =
  let path = Filename.temp_file "antlrkit-test-slow" ".jsonl" in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let registry = Serve.Registry.create () in
      (match
         Serve.Registry.load_source registry ~pool ~name:"tiny" tiny_src
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let sl = Serve.Slow_log.create ?max_records ~threshold_us path in
      Fun.protect
        ~finally:(fun () ->
          Serve.Slow_log.close sl;
          Sys.remove path)
        (fun () ->
          f (Serve.Handler.create ~registry ~pool ~slow_log:sl ()) path))

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let slow_line path i =
  match List.nth_opt (read_lines path) i with
  | Some l -> (
      match Json.parse l with
      | Ok j -> j
      | Error e -> Alcotest.failf "slow-log line unparsable: %s" e)
  | None -> Alcotest.failf "slow log has no line %d" i

let slow_log_tests =
  [
    test "threshold 0 retains every request with id and events" (fun () ->
        with_slow_handler ~threshold_us:0 (fun h path ->
            ignore (handle_ok h (parse_req "A B"));
            let rec_0 = slow_line path 0 in
            (match get "req_id" rec_0 with
            | Json.String s ->
                check bool "generated id" true
                  (String.length s > 2 && String.sub s 0 2 = "r-")
            | _ -> Alcotest.fail "req_id not a string");
            check bool "op" true (get "op" rec_0 = Json.String "parse");
            check bool "grammar" true (get "grammar" rec_0 = Json.String "tiny");
            check bool "ok" true (get "ok" rec_0 = Json.Bool true);
            (match get "events" rec_0 with
            | Json.List evs -> check bool "trace captured" true (evs <> [])
            | _ -> Alcotest.fail "events not a list");
            List.iter
              (fun k ->
                check bool k true
                  (match get k rec_0 with Json.Int n -> n >= 0 | _ -> false))
              [ "wall_us"; "queue_us"; "parse_us"; "events_dropped" ]));
    test "client-supplied id is the correlation id" (fun () ->
        with_slow_handler ~threshold_us:0 (fun h path ->
            ignore
              (handle_ok h
                 (parse_req ~extra:[ ("id", Json.str "probe-42") ] "A B"));
            let r = slow_line path 0 in
            check bool "client id retained" true
              (get "req_id" r = Json.String "probe-42");
            check int "one record" 1 (Serve.Handler.slow_log h |> Option.get |> Serve.Slow_log.written)));
    test "huge threshold keeps only failing requests" (fun () ->
        with_slow_handler ~threshold_us:max_int (fun h path ->
            ignore (handle_ok h (parse_req "A B"));
            check int "fast success not retained" 0
              (List.length (read_lines path));
            ignore (handle_ok h (parse_req "A A"));
            let r = slow_line path 0 in
            check bool "failure retained" true (get "ok" r = Json.Bool false);
            check int "only the failure" 1 (List.length (read_lines path))));
    test "record cap converts writes into drops" (fun () ->
        with_slow_handler ~max_records:2 ~threshold_us:0 (fun h path ->
            for _ = 1 to 4 do
              ignore (handle_ok h (parse_req "A B"))
            done;
            let sl = Option.get (Serve.Handler.slow_log h) in
            check int "written capped" 2 (Serve.Slow_log.written sl);
            check int "rest dropped" 2 (Serve.Slow_log.dropped sl);
            check int "file matches" 2 (List.length (read_lines path))));
    test "timestamps within a record never decrease" (fun () ->
        with_slow_handler ~threshold_us:0 (fun h path ->
            ignore (handle_ok h (parse_req "A B"));
            match get "events" (slow_line path 0) with
            | Json.List evs ->
                let ts =
                  List.map
                    (fun e ->
                      match get "ts_us" e with
                      | Json.Int n -> n
                      | _ -> Alcotest.fail "ts_us not an int")
                    evs
                in
                let rec ordered = function
                  | a :: (b :: _ as rest) -> a <= b && ordered rest
                  | _ -> true
                in
                check bool "ordered" true (ordered ts);
                check bool "non-negative" true (List.for_all (fun t -> t >= 0) ts)
            | _ -> Alcotest.fail "events not a list"));
  ]

(* ------------------------------------------------------------------ *)
(* The HTTP metrics listener, end to end over a real socket. *)

let http_request ?(meth = "GET") ~(port : int) (path : string) : string =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let lines =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n\r\n" meth path
      in
      ignore (Unix.write fd (Bytes.of_string lines) 0 (String.length lines));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      Buffer.contents buf)

let metrics_http_tests =
  [
    test "GET /metrics, /health, /ready over a real socket" (fun () ->
        with_handler (fun h ->
            ignore (handle_ok h (parse_req "A B"));
            match Serve.Metrics_http.start ~port:0 h with
            | Error e -> Alcotest.fail e
            | Ok listener ->
                Fun.protect
                  ~finally:(fun () -> Serve.Metrics_http.stop listener)
                  (fun () ->
                    let port = Serve.Metrics_http.port listener in
                    check bool "kernel-assigned port" true (port > 0);
                    let m = http_request ~port "/metrics" in
                    check bool "200" true (contains m "HTTP/1.1 200 OK");
                    check bool "prometheus content type" true
                      (contains m "text/plain; version=0.0.4");
                    check bool "series served" true
                      (contains m "antlrkit_serve_requests");
                    let hl = http_request ~port "/health" in
                    check bool "health 200" true (contains hl "200 OK");
                    check bool "health body" true (contains hl "ok");
                    let rd = http_request ~port "/ready" in
                    check bool "ready 200" true (contains rd "200 OK");
                    check bool "query string ignored" true
                      (contains (http_request ~port "/metrics?x=1") "200 OK");
                    check bool "404 for unknown path" true
                      (contains (http_request ~port "/nope") "404 Not Found");
                    check bool "405 for POST" true
                      (contains
                         (http_request ~meth:"POST" ~port "/metrics")
                         "405 Method Not Allowed"))));
    test "stop joins the listener and is idempotent" (fun () ->
        with_handler (fun h ->
            match Serve.Metrics_http.start ~port:0 h with
            | Error e -> Alcotest.fail e
            | Ok listener ->
                let port = Serve.Metrics_http.port listener in
                check bool "live before stop" true
                  (contains (http_request ~port "/health") "200 OK");
                Serve.Metrics_http.stop listener;
                Serve.Metrics_http.stop listener;
                check bool "connection refused after stop" true
                  (match http_request ~port "/health" with
                  | _ -> false
                  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true)));
  ]

(* The state-reset contract, observed through the public request path:
   repeating any request must give a byte-identical response (modulo the
   measured wall clock), regardless of what was parsed in between.  On a
   handler that leaked Token_stream positions or Generated memo entries
   across requests, the interleaved inputs would perturb the repeats. *)
let reuse_tests =
  [
    test "reuse-twice: identical responses across interleaved requests"
      (fun () ->
        with_handler (fun h ->
            let requests =
              [
                parse_req "A B";
                parse_req "A A";
                parse_req ~grammar:"MiniJava" ~backend:"generated"
                  "class A { int x ; }";
                parse_req ~grammar:"MiniJava" ~backend:"generated"
                  "class A { int ; }";
                parse_req ~grammar:"MiniJava" "class A { }";
              ]
            in
            let round () =
              List.map
                (fun r -> Json.to_string (strip_wall (handle_ok h r)))
                requests
            in
            let first = round () in
            (* interleave unrelated work, then repeat *)
            ignore (handle_ok h (parse_req "A C"));
            ignore
              (handle_ok h
                 (parse_req ~grammar:"MiniJava" ~backend:"generated"
                    "class B { boolean f ( ) { return x ; } }"));
            let second = round () in
            let third = round () in
            List.iteri
              (fun i (a, b) ->
                check string (Printf.sprintf "repeat %d stable" i) a b)
              (List.combine first second);
            List.iteri
              (fun i (a, b) ->
                check string (Printf.sprintf "third repeat %d stable" i) a b)
              (List.combine first third)));
  ]

(* ------------------------------------------------------------------ *)
(* The distilled cross-request bug.  The speculation memo is keyed by
   (rule, precedence, position) only -- NOT by token content -- so parser
   state that outlived a request would let one input's speculation outcome
   decide another's parse.  In the second grammar, after "L^5 A R^5 Q" a
   stale Succeeded entry for the synpred at position 0 would steer
   "L^5 A R^5 P" into the first alternative and reject it.  Every request
   gets fresh state, so every input is accepted, through both ops. *)

let memo_grammars =
  [
    ( "memo1",
      "grammar memo1; options { backtrack=true; memoize=true; } s : (A)=> A \
       B | C D ;",
      [ "A B"; "C D"; "A B"; "C D" ] );
    ( "memo2",
      "grammar memo2; options { backtrack=true; memoize=true; } s : (e Q)=> \
       e Q | e P ; e : L e R | A ;",
      [
        "L L L L L A R R R R R Q";
        "L L L L L A R R R R R P";
        "L L L L L A R R R R R Q";
        "L L L L L A R R R R R P";
      ] );
  ]

let stream_req ?(extra = []) ~grammar text =
  req
    ([
       ("op", Json.str "parse_stream");
       ("grammar", Json.str grammar);
       ("text", Json.str text);
     ]
    @ extra)

(* parse_stream answers exactly like parse but for the echoed op name. *)
let as_parse = function
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "op" then (k, Json.str "parse") else (k, v))
           fields)
  | j -> j

let memo_isolation_tests =
  [
    test "speculation memo does not leak across requests" (fun () ->
        with_handler (fun h ->
            List.iter
              (fun (name, src, inputs) ->
                check bool ("load " ^ name) true
                  (get_ok
                     (handle_ok h
                        (req
                           [
                             ("op", Json.str "load");
                             ("grammar", Json.str name);
                             ("text", Json.str src);
                           ])));
                List.iter
                  (fun text ->
                    check bool
                      (Printf.sprintf "%s parse %S" name text)
                      true
                      (get_ok (handle_ok h (parse_req ~grammar:name text)));
                    check bool
                      (Printf.sprintf "%s parse_stream %S" name text)
                      true
                      (get_ok (handle_ok h (stream_req ~grammar:name text))))
                  inputs)
              memo_grammars));
    test "parse_stream answers byte-identically to parse" (fun () ->
        let limits =
          { Serve.Handler.default_limits with Serve.Handler.max_tokens = 12 }
        in
        with_handler ~limits (fun h ->
            List.iter
              (fun (grammar, backend, text) ->
                let p = handle_ok h (parse_req ~grammar ~backend text) in
                List.iter
                  (fun window ->
                    let s =
                      handle_ok h
                        (stream_req ~grammar text
                           ~extra:
                             [
                               ("backend", Json.str backend);
                               ("window", Json.int window);
                             ])
                    in
                    check string
                      (Printf.sprintf "%s/%s %S at window %d" grammar backend
                         text window)
                      (Json.to_string (strip_wall p))
                      (Json.to_string (strip_wall (as_parse s))))
                  [ 1; 2; 4096 ])
              [
                ("tiny", "interp", "A B");
                ("tiny", "interp", "A A");
                ("tiny", "interp", "A B A");
                ("tiny", "interp", "A !");
                ("tiny", "interp", "A B A B A B A B A B A B A B");
                ("MiniJava", "interp", "class A { int x ; }");
                ("MiniJava", "generated", "class A { int x ; }");
                ("MiniJava", "generated", "class A { int x ; } }");
                ("MiniJava", "generated", "class A { int x ; } $");
              ]));
    test "a huge window costs nothing up front" (fun () ->
        (* an array this large cannot be allocated: the window must be
           sized as tokens arrive *)
        with_handler (fun h ->
            List.iter
              (fun backend ->
                let r =
                  handle_ok h
                    (stream_req ~grammar:"MiniJava" "class A { int x ; }"
                       ~extra:
                         [
                           ("backend", Json.str backend);
                           ("window", Json.int (1 lsl 40));
                         ])
                in
                check bool (backend ^ " accepts") true (get_ok r);
                check bool "consumed" true (get "consumed" r = Json.Int 7))
              [ "interp"; "generated" ]));
  ]

(* ------------------------------------------------------------------ *)
(* Full server lifecycle: concurrent clients over a Unix socket, then a
   graceful shutdown that drains every in-flight request. *)

let with_server (f : string -> unit) : unit =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "antlrkit-test-serve-%d-%d" (Unix.getpid ())
         (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "t.sock" in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let registry = Serve.Registry.create () in
      (match
         Serve.Registry.load_source registry ~pool ~name:"tiny" tiny_src
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let handler = Serve.Handler.create ~registry ~pool () in
      let server =
        Serve.Server.create ~handler
          ~addr:(Serve.Protocol.Unix_sock sock) ()
      in
      let th = Thread.create Serve.Server.run server in
      Fun.protect
        ~finally:(fun () ->
          Serve.Server.stop server;
          Thread.join th;
          if Sys.file_exists sock then Sys.remove sock;
          Sys.rmdir dir)
        (fun () -> f sock))

let server_tests =
  [
    test "concurrent clients, graceful drain, socket cleanup" (fun () ->
        let drained = ref false in
        with_server (fun sock ->
            let per_client = 25 in
            let ok_counts = Array.make 3 0 in
            let client ci =
              match
                Serve.Client.connect_retry (Serve.Protocol.Unix_sock sock)
              with
              | Error e -> Alcotest.fail e
              | Ok c ->
                  for i = 1 to per_client do
                    let text = if i mod 3 = 0 then "A A" else "A B" in
                    let want_ok = i mod 3 <> 0 in
                    match
                      Serve.Client.request c
                        (Json.obj
                           [
                             ("id", Json.int ((ci * 1000) + i));
                             ("op", Json.str "parse");
                             ("grammar", Json.str "tiny");
                             ("text", Json.str text);
                           ])
                    with
                    | Error e -> Alcotest.fail e
                    | Ok resp ->
                        check bool "id echoed" true
                          (get "id" resp = Json.Int ((ci * 1000) + i));
                        if get_ok resp = want_ok then
                          ok_counts.(ci) <- ok_counts.(ci) + 1
                  done;
                  Serve.Client.close c
            in
            let threads = List.init 3 (fun ci -> Thread.create client ci) in
            List.iter Thread.join threads;
            Array.iteri
              (fun ci n ->
                check int (Printf.sprintf "client %d all verdicts" ci)
                  per_client n)
              ok_counts;
            (* graceful shutdown via the protocol *)
            (match
               Serve.Client.connect_retry (Serve.Protocol.Unix_sock sock)
             with
            | Error e -> Alcotest.fail e
            | Ok c ->
                (match
                   Serve.Client.request c
                     (Json.obj [ ("op", Json.str "shutdown") ])
                 with
                | Ok resp -> check bool "shutdown acked" true (get_ok resp)
                | Error e -> Alcotest.fail e);
                Serve.Client.close c);
            drained := true);
        check bool "server thread joined" true !drained);
  ]

let suite =
  [
    ("serve_protocol", protocol_tests);
    ("serve_handler", handler_tests);
    ("serve_telemetry_ops", telemetry_op_tests);
    ("serve_slow_log", slow_log_tests);
    ("serve_metrics_http", metrics_http_tests);
    ("serve_reuse", reuse_tests);
    ("serve_memo_isolation", memo_isolation_tests);
    ("serve_server", server_tests);
  ]
