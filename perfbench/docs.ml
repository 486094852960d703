(* Raw bytes to verdict, through antlrkit's public entry points: grammar
   compilation ([Grammar.Meta_parser], [Llstar.Compiled]), lexing
   ([Lexer_engine]), token windows ([Token_stream]) and the two parser
   backends ([Interp] through [Runtime.Generated.interp_outcome], and the
   emitted parsers).  Every call into a layer is wrapped in a span. *)

module Le = Runtime.Lexer_engine
module Ts = Runtime.Token_stream
module G = Runtime.Generated

type backend = Gen | Interp

let backend_name = function Gen -> "generated" | Interp -> "interp"

type grammar = {
  name : string;
  c : Llstar.Compiled.t;
  config : Le.config;
  env : Runtime.Interp.env;
  parser : (module G.PARSER);
}

(* The window serve uses for parse_stream. *)
let window = 4096

(* ------------------------------------------------------------------ *)
(* Compilation: what a user pays before the first parse. *)

type compiled = { c : Llstar.Compiled.t; parse_s : float; analysis_s : float }

let compile (text : string) : compiled =
  let t0 = Util.now () in
  let ast =
    Spans.span "compiled.parse" (fun () ->
        Grammar.Meta_parser.parse_result text)
  in
  let t1 = Util.now () in
  match ast with
  | Error msg -> failwith ("grammar does not parse: " ^ msg)
  | Ok ast -> (
      match
        Spans.span "compiled.analysis" (fun () ->
            Llstar.Compiled.compile ~grammar_source:text ast)
      with
      | Error e -> failwith (Fmt.str "%a" Llstar.Compiled.pp_error e)
      | Ok c -> { c; parse_s = t1 -. t0; analysis_s = Util.now () -. t1 })

(* One cold set-up: every grammar compiled in its own calibrated slice. *)
type setup = {
  compiled : Llstar.Compiled.t list;
  setup_cal_s : float;
  setup_raw_s : float;
  parse_cal_s : float;
  analysis_cal_s : float;
}

let setup (texts : string list) : setup =
  let q = Util.seq ~runs:3 () in
  List.fold_left
    (fun acc text ->
      let r, sl = Util.slice q (fun () -> compile text) in
      let f = Util.factor sl in
      {
        compiled = acc.compiled @ [ r.c ];
        setup_cal_s = acc.setup_cal_s +. Util.cal sl;
        setup_raw_s = acc.setup_raw_s +. sl.Util.raw_s;
        parse_cal_s = acc.parse_cal_s +. (r.parse_s *. f);
        analysis_cal_s = acc.analysis_cal_s +. (r.analysis_s *. f);
      })
    {
      compiled = [];
      setup_cal_s = 0.0;
      setup_raw_s = 0.0;
      parse_cal_s = 0.0;
      analysis_cal_s = 0.0;
    }
    texts

let dfa_states (c : Llstar.Compiled.t) : int =
  let n = ref 0 in
  for d = 0 to Llstar.Compiled.num_decisions c - 1 do
    n := !n + (Llstar.Compiled.dfa c d).Llstar.Look_dfa.nstates
  done;
  !n

(* An emitted parser only works on the vocabulary it was emitted against. *)
let make_grammar ~name ~config ~env (c : Llstar.Compiled.t)
    (parser : (module G.PARSER)) : grammar =
  let module P = (val parser) in
  let sym = Llstar.Compiled.sym c in
  Array.iteri
    (fun i tname ->
      if i >= 2 && Grammar.Sym.term_name sym i <> tname then
        failwith
          (Printf.sprintf "%s: generated parser token %d is %s, grammar has %s"
             name i tname (Grammar.Sym.term_name sym i)))
    P.token_names;
  { name; c; config; env; parser }

(* ------------------------------------------------------------------ *)
(* Parsing one document *)

type verdict = Lex_failed of Le.error | Parsed of G.outcome * int (* tokens *)

let agree a b =
  match (a, b) with
  | Lex_failed x, Lex_failed y -> x.Le.line = y.Le.line && x.Le.col = y.Le.col
  | Parsed (x, n), Parsed (y, m) -> n = m && G.agree x y
  | Lex_failed _, Parsed _ | Parsed _, Lex_failed _ -> false

let accepted = function
  | Parsed (o, n) -> o.G.ok && o.G.consumed = n
  | Lex_failed _ -> false

let describe = function
  | Lex_failed e -> Printf.sprintf "lex-error@%d:%d" e.Le.line e.Le.col
  | Parsed (o, n) -> Printf.sprintf "%s of %d tokens" (G.describe o) n

(* Streaming counters: chunk pulls, and the most tokens a window held. *)
let pulls = ref 0
let peak_live = ref 0

let parse_tokens ?profile backend (g : grammar) toks =
  let module P = (val g.parser) in
  Spans.span (backend_name backend) (fun () ->
      match backend with
      | Gen -> P.outcome ~env:g.env ?profile toks
      | Interp -> G.interp_outcome ~env:g.env ?profile g.c toks)

let materialized ?profile backend (g : grammar) (text : string) : verdict =
  match
    Spans.span "lexer_engine" (fun () ->
        Le.tokenize g.config (Llstar.Compiled.sym g.c) text)
  with
  | Error e -> Lex_failed e
  | Ok toks ->
      (* a materialized stream pins every token *)
      if Array.length toks > !peak_live then peak_live := Array.length toks;
      Parsed (parse_tokens ?profile backend g toks, Array.length toks)

(* The scanner feeds a sliding window; lexer spans nest inside the parse
   span, around each pull.  Draining afterwards gives the materialized
   path's verdict when a lex error lies past the parse's stopping point. *)
let streaming ?profile backend (g : grammar) (text : string) : verdict =
  let module P = (val g.parser) in
  let ls =
    Le.stream g.config (Llstar.Compiled.sym g.c) (Le.reader_of_string text)
  in
  let pull = Le.pull ls in
  let ts =
    Ts.of_pull ~window (fun () ->
        incr pulls;
        Spans.span "lexer_engine" pull)
  in
  match
    Spans.span (backend_name backend) (fun () ->
        match backend with
        | Gen -> P.outcome_stream ~env:g.env ?profile ts
        | Interp -> G.interp_outcome_stream ~env:g.env ?profile g.c ts)
  with
  | exception Le.Lex_error e -> Lex_failed e
  | o -> (
      if Ts.peak_live ts > !peak_live then peak_live := Ts.peak_live ts;
      match Spans.span "lexer_engine" (fun () -> Le.drain ls) with
      | Error e -> Lex_failed e
      | Ok _ -> Parsed (o, Le.produced ls))

type mode = Materialized | Streaming

let parse ?profile mode =
  match mode with
  | Materialized -> materialized ?profile
  | Streaming -> streaming ?profile

(* ------------------------------------------------------------------ *)
(* Workloads made of document groups, timed in rounds.  A group is one
   grammar's documents under one mode; each backend's pass over all
   groups is one calibrated slice.  A group's consecutive documents are
   batched into [requests_per_group] requests of about equal token
   counts, the way one [antlrkit parse FILES..] call takes many files: a
   request's latency is what its caller waits for.  The count is fixed
   so that a seed's corpus size cannot move [req_per_s]. *)

let requests_per_group = 8

type group = {
  g : grammar;
  docs : string array;
  mode : mode;
  doc_tokens : int array;
  requests : (int * int) array; (* document ranges [lo, hi) *)
  bytes : int;
  tokens : int;
}

(* Cut after the first document that takes the running token count to
   the next multiple of total / k. *)
let batch (doc_tokens : int array) : (int * int) array =
  let k = min requests_per_group (Array.length doc_tokens) in
  let total = Array.fold_left ( + ) 0 doc_tokens in
  let out = ref [] and lo = ref 0 and acc = ref 0 in
  Array.iteri
    (fun i n ->
      acc := !acc + n;
      let cuts = List.length !out in
      if i = Array.length doc_tokens - 1
         || (cuts < k - 1 && !acc * k >= (cuts + 1) * total)
      then begin
        out := (!lo, i + 1) :: !out;
        lo := i + 1
      end)
    doc_tokens;
  Array.of_list (List.rev !out)

let make_group g mode docs =
  (* counted without materializing, which would set the peak RSS *)
  let doc_tokens =
    Array.map
      (fun text ->
        match
          Le.drain
            (Le.stream g.config (Llstar.Compiled.sym g.c)
               (Le.reader_of_string text))
        with
        | Ok n -> n
        | Error e ->
            failwith (g.name ^ ": input does not lex: " ^ describe (Lex_failed e)))
      docs
  in
  {
    g;
    docs;
    mode;
    doc_tokens;
    requests = batch doc_tokens;
    bytes = Array.fold_left (fun n d -> n + String.length d) 0 docs;
    tokens = Array.fold_left ( + ) 0 doc_tokens;
  }

(* The untimed first pass, which is also the warm-up: every document
   through both backends must be accepted with consumed = token count,
   and the backends must agree.  [profile] collects the Interp backend's
   decision counts.  The documents of [samples] are also parsed in the
   other mode (materialized for a streaming group), which must give the
   same verdicts. *)
let verify ~(profile : Runtime.Profile.t) ~(samples : group list)
    (groups : group list) : unit =
  List.iter
    (fun gr ->
      Array.iteri
        (fun i text ->
          incr Util.attempted;
          let vi = parse ~profile gr.mode Interp gr.g text in
          let vg = parse gr.mode Gen gr.g text in
          if not (accepted vi && agree vi vg) then
            Util.fail_op "%s doc %d: interp %s, generated %s" gr.g.name i
              (describe vi) (describe vg))
        gr.docs)
    groups;
  List.iter
    (fun gr ->
      let other = match gr.mode with Materialized -> Streaming | Streaming -> Materialized in
      Array.iteri
        (fun i text ->
          incr Util.attempted;
          let v = parse gr.mode Interp gr.g text in
          List.iter
            (fun b ->
              let w = parse other b gr.g text in
              if not (accepted v && agree v w) then
                Util.fail_op "%s sample %d: %s in the other mode, %s in its own"
                  gr.g.name i (describe w) (describe v))
            [ Gen; Interp ])
        gr.docs)
    samples

type round = {
  gen_cal : float;
  gen_raw : float;
  interp_cal : float;
  interp_raw : float;
  lat_cal : float list; (* per request, seconds *)
  lat_raw : float list;
  minor_words : float;
  major : int;
}

(* One round: every request of every group, once per backend, with one
   calibrated slice per (backend, group). *)
let run_round ~(gen_first : bool) (groups : group list) : round =
  Spans.span "round" (fun () ->
      let q = Util.seq () in
      let order = if gen_first then [ Gen; Interp ] else [ Interp; Gen ] in
      let pass backend r gr =
        let lats, sl =
          Util.slice q (fun () ->
              Array.fold_left
                (fun lats (lo, hi) ->
                  let t0 = Util.now () in
                  for i = lo to hi - 1 do
                    let v = parse gr.mode backend gr.g gr.docs.(i) in
                    incr Util.attempted;
                    if not (accepted v) then
                      Util.fail_op "%s doc %d under %s: %s" gr.g.name i
                        (backend_name backend) (describe v)
                  done;
                  (Util.now () -. t0) :: lats)
                [] gr.requests)
        in
        let f = Util.factor sl and cal = Util.cal sl and raw = sl.Util.raw_s in
        let gen = backend = Gen in
        {
          gen_cal = (if gen then r.gen_cal +. cal else r.gen_cal);
          gen_raw = (if gen then r.gen_raw +. raw else r.gen_raw);
          interp_cal = (if gen then r.interp_cal else r.interp_cal +. cal);
          interp_raw = (if gen then r.interp_raw else r.interp_raw +. raw);
          lat_cal = List.rev_append (List.map (fun l -> l *. f) lats) r.lat_cal;
          lat_raw = List.rev_append lats r.lat_raw;
          minor_words = r.minor_words +. sl.Util.minor_words;
          major = r.major + sl.Util.major;
        }
      in
      List.fold_left
        (fun r backend -> List.fold_left (pass backend) r groups)
        {
          gen_cal = 0.0;
          gen_raw = 0.0;
          interp_cal = 0.0;
          interp_raw = 0.0;
          lat_cal = [];
          lat_raw = [];
          minor_words = 0.0;
          major = 0;
        }
        order)
