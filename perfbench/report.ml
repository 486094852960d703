(* The metric sets every workload reports, by name and unit.  BENCHMARK.json
   lists the same names; run.py refuses a result whose names differ. *)

type e2e = {
  setup_s : float;
  peak_rss_mb : float;
  gen_bytes_per_s : float;
  interp_bytes_per_s : float;
  req_per_s : float;
  p50_ms : float;
  p99_ms : float;
}

(* The uncalibrated figures, on stderr. *)
let log_raw (e : e2e) : unit =
  Util.phase
    "raw: setup %.3f s, gen %.0f B/s, interp %.0f B/s, %.1f req/s, p50 %.3f \
     ms, p99 %.3f ms"
    e.setup_s e.gen_bytes_per_s e.interp_bytes_per_s e.req_per_s e.p50_ms
    e.p99_ms

let e2e_metrics (e : e2e) : Util.metric list =
  let m = Util.m in
  [
    m "setup_s" "s" e.setup_s;
    m "peak_rss_mb" "MB" e.peak_rss_mb;
    m "gen_bytes_per_s" "B/s" e.gen_bytes_per_s;
    m "interp_bytes_per_s" "B/s" e.interp_bytes_per_s;
    m "req_per_s" "1/s" e.req_per_s;
    m "p50_ms" "ms" e.p50_ms;
    m "p99_ms" "ms" e.p99_ms;
  ]

(* Busy seconds per pass over the workload, the work the pass did in
   that layer, and the minor words it allocated there. *)
type layer = { busy_s : float; work : float; words : float }

let no_layer = { busy_s = 0.0; work = 0.0; words = 0.0 }
let per a b = if b > 0.0 then a /. b else 0.0

type serve_layers = {
  request_us : float * float; (* p50, p99 *)
  queue_us : float * float;
  parse_us : float * float;
  protocol_us : float * float;
}

type layers = {
  lexer : layer; (* work: bytes lexed *)
  gen : layer; (* work: tokens parsed *)
  interp : layer;
  profile : Runtime.Profile.t;
  peak_live : int;
  pulls : int; (* per pass *)
  parse_s : float;
  analysis_s : float;
  dfa_states : int;
  decisions : int;
  serve : serve_layers;
  minor_words_per_byte : float;
  major_collections : float; (* per pass *)
  raw : e2e;
  overhead : float;
  attributed_share : float;
  spans : int;
  input_bytes : int;
  input_tokens : int;
  programs : int;
  mutated_share : float;
  samples : int;
}

let layer_metrics (l : layers) : Util.metric list =
  let m = Util.m in
  let f = float_of_int in
  let parse_busy = l.lexer.busy_s +. l.gen.busy_s +. l.interp.busy_s in
  let q name (p50, p99) =
    [ m (name ^ "_p50") "us" p50; m (name ^ "_p99") "us" p99 ]
  in
  [
    m "lexer_engine.busy_s" "s" l.lexer.busy_s;
    m "lexer_engine.bytes_per_s" "B/s" (per l.lexer.work l.lexer.busy_s);
    m "lexer_engine.alloc_words_per_byte" "words/B" (per l.lexer.words l.lexer.work);
    m "lexer_engine.share" "ratio" (per l.lexer.busy_s parse_busy);
    m "generated.busy_s" "s" l.gen.busy_s;
    m "generated.tokens_per_s" "tok/s" (per l.gen.work l.gen.busy_s);
    m "generated.alloc_words_per_token" "words/tok" (per l.gen.words l.gen.work);
    m "interp.busy_s" "s" l.interp.busy_s;
    m "interp.tokens_per_s" "tok/s" (per l.interp.work l.interp.busy_s);
    m "interp.alloc_words_per_token" "words/tok" (per l.interp.words l.interp.work);
    m "profile.decision_events" "count" (f (Runtime.Profile.events l.profile));
    m "profile.backtrack_events" "count" (f (Runtime.Profile.back_events l.profile));
    m "profile.spec_tokens" "count"
      (f (Obs.Metrics.h_sum l.profile.Runtime.Profile.spec));
    m "profile.avg_dfa_k" "tokens" (Runtime.Profile.avg_dfa_k l.profile);
    m "token_stream.peak_live" "tokens" (f l.peak_live);
    m "token_stream.pulls" "count" (f l.pulls);
    m "compiled.parse_s" "s" l.parse_s;
    m "compiled.analysis_s" "s" l.analysis_s;
    m "compiled.dfa_states" "count" (f l.dfa_states);
    m "compiled.decisions" "count" (f l.decisions);
  ]
  @ q "serve.request_us" l.serve.request_us
  @ q "serve.queue_us" l.serve.queue_us
  @ q "serve.parse_us" l.serve.parse_us
  @ q "serve.protocol_us" l.serve.protocol_us
  @ [
      m "gc.minor_words_per_byte" "words/B" l.minor_words_per_byte;
      m "gc.major_collections" "count" l.major_collections;
      m "calib.kernel_s" "s" (Util.median (Array.of_list !Util.kernel_samples));
    ]
  @ List.map
      (fun (x : Util.metric) -> { x with Util.name = "raw." ^ x.Util.name })
      (List.filter
         (fun (x : Util.metric) -> x.Util.name <> "peak_rss_mb")
         (e2e_metrics l.raw))
  @ [
      m "trace.overhead" "ratio" l.overhead;
      m "trace.attributed_share" "ratio" l.attributed_share;
      m "trace.spans" "count" (f l.spans);
      m "input.bytes" "B" (f l.input_bytes);
      m "input.tokens" "tokens" (f l.input_tokens);
      m "input.programs" "count" (f l.programs);
      m "input.mutated_share" "ratio" l.mutated_share;
      m "latency.samples" "count" (f l.samples);
    ]
