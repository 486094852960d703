(* The timed phase shared by the in-process workloads (corpus and
   speculate): cold set-ups, the verification and warm-up pass, then
   rounds until the run's seconds are spent.  A round parses every
   document once per backend.

   An untraced run reports the end-to-end metrics from all its rounds.  A
   traced run alternates untraced and traced rounds: the untraced ones
   give the [raw.*] metrics and the baseline for the tracing overhead,
   the traced ones the per-layer self times. *)

type t = {
  setup_texts : string list; (* grammars compiled by one cold set-up *)
  setup_reps : int;
  groups : Llstar.Compiled.t list -> Docs.group list;
  samples : Llstar.Compiled.t list -> Docs.group list;
      (* documents also checked in the other mode, untimed *)
  probe : Docs.group list -> Report.serve_layers;
}

let min_rounds = 4

type timed = {
  traced : bool;
  r : Docs.round;
  first : int; (* its spans: [first, last) *)
  last : int;
  pulls : int;
}

(* Bytes, tokens, documents and requests in one backend's pass. *)
type size = { bytes : int; tokens : int; docs : int; reqs : int }

let size (groups : Docs.group list) : size =
  List.fold_left
    (fun s (gr : Docs.group) ->
      {
        bytes = s.bytes + gr.bytes;
        tokens = s.tokens + gr.tokens;
        docs = s.docs + Array.length gr.docs;
        reqs = s.reqs + Array.length gr.requests;
      })
    { bytes = 0; tokens = 0; docs = 0; reqs = 0 }
    groups

let e2e ~(cal : bool) (setups : Docs.setup list) (rs : Docs.round list)
    ~(sz : size) ~(peak : float) : Report.e2e =
  let gen (r : Docs.round) = if cal then r.gen_cal else r.gen_raw
  and interp (r : Docs.round) = if cal then r.interp_cal else r.interp_raw in
  let med f = Util.median (Array.of_list (List.map f rs)) in
  (* A round's latency quantiles, median over rounds: one hiccup inside a
     slice, which its calibration cannot see, moves one round only. *)
  let lats (r : Docs.round) = Array.of_list (if cal then r.lat_cal else r.lat_raw) in
  {
    Report.setup_s =
      Util.median
        (Array.of_list
           (List.map
              (fun (s : Docs.setup) ->
                if cal then s.setup_cal_s else s.setup_raw_s)
              setups));
    peak_rss_mb = peak;
    gen_bytes_per_s = med (fun r -> float_of_int sz.bytes /. gen r);
    interp_bytes_per_s = med (fun r -> float_of_int sz.bytes /. interp r);
    req_per_s = med (fun r -> float_of_int (2 * sz.reqs) /. (gen r +. interp r));
    p50_ms = 1000.0 *. med (fun r -> Util.quantile (lats r) 0.5);
    p99_ms = 1000.0 *. med (fun r -> Util.quantile (lats r) 0.99);
  }

(* Per-layer self time and allocation over the traced rounds, per round,
   each round's time rescaled by its calibration factor. *)
let layer (traced : timed list) (name : string) ~(work : float) : Report.layer =
  let n = float_of_int (List.length traced) in
  List.fold_left
    (fun (acc : Report.layer) t ->
      let tot = Spans.totals ~first:t.first ~last:t.last in
      match Hashtbl.find_opt tot name with
      | None -> acc
      | Some x ->
          let f =
            (t.r.gen_cal +. t.r.interp_cal) /. (t.r.gen_raw +. t.r.interp_raw)
          in
          {
            acc with
            busy_s = acc.busy_s +. (x.Spans.self_s *. f /. n);
            words = acc.words +. (x.Spans.self_words /. n);
          })
    { Report.no_layer with work } traced

(* Share of the traced rounds' wall time that falls in a named layer
   rather than in the rounds' own loop code. *)
let attributed_share (traced : timed list) : float =
  let glue, total =
    List.fold_left
      (fun (g, tot) t ->
        let tbl = Spans.totals ~first:t.first ~last:t.last in
        Hashtbl.fold
          (fun name (x : Spans.totals) (g, tot) ->
            ((if name = "round" then g +. x.self_s else g), tot +. x.self_s))
          tbl (g, tot))
      (0.0, 0.0) traced
  in
  1.0 -. (glue /. total)

let run ~(seconds : float) ~(trace : bool) (w : t) : Util.metric list =
  Spans.on := trace;
  (* Only the last set-up's grammars are kept, so the peak RSS holds one
     compiled set, as a user's process does. *)
  let reps = if trace then 1 else w.setup_reps in
  let earlier =
    List.init (reps - 1) (fun _ ->
        { (Docs.setup w.setup_texts) with compiled = [] })
  in
  let last = Docs.setup w.setup_texts in
  let setups = earlier @ [ last ] in
  Util.phase "%d cold set-ups: median %.3f s at nominal speed"
    (List.length setups)
    (Util.median (Array.of_list (List.map (fun (s : Docs.setup) -> s.setup_cal_s) setups)));
  let groups = w.groups last.compiled in
  let sz = size groups in
  List.iter
    (fun (gr : Docs.group) ->
      let sizes = Array.map (fun d -> float_of_int (String.length d)) gr.docs in
      Printf.eprintf
        "perfbench: input %s: %d documents in %d requests, %d bytes, %d tokens \
         (median %.0f B, max %.0f B)\n%!"
        gr.g.name (Array.length gr.docs) (Array.length gr.requests) gr.bytes
        gr.tokens (Util.median sizes)
        (Util.quantile sizes 1.0))
    groups;
  Spans.on := false;
  let profile = Runtime.Profile.create () in
  Util.phase "inputs built";
  Docs.verify ~profile ~samples:(w.samples last.compiled) groups;
  Util.phase "verified";
  (* the timed rounds' window peak, not the verification's sample *)
  Docs.peak_live := 0;
  let t_end = Util.now () +. seconds in
  let rec loop i acc =
    if Util.now () >= t_end && i >= min_rounds then List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      Spans.on := traced;
      let first = Spans.count () and pulls0 = !Docs.pulls in
      let r = Docs.run_round ~gen_first:(i / 2 mod 2 = 0) groups in
      Spans.on := false;
      loop (i + 1)
        ({ traced; r; first; last = Spans.count (); pulls = !Docs.pulls - pulls0 }
        :: acc)
    end
  in
  let rounds = loop 0 [] in
  Util.phase "%d rounds" (List.length rounds);
  let untraced = List.filter (fun t -> not t.traced) rounds in
  let rs = List.map (fun t -> t.r) untraced in
  let peak = Util.vm_hwm_mb (Unix.getpid ()) in
  if not trace then begin
    let raw = e2e ~cal:false setups rs ~sz ~peak in
    Report.log_raw raw;
    Report.e2e_metrics (e2e ~cal:true setups rs ~sz ~peak)
  end
  else begin
    let traced = List.filter (fun t -> t.traced) rounds in
    let round_s t = t.r.Docs.gen_cal +. t.r.Docs.interp_cal in
    let med l = Util.median (Array.of_list (List.map round_s l)) in
    let share = attributed_share traced in
    if share < 0.9 || share > 1.1 then
      Util.fail_op "layer self times cover %.1f%% of traced wall time"
        (100.0 *. share);
    let bytes = float_of_int sz.bytes and tokens = float_of_int sz.tokens in
    let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rs in
    let nr = float_of_int (List.length rs) in
    Report.layer_metrics
      {
        Report.lexer = layer traced "lexer_engine" ~work:(2.0 *. bytes);
        gen = layer traced "generated" ~work:tokens;
        interp = layer traced "interp" ~work:tokens;
        profile;
        peak_live = !Docs.peak_live;
        pulls = (List.hd untraced).pulls;
        parse_s = last.parse_cal_s;
        analysis_s = last.analysis_cal_s;
        dfa_states =
          List.fold_left (fun n c -> n + Docs.dfa_states c) 0 last.compiled;
        decisions =
          List.fold_left
            (fun n c -> n + Llstar.Compiled.num_decisions c)
            0 last.compiled;
        serve = w.probe groups;
        minor_words_per_byte =
          sum (fun r -> r.Docs.minor_words) /. (2.0 *. bytes *. nr);
        major_collections = sum (fun r -> float_of_int r.Docs.major) /. nr;
        raw = e2e ~cal:false setups rs ~sz ~peak;
        overhead = (med traced /. med untraced) -. 1.0;
        attributed_share = share;
        spans = List.fold_left (fun n t -> n + t.last - t.first) 0 traced;
        input_bytes = sz.bytes;
        input_tokens = sz.tokens;
        programs = sz.docs;
        mutated_share = 0.0;
        samples = List.fold_left (fun n r -> n + List.length r.Docs.lat_raw) 0 rs;
      }
  end
