(* Workload [serve]: an [antlrkit serve --jobs 1] process driven in a
   closed loop over 2 connections from this one client process, like
   editors and linters that each wait for their reply.  The seeded request
   mix covers the six grammars x {interp, generated} x {parse,
   parse_stream}; one program in five is token-mutated, so it is answered
   with a structured error, and a few requests carry a large file.
   Per-request fixed costs -- JSON codec, socket hops, registry lookup,
   pool hand-off, metrics merge -- dominate here and nowhere else.

   Every reply must carry the verdict the other backend gives the same
   text in this process, computed untimed beforehand.  Host calibration
   runs between request batches, with the load paused. *)

module W = Bench_grammars.Workload
module Le = Runtime.Lexer_engine

let connections = 2
let pool_tokens = 20_000 (* per grammar, before the size filter *)

(* Generated programs are bimodal: most of RatsC's are empty, say.  A
   request carries one program of at least this size, so each reply
   answers a file an editor would send, not an empty buffer. *)
let min_request_bytes = 512
let mutate_every = 5

(* File sizes are heavy-tailed.  Each (grammar, backend, op) combination
   gets [per_combo] requests; for the [large_grammars], whose start rule is
   a list of declarations or statements so that programs join into one,
   [large_per_combo] of them carry a large file of at least [large_bytes],
   each of the grammar's [large_docs] files once.  That is 4% of requests,
   so p99 is the time a caller waits for a large file.  Were every file
   small, p99 would be whichever small request the host's scheduler
   happened to stall, and would measure the host, not antlrkit.  The large
   files come from a corpus of their own, [large_pool_tokens] per grammar;
   with six per grammar a seed's p99 does not hang on the content of a
   few. *)
let per_combo = 50
let large_grammars = [ "RatsC"; "MiniSQL" ]
let large_docs = 6
let large_per_combo = 6
let large_bytes = 32_768
let large_pool_tokens = 60_000

(* A batch is the whole mix once, in the same order: a calibrated slice
   whose p99 has 12 samples beyond it.  The metrics are medians over the
   run's batches. *)
let warmup = 256
let min_batches = 5

(* Re-render a program from its token texts with one token dropped,
   duplicated or swapped, until Interp rejects it (20 tries). *)
let mutate rng (g : Docs.grammar) (text : string) : string =
  match Le.tokenize g.config (Llstar.Compiled.sym g.c) text with
  | Error _ -> text
  | Ok toks when Array.length toks < 2 -> text
  | Ok toks ->
      let w = Array.map (fun t -> t.Runtime.Token.text) toks in
      let n = Array.length w in
      let rec attempt k =
        let i = Random.State.int rng n and j = Random.State.int rng n in
        let a =
          match Random.State.int rng 3 with
          | 0 -> Array.init (n - 1) (fun x -> if x < i then w.(x) else w.(x + 1))
          | 1 -> Array.init (n + 1) (fun x -> if x <= i then w.(x) else w.(x - 1))
          | _ ->
              let a = Array.copy w in
              a.(i) <- w.(j);
              a.(j) <- w.(i);
              a
        in
        let t = String.concat " " (Array.to_list a) in
        if k = 0 || not (Docs.accepted (Docs.materialized Docs.Interp g t)) then t
        else attempt (k - 1)
      in
      attempt 20

(* Join [texts] in order into [n] documents of at least [large_bytes],
   keeping each program only if the document with it is still accepted
   (by the generated parser, the faster one; both backends' verdicts on
   the result are checked later); [Failure] if the programs run out. *)
let join_large (g : Docs.grammar) (texts : string list) (n : int) : string list =
  let rec go docs cur texts =
    if List.length docs = n then List.rev docs
    else if String.length cur >= large_bytes then go (cur :: docs) "" texts
    else
      match texts with
      | [] ->
          failwith
            (Printf.sprintf "%s: too few programs for %d documents of %d bytes"
               g.Docs.name n large_bytes)
      | t :: rest ->
          let doc = if cur = "" then t else cur ^ "\n" ^ t in
          if Docs.accepted (Docs.materialized Docs.Gen g doc) then go docs doc rest
          else go docs cur rest
  in
  go [] "" texts

type job = {
  g : Docs.grammar;
  text : string;
  backend : Docs.backend;
  mode : Docs.mode;
  tokens : int;
  mutated : bool;
}

type batch_result = {
  sl : Util.slice;
  replies : (int * float * string) list; (* request, round trip, reply *)
}

(* The request mix, in this process: untimed, or traced (spans around
   every layer call).  Returns calibrated seconds, raw seconds, and the
   minor words and major collections inside the timed slices. *)
let in_process (jobs : job array) : float * float * float * int =
  Spans.span "round" (fun () ->
      let cal = ref 0.0 and raw = ref 0.0 and words = ref 0.0 and major = ref 0 in
      let q = Util.seq () and chunk = 128 in
      let i = ref 0 in
      while !i < Array.length jobs do
        let hi = min (Array.length jobs) (!i + chunk) in
        let (), sl =
          Util.slice q (fun () ->
              for k = !i to hi - 1 do
                let j = jobs.(k) in
                ignore (Docs.parse j.mode j.backend j.g j.text)
              done)
        in
        cal := !cal +. Util.cal sl;
        raw := !raw +. sl.Util.raw_s;
        words := !words +. sl.Util.minor_words;
        major := !major + sl.Util.major;
        i := hi
      done;
      (!cal, !raw, !words, !major))

let run ~(seed : int) ~(seconds : float) ~(trace : bool) : Util.metric list =
  Spans.on := trace;
  (* The client compiles the grammars too: corpora and the in-process
     verdicts need them.  This is not the set-up the metric reports. *)
  let client = Docs.setup (List.map (fun (s : W.spec) -> s.W.grammar_text) Corpus.specs) in
  Spans.on := false;
  let grammars = List.map2 Corpus.grammar Corpus.specs client.compiled in
  Util.phase "client grammars compiled";
  let rng = Random.State.make [| seed; 23 |] in
  let profile = Runtime.Profile.create () in
  (* (grammar, text, mutated, interp and generated verdicts) *)
  let verdicts g what ~mutated text =
    incr Util.attempted;
    let vi = Docs.materialized ~profile Docs.Interp g text in
    let vg = Docs.materialized Docs.Gen g text in
    if not (Docs.agree vi vg) then
      Util.fail_op "%s %s: interp %s, generated %s" g.Docs.name what
        (Docs.describe vi) (Docs.describe vg);
    if (not mutated) && not (Docs.accepted vi) then
      Util.fail_op "%s %s: %s" g.Docs.name what (Docs.describe vi);
    (g, text, mutated, vi, vg)
  in
  (* per grammar: its small programs, and its large documents *)
  let pools, larges =
    Array.split
      (Array.of_list
         (List.mapi
            (fun gi ((spec, c), g) ->
              let texts =
                List.filter
                  (fun t -> String.length t >= min_request_bytes)
                  (Array.to_list
                     (Corpus.programs ~seed ~target_tokens:pool_tokens gi spec c))
              in
              ( Array.of_list
                  (List.mapi
                     (fun i text ->
                       let mutated = i mod mutate_every = mutate_every - 1 in
                       verdicts g (Printf.sprintf "program %d" i) ~mutated
                         (if mutated then mutate rng g text else text))
                     texts),
                if not (List.mem g.Docs.name large_grammars) then [||]
                else
                  Array.of_list
                    (List.mapi
                       (fun i text ->
                         verdicts g (Printf.sprintf "large document %d" i)
                           ~mutated:false text)
                       (join_large g
                          (Array.to_list
                             (Corpus.programs ~seed ~target_tokens:large_pool_tokens
                                (gi + 8) spec c))
                          large_docs)) ))
            (List.combine (List.combine Corpus.specs client.compiled) grammars)))
  in
  Util.phase "programs and large files built";
  (* Every (grammar, backend, op) combination gets the same share of the
     mix, whatever the seed; the seed picks the programs and the order. *)
  let combos = Array.length pools * 4 in
  let n_requests = combos * per_combo in
  let order = Array.init n_requests Fun.id in
  for i = n_requests - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let reqs, jobs =
    Array.split
      (Array.init n_requests (fun id ->
           let combo = order.(id) mod combos and slot = order.(id) / combos in
           let gi = combo mod Array.length pools in
           let g, text, mutated, vi, vg =
             if slot < large_per_combo && Array.length larges.(gi) > 0 then
               larges.(gi).(slot mod large_docs)
             else pools.(gi).(Random.State.int rng (Array.length pools.(gi)))
           in
           let backend =
             if combo / Array.length pools mod 2 = 0 then Docs.Gen else Docs.Interp
           in
           let stream = combo / (2 * Array.length pools) = 1 in
           let other = match backend with Docs.Gen -> vi | Docs.Interp -> vg in
           let tokens = match vi with Docs.Parsed (_, n) -> n | _ -> 0 in
           ( Serve.request ~id
               ~op:(if stream then "parse_stream" else "parse")
               ~grammar:g.Docs.name ~backend
               ~expect:(Serve.expect_of_verdict other) text,
             {
               g;
               text;
               backend;
               mode = (if stream then Docs.Streaming else Docs.Materialized);
               tokens;
               mutated;
             } )))
  in
  (* Set-up: the daemon's cold start, up to its first answer. *)
  let reps = if trace then 1 else 3 in
  let q = Util.seq ~runs:3 () in
  let setups, daemon =
    let rec go k acc =
      let d, sl = Util.slice q (fun () -> fst (Serve.start [])) in
      if k = reps then (sl :: acc, d)
      else begin
        Serve.stop d;
        go (k + 1) (sl :: acc)
      end
    in
    go 1 []
  in
  Util.phase "%d daemon set-ups" reps;
  let conns = Array.init connections (fun _ -> Serve.connect daemon.Serve.sock) in
  ignore
    (Serve.check_replies reqs
       (Serve.closed_loop conns reqs ~start:0 ~count:warmup));
  let stats () = Serve.call conns.(0) (Serve.op "stats") in
  let before = stats () in
  (* seven kernel runs between batches: a batch's factor scales every one
     of its round trips, so a noisy kernel sample would move them all *)
  let q = Util.seq ~runs:7 () in
  let t_end = Util.now () +. seconds in
  let rec loop k acc =
    if Util.now () >= t_end && k >= min_batches then List.rev acc
    else
      let replies, sl =
        Util.slice q (fun () ->
            Serve.closed_loop conns reqs ~start:0 ~count:n_requests)
      in
      loop (k + 1) ({ sl; replies } :: acc)
  in
  let batches = loop 0 [] in
  Util.phase "%d batches" (List.length batches);
  let after = stats () in
  let peak = Util.vm_hwm_mb daemon.Serve.pid in
  Array.iter Serve.close conns;
  Serve.stop daemon;
  let protocol =
    List.concat_map (fun b -> Serve.check_replies reqs b.replies) batches
  in
  let samples = List.fold_left (fun n b -> n + List.length b.replies) 0 batches in
  Printf.eprintf "perfbench: serve: %d timed requests in %d batches\n%!" samples
    (List.length batches);
  let e2e ~cal : Report.e2e =
    let scale (sl : Util.slice) = if cal then Util.factor sl else 1.0 in
    let med f = Util.median (Array.of_list (List.map f batches)) in
    let lat q b =
      Util.quantile
        (Array.of_list (List.map (fun (_, rtt, _) -> rtt *. scale b.sl) b.replies))
        q
    in
    let bytes_per_s backend b =
      let bytes, secs =
        List.fold_left
          (fun (by, s) (k, rtt, _) ->
            if reqs.(k).Serve.backend = backend then
              (by +. float_of_int reqs.(k).Serve.bytes, s +. (rtt *. scale b.sl))
            else (by, s))
          (0.0, 0.0) b.replies
      in
      bytes /. secs
    in
    {
      Report.setup_s =
        Util.median
          (Array.of_list
             (List.map
                (fun sl -> if cal then Util.cal sl else sl.Util.raw_s)
                setups));
      peak_rss_mb = peak;
      gen_bytes_per_s = med (bytes_per_s Docs.Gen);
      interp_bytes_per_s = med (bytes_per_s Docs.Interp);
      req_per_s =
        med (fun b ->
            float_of_int (List.length b.replies) /. (b.sl.Util.raw_s *. scale b.sl));
      p50_ms = 1000.0 *. med (lat 0.5);
      p99_ms = 1000.0 *. med (lat 0.99);
    }
  in
  if not trace then begin
    let raw = e2e ~cal:false in
    Report.log_raw raw;
    Report.e2e_metrics (e2e ~cal:true)
  end
  else begin
    (* Per-layer split of the same request mix, in this process:
       untraced and traced passes alternate, three of each. *)
    let first = Spans.count () in
    let passes =
      List.init 3 (fun _ ->
          let pulls0 = !Docs.pulls in
          let untraced = in_process jobs in
          let pulls = !Docs.pulls - pulls0 in
          Spans.on := true;
          let traced = in_process jobs in
          Spans.on := false;
          (untraced, traced, pulls))
    in
    let last = Spans.count () in
    let tot = Spans.totals ~first ~last in
    let med f = Util.median (Array.of_list (List.map f passes)) in
    let cal (c, _, _, _) = c and raw (_, r, _, _) = r in
    let untraced_cal = med (fun (u, _, _) -> cal u)
    and traced_cal = med (fun (_, t, _) -> cal t) in
    let (_, _, words, major), _, pulls = List.hd passes in
    let f =
      List.fold_left (fun a (_, t, _) -> a +. cal t) 0.0 passes
      /. List.fold_left (fun a (_, t, _) -> a +. raw t) 0.0 passes
    in
    let layer name work : Report.layer =
      match Hashtbl.find_opt tot name with
      | None -> { Report.no_layer with work }
      | Some x ->
          { Report.busy_s = x.Spans.self_s *. f /. 3.0; work; words = x.Spans.self_words /. 3.0 }
    in
    let sumj p = Array.fold_left (fun n j -> if p j then n + j.tokens else n) 0 jobs in
    let bytes = Array.fold_left (fun n j -> n + String.length j.text) 0 jobs in
    let glue = match Hashtbl.find_opt tot "round" with Some x -> x.Spans.self_s | None -> 0.0 in
    let total = Hashtbl.fold (fun _ (x : Spans.totals) a -> a +. x.self_s) tot 0.0 in
    let mutated = Array.fold_left (fun n j -> if j.mutated then n + 1 else n) 0 jobs in
    Report.layer_metrics
      {
        Report.lexer = layer "lexer_engine" (float_of_int bytes);
        gen = layer "generated" (float_of_int (sumj (fun j -> j.backend = Docs.Gen)));
        interp = layer "interp" (float_of_int (sumj (fun j -> j.backend = Docs.Interp)));
        profile;
        peak_live = !Docs.peak_live;
        pulls;
        parse_s = client.parse_cal_s;
        analysis_s = client.analysis_cal_s;
        dfa_states = List.fold_left (fun n c -> n + Docs.dfa_states c) 0 client.compiled;
        decisions =
          List.fold_left (fun n c -> n + Llstar.Compiled.num_decisions c) 0 client.compiled;
        serve = Serve.serve_layers ~before ~after (Array.of_list protocol);
        minor_words_per_byte = words /. float_of_int bytes;
        major_collections = float_of_int major;
        raw = e2e ~cal:false;
        overhead = (traced_cal /. untraced_cal) -. 1.0;
        attributed_share = 1.0 -. (glue /. total);
        spans = last - first;
        input_bytes = bytes;
        input_tokens = sumj (fun _ -> true);
        programs = Array.fold_left (fun n p -> n + Array.length p) 0 pools;
        mutated_share = float_of_int mutated /. float_of_int n_requests;
        samples;
      }
  end
