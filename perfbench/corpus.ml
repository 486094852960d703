(* Workload [corpus]: [antlrkit parse FILES..] traffic.  The six paper
   grammars' seeded corpora ([Workload.build_corpus], which keeps only
   programs Interp accepts), lexed and parsed materialized through both
   backends.  Many small-to-medium files, so per-file fixed costs count;
   the lexer is most of the generated backend's time here. *)

module W = Bench_grammars.Workload

let specs : W.spec list =
  [
    Bench_grammars.Mini_java.spec;
    Bench_grammars.Rats_c.spec;
    Bench_grammars.Rats_java.spec;
    Bench_grammars.Mini_vb.spec;
    Bench_grammars.Mini_sql.spec;
    Bench_grammars.Mini_csharp.spec;
  ]

let target_tokens = 20_000

(* One bench grammar, with the committed generated parser for it. *)
let grammar (spec : W.spec) (c : Llstar.Compiled.t) : Docs.grammar =
  match Gen.Registry.find spec.W.name with
  | None -> failwith ("no generated parser for " ^ spec.W.name)
  | Some parser ->
      Docs.make_grammar ~name:spec.W.name ~config:spec.W.lexer_config
        ~env:(W.env_of_spec spec) c parser

(* [seed]'s corpus for one grammar: the distinct programs Interp accepts.
   [build_corpus] emits some programs many times -- RatsC's empty program
   hundreds of times, a number that swings with the seed -- and a corpus
   of files has each once. *)
let programs ~seed ~target_tokens i (spec : W.spec) (c : Llstar.Compiled.t) :
    string array =
  let cw =
    { W.spec; c; gen = Grammar.Sentence_gen.prepare c.Llstar.Compiled.surface }
  in
  let seen = Hashtbl.create 256 in
  (W.build_corpus ~seed:((seed * 16) + i) cw ~target_tokens).W.texts
  |> List.filter (fun t ->
         (not (Hashtbl.mem seen t))
         &&
         (Hashtbl.add seen t ();
          true))
  |> Array.of_list

(* Each document once, backends alternating, as serve [parse] requests. *)
let probe (groups : Docs.group list) : Report.serve_layers =
  let k = ref 0 in
  let reqs =
    List.concat_map
      (fun (gr : Docs.group) ->
        List.mapi
          (fun i text ->
            incr k;
            let n = gr.doc_tokens.(i) in
            Serve.request ~id:!k ~op:"parse" ~grammar:gr.g.name
              ~backend:(if !k land 1 = 0 then Docs.Gen else Docs.Interp)
              ~expect:(Serve.Accept (n, n)) text)
          (Array.to_list gr.docs))
      groups
  in
  Serve.probe ~args:[] ~prelude:[] (Array.of_list reqs)

let workload ~(seed : int) : Runner.t =
  {
    Runner.setup_texts = List.map (fun (s : W.spec) -> s.W.grammar_text) specs;
    setup_reps = 3;
    groups =
      (fun compiled ->
        List.mapi
          (fun i (spec, c) ->
            Docs.make_group (grammar spec c) Docs.Materialized
              (programs ~seed ~target_tokens i spec c))
          (List.combine specs compiled));
    samples = (fun _ -> []);
    probe;
  }
