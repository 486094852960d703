(* Workload [speculate]: MB-scale streaming input, where synpred
   speculation, memoization and window retention dominate.  StreamScale
   documents (the repeated-prefix grammar: every statement speculates
   across an ID ('[' expr ']')* prefix whose depth comes from a seeded
   draw) are mixed with RatsJava programs, the committed grammar that
   backtracks most.  Every document streams through a 4096-token window,
   as serve's parse_stream does. *)

module W = Bench_grammars.Workload

let ss_docs = 2
let ss_doc_bytes = 512 * 1024
let rj_target_tokens = 20_000
let max_prefix = 8

let ident rng = String.make 1 "abcdefghijklmnopqrstuvwxyz".[Random.State.int rng 26]

let rec expr rng depth b =
  term rng depth b;
  if Random.State.int rng 3 = 0 then begin
    Buffer.add_string b (if Random.State.bool rng then " + " else " - ");
    term rng depth b
  end

and term rng depth b =
  atom rng depth b;
  if Random.State.int rng 4 = 0 then begin
    Buffer.add_string b (if Random.State.bool rng then " * " else " / ");
    atom rng depth b
  end

and atom rng depth b =
  match if depth > 1 then 0 else Random.State.int rng 4 with
  | 0 -> Buffer.add_string b (ident rng)
  | 1 -> Buffer.add_string b (string_of_int (Random.State.int rng 100))
  | 2 ->
      Buffer.add_string b (ident rng);
      Buffer.add_string b " [ ";
      expr rng (depth + 1) b;
      Buffer.add_string b " ]"
  | _ ->
      Buffer.add_string b "( ";
      expr rng (depth + 1) b;
      Buffer.add_string b " )"

(* An assignment or a bare expression statement; both open with the same
   indexed prefix of a seeded depth. *)
let statement rng b =
  Buffer.add_string b (ident rng);
  for _ = 1 to Random.State.int rng (max_prefix + 1) do
    Buffer.add_string b " [ ";
    expr rng 1 b;
    Buffer.add_string b " ]"
  done;
  if Random.State.bool rng then begin
    Buffer.add_string b " = ";
    expr rng 0 b
  end;
  Buffer.add_string b " ;\n"

let ss_doc rng (bytes : int) : string =
  let b = Buffer.create (bytes + 256) in
  while Buffer.length b < bytes do
    statement rng b
  done;
  Buffer.contents b

let probe (groups : Docs.group list) : Report.serve_layers =
  (* the daemon has no generated parser for a grammar loaded from text *)
  let k = ref 0 in
  let reqs =
    List.concat_map
      (fun (gr : Docs.group) ->
        List.mapi
          (fun i text ->
            incr k;
            let n = gr.doc_tokens.(i) in
            let backend =
              if gr.g.name = "RatsJava" && !k land 1 = 0 then Docs.Gen
              else Docs.Interp
            in
            Serve.request ~id:!k ~op:"parse_stream" ~grammar:gr.g.name ~backend
              ~expect:(Serve.Accept (n, n)) text)
          (Array.to_list gr.docs))
      groups
  in
  Serve.probe ~args:[ "--grammars"; "RatsJava" ]
    ~prelude:
      [
        Obs.Json.obj
          [
            ("op", Obs.Json.str "load");
            ("grammar", Obs.Json.str "StreamScale");
            ("text", Obs.Json.str Stream_scale_text.text);
          ];
      ]
    (Array.of_list reqs)

let grammars (compiled : Llstar.Compiled.t list) : Docs.grammar * Docs.grammar =
  match compiled with
  | [ ss; rj ] ->
      ( Docs.make_grammar ~name:"StreamScale"
          ~config:Runtime.Lexer_engine.default_config
          ~env:Runtime.Interp.default_env ss
          (module Gen_stream_scale),
        Corpus.grammar Bench_grammars.Rats_java.spec rj )
  | _ -> invalid_arg "Speculate.grammars"

let rj_programs ~seed (compiled : Llstar.Compiled.t list) =
  Corpus.programs ~seed ~target_tokens:rj_target_tokens 2
    Bench_grammars.Rats_java.spec (List.nth compiled 1)

(* The materialized cross-check runs on a 32 KB StreamScale document and
   three RatsJava programs: materializing a 512 KB document would set the
   process's peak RSS, which should come from the streamed rounds. *)
let workload ~(seed : int) : Runner.t =
  {
    Runner.setup_texts =
      [ Stream_scale_text.text; Bench_grammars.Rats_java.spec.W.grammar_text ];
    setup_reps = 5;
    groups =
      (fun compiled ->
        let ssg, rjg = grammars compiled in
        let rng = Random.State.make [| seed; 11 |] in
        List.init ss_docs (fun _ ->
            Docs.make_group ssg Docs.Streaming [| ss_doc rng ss_doc_bytes |])
        @ [ Docs.make_group rjg Docs.Streaming (rj_programs ~seed compiled) ]);
    samples =
      (fun compiled ->
        let ssg, rjg = grammars compiled in
        let rng = Random.State.make [| seed; 12 |] in
        [
          Docs.make_group ssg Docs.Streaming [| ss_doc rng (32 * 1024) |];
          Docs.make_group rjg Docs.Streaming
            (Array.sub (rj_programs ~seed compiled) 0 3);
        ]);
    probe;
  }
