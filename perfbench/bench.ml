(* perfbench: antlrkit's bytes-to-verdict benchmark.

     bench.exe --workload corpus|speculate|serve --seed N --seconds S
               --trace 0|1 --antlrkit PATH

   Prints progress on stderr and, as the last line of stdout, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
   the metrics are the end-to-end ones, with --trace 1 the per-layer ones
   (see Report).  Exits 1 on any wrong verdict, dropped reply or failed
   check.  run.py builds this and the antlrkit binary, then runs it. *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME corpus, speculate or serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--antlrkit", Arg.Set_string Serve.antlrkit, "PATH the antlrkit binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --antlrkit PATH";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let metrics =
    try
      match !workload with
      | "corpus" -> Runner.run ~seconds ~trace (Corpus.workload ~seed)
      | "speculate" -> Runner.run ~seconds ~trace (Speculate.workload ~seed)
      | "serve" -> Serve_load.run ~seed ~seconds ~trace
      | w ->
          Printf.eprintf "perfbench: unknown workload %S\n" w;
          exit 2
    with Failure msg | Sys_error msg ->
      Printf.eprintf "perfbench: %s\n" msg;
      exit 1
  in
  if trace then begin
    if not (Sys.file_exists Serve.run_dir) then Unix.mkdir Serve.run_dir 0o755;
    Spans.write (Printf.sprintf "%s/spans-%s.tsv" Serve.run_dir !workload)
  end;
  Printf.eprintf
    "perfbench: %s seed %d: %d operations, %d failed; calibration kernel median %.4f s\n%!"
    !workload seed !Util.attempted !Util.failed
    (Util.median (Array.of_list !Util.kernel_samples));
  Util.print_result metrics
