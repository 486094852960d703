(* The [antlrkit parse] command end to end: the built binary run on files,
   its stdout, stderr and exit status compared across token windows.  A
   window changes how many tokens stay live, never what the command
   prints. *)

open Helpers

(* The binary is a dependency of the test runner (see dune) and sits next
   to it in the build tree. *)
let antlrkit =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "main.exe" ]

let files =
  [
    ( "e2.g",
      "grammar E2; options { memoize=true; }\n\
       s : stat+ ;\n\
       stat : ID '=' e ';' | 'print' e ';' | '{' stat* '}' ;\n\
       e : (t '+')=> t '+' e | t ;\n\
       t : ID | INT | '(' e ')' ;\n" );
    ("good.txt", "x = 1 + 2 ;\nprint ( 2 ) ;\n{ a = ( ( b + c ) + d ) ; }\n");
    (* errors in nested rules, so recovery resynchronizes several times *)
    ("bad.txt", "x = 1 + ;\nprint ( 2 ;\ny = 3 ;\n( ( a + b ) ) ;\nz = = 4 ;\n");
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [antlrkit parse e2.g INPUT args] in a fresh directory holding
   [files]; the exit status, stdout and stderr. *)
let parse input (args : string list) : int * string * string =
  let dir = Filename.temp_file "antlrkit-test-cli" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir in
  List.iter
    (fun (name, text) ->
      Out_channel.with_open_bin (path name) (fun oc -> output_string oc text))
    files;
  let code =
    Sys.command
      (Filename.quote_command antlrkit ~stdout:(path "out") ~stderr:(path "err")
         ("parse" :: path "e2.g" :: path input :: args))
  in
  let result = (code, read_file (path "out"), read_file (path "err")) in
  Array.iter (fun n -> Sys.remove (path n)) (Sys.readdir dir);
  Sys.rmdir dir;
  result

let parse_tests =
  [
    test "parse --tree --recover prints the same at any window" (fun () ->
        List.iter
          (fun input ->
            let args = [ "--tree"; "--recover"; "--profile" ] in
            let code, out, err = parse input args in
            let code1, out1, err1 = parse input (args @ [ "--window"; "1" ]) in
            check int (input ^ ": exit status") code code1;
            check string (input ^ ": stdout") out out1;
            check string (input ^ ": stderr") err err1;
            if input = "good.txt" then
              check bool "tree printed" true (code = 0 && contains out "(s (stat x =")
            else
              check bool "several errors recovered from" true
                (code = 1 && List.length (String.split_on_char '\n' err) > 3))
          [ "good.txt"; "bad.txt" ]);
    test "parse --window with a bound no host could allocate" (fun () ->
        let code, out, err =
          parse "good.txt" [ "--window"; string_of_int (1 lsl 40) ]
        in
        check string "no error output" "" err;
        check int "accepted" 0 code;
        check string "verdict" "parsed 25 tokens\n" out);
    test "parse --window 0 is a usage error" (fun () ->
        let code, _, err = parse "good.txt" [ "--window"; "0" ] in
        check int "usage status" 2 code;
        check bool "explains" true (contains err "--window must be >= 1"));
  ]

let suite = [ ("cli_parse", parse_tests) ]
