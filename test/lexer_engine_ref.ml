(* Reference scanner: the closure-per-token implementation that
   [Runtime.Lexer_engine] replaced with per-vocabulary scan tables, kept
   as the oracle for the differential lexer property (test_props.ml).
   Apart from this header, [config] and [error] re-exporting the engine's
   types, and [Token] naming [Runtime.Token], it is the engine as it was.
   Do not add callers outside the tests. *)

module Token = Runtime.Token

type config = Runtime.Lexer_engine.config = {
  ident_token : string option; (* token type for identifiers, e.g. "ID" *)
  int_token : string option;
  float_token : string option;
  string_token : string option;
  string_quote : char; (* '"' for C-family, '\'' for SQL *)
  char_token : string option; (* single-quoted *)
  at_ident_token : string option;
    (* token type for '@'-prefixed identifiers (T-SQL variables) *)
  newline_token : string option;
    (* emit a token per newline run (VB-style line-oriented syntax) *)
  line_comments : string list; (* e.g. ["//"; "--"] *)
  block_comments : (string * string) list; (* e.g. [("/*", "*/")] *)
  case_insensitive_keywords : bool; (* SQL/VB style *)
  extra_ident_start : string; (* additional identifier start characters *)
  extra_ident_cont : string;
}

let default_config =
  {
    ident_token = Some "ID";
    int_token = Some "INT";
    float_token = None;
    string_token = None;
    char_token = None;
    string_quote = '"';
    at_ident_token = None;
    newline_token = None;
    line_comments = [ "//" ];
    block_comments = [ ("/*", "*/") ];
    case_insensitive_keywords = false;
    extra_ident_start = "_";
    extra_ident_cont = "_";
  }

type error = Runtime.Lexer_engine.error = {
  msg : string;
  line : int;
  col : int;
}

let pp_error ppf e = Fmt.pf ppf "%d:%d: %s" e.line e.col e.msg

exception Lex_error of error

let () =
  Printexc.register_printer (function
    | Lex_error e -> Some (Fmt.str "Lexer_engine.Lex_error (%a)" pp_error e)
    | _ -> None)

(* Split the grammar's literal tokens into keywords (identifier-shaped) and
   operators (everything else), the latter sorted longest-first for
   maximal-munch matching. *)
let split_literals config (sym : Grammar.Sym.t) =
  let is_word s =
    s <> ""
    &&
    let c = s.[0] in
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let keywords = Hashtbl.create 64 in
  let ops = ref [] in
  List.iter
    (fun (text, id) ->
      if is_word text then
        let key =
          if config.case_insensitive_keywords then String.lowercase_ascii text
          else text
        in
        Hashtbl.replace keywords key id
      else ops := (text, id) :: !ops)
    (Grammar.Sym.literals sym);
  let ops =
    List.sort
      (fun (a, _) (b, _) -> compare (String.length b) (String.length a))
      !ops
  in
  (keywords, ops)

let contains s c = String.contains s c

(* ------------------------------------------------------------------ *)
(* Pull-based byte sources and the sliding character window. *)

type reader = Bytes.t -> int -> int -> int

let reader_of_string s =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n

let reader_of_channel ic = fun buf off len -> input ic buf off len

(* The window retains bytes from [keep] (the current token's start) on;
   everything before it is dropped at the next refill.  Absolute byte
   offsets throughout; the buffer grows only when a single token outlives
   a full window. *)
type cursor = {
  read : reader;
  mutable buf : Bytes.t;
  mutable len : int; (* filled bytes *)
  mutable off : int; (* absolute offset of buf.[0] *)
  mutable keep : int; (* compaction retains bytes at or above this offset *)
  mutable eof : bool;
}

let refill (cur : cursor) : unit =
  if not cur.eof then begin
    let drop = cur.keep - cur.off in
    if drop > 0 then begin
      Bytes.blit cur.buf drop cur.buf 0 (cur.len - drop);
      cur.off <- cur.keep;
      cur.len <- cur.len - drop
    end;
    if cur.len = Bytes.length cur.buf then begin
      (* the retained span fills the window: a token longer than the
         buffer; grow so scanning can continue *)
      let nb = Bytes.create (2 * Bytes.length cur.buf) in
      Bytes.blit cur.buf 0 nb 0 cur.len;
      cur.buf <- nb
    end;
    let n = cur.read cur.buf cur.len (Bytes.length cur.buf - cur.len) in
    if n = 0 then cur.eof <- true else cur.len <- cur.len + n
  end

(* Byte (as a character code) at absolute offset [pos]; -1 past the end. *)
let rec byte_at (cur : cursor) (pos : int) : int =
  if pos < cur.off + cur.len then
    Char.code (Bytes.unsafe_get cur.buf (pos - cur.off))
  else if cur.eof then -1
  else begin
    refill cur;
    byte_at cur pos
  end

(* Does the input continue with [prefix] at [pos]?  False near EOF when
   fewer than [length prefix] bytes remain, as with the string scanner's
   bounds check. *)
let rec matches_at (cur : cursor) (pos : int) (prefix : string) : bool =
  let pl = String.length prefix in
  if pos + pl <= cur.off + cur.len then begin
    let i = ref 0 in
    let base = pos - cur.off in
    while !i < pl && Bytes.unsafe_get cur.buf (base + !i) = prefix.[!i] do
      incr i
    done;
    !i = pl
  end
  else if cur.eof then false
  else begin
    refill cur;
    matches_at cur pos prefix
  end

(* Text of the byte range [start, stop): only ever the current token, so
   [start >= keep] and the range is resident. *)
let extract (cur : cursor) (start : int) (stop : int) : string =
  Bytes.sub_string cur.buf (start - cur.off) (stop - start)

(* ------------------------------------------------------------------ *)
(* The incremental scanner: one [stream] per input, one token per
   [scan_one] step, state (position, line/col, token count) carried across
   chunks. *)

type state = Running | Failed of error | Done

type stream = {
  config : config;
  sym : Grammar.Sym.t;
  keywords : (string, int) Hashtbl.t;
  ops : (string * int) list;
  tracer : Obs.Trace.t;
  cur : cursor;
  mutable pos : int; (* absolute byte offset of the scan point *)
  mutable line : int;
  mutable col : int;
  mutable count : int; (* tokens produced so far *)
  mutable state : state;
}

let stream ?(tracer = Obs.Trace.null) ?(buf_chars = 65536) (config : config)
    (sym : Grammar.Sym.t) (read : reader) : stream =
  let keywords, ops = split_literals config sym in
  {
    config;
    sym;
    keywords;
    ops;
    tracer;
    cur =
      {
        read;
        buf = Bytes.create (max 64 buf_chars);
        len = 0;
        off = 0;
        keep = 0;
        eof = false;
      };
    pos = 0;
    line = 1;
    col = 1;
    count = 0;
    state = Running;
  }

let produced s = s.count

let advance (s : stream) : unit =
  let b = byte_at s.cur s.pos in
  (if b >= 0 then
     if b = Char.code '\n' then begin
       s.line <- s.line + 1;
       s.col <- 1
     end
     else s.col <- s.col + 1);
  s.pos <- s.pos + 1

let advance_n (s : stream) (k : int) : unit =
  for _ = 1 to k do
    advance s
  done

(* Scan the next token.  [None] means end of input or failure (check
   [s.state]); whitespace and comments are skipped by tail-recursing, so a
   megabyte of blanks costs no stack.  A transcription of the historical
   whole-string loop body: every branch, trace event and error message is
   the same, so chunked and materialized lexing are byte-identical. *)
let rec scan_one (s : stream) : Token.t option =
  match s.state with
  | Failed _ | Done -> None
  | Running ->
      (* nothing before the current token is ever re-examined *)
      s.cur.keep <- s.pos;
      let config = s.config in
      let b = byte_at s.cur s.pos in
      if b < 0 then begin
        s.state <- Done;
        None
      end
      else begin
        let c = Char.chr b in
        let l0 = s.line and c0 = s.col in
        let find_term name = Grammar.Sym.find_term s.sym name in
        let is_ident_start c =
          (c >= 'a' && c <= 'z')
          || (c >= 'A' && c <= 'Z')
          || contains config.extra_ident_start c
        in
        let is_ident_cont c =
          is_ident_start c
          || (c >= '0' && c <= '9')
          || contains config.extra_ident_cont c
        in
        let is_digit c = c >= '0' && c <= '9' in
        let emit ttype text =
          let tok =
            Token.{ ttype; text; line = l0; col = c0; index = s.count }
          in
          s.count <- s.count + 1;
          Some tok
        in
        let fail msg =
          s.state <- Failed { msg; line = s.line; col = s.col };
          None
        in
        let mode_enter mode =
          if Obs.Trace.on s.tracer then
            Obs.Trace.emit s.tracer
              (Obs.Trace.Lexer_mode_enter { mode; line = s.line; col = s.col })
        in
        let mode_exit mode =
          if Obs.Trace.on s.tracer then
            Obs.Trace.emit s.tracer
              (Obs.Trace.Lexer_mode_exit { mode; line = s.line; col = s.col })
        in
        let token_for_word w =
          let key =
            if config.case_insensitive_keywords then String.lowercase_ascii w
            else w
          in
          match Hashtbl.find_opt s.keywords key with
          | Some id -> Some id
          | None -> (
              (* A word spelled exactly like a named token type (uppercase
                 initial) lexes as that type -- convenient for abstract
                 vocabularies such as [s : A B | C ;] in tests and
                 examples. *)
              match
                if w <> "" && w.[0] >= 'A' && w.[0] <= 'Z' then find_term w
                else None
              with
              | Some id when not (Grammar.Sym.is_literal s.sym id) -> Some id
              | _ -> (
                  match config.ident_token with
                  | Some name -> find_term name
                  | None -> None))
        in
        let is_ws b =
          b = Char.code ' '
          || b = Char.code '\t'
          || b = Char.code '\r'
          || b = Char.code '\n'
        in
        let starts_with prefix = matches_at s.cur s.pos prefix in
        if c = '\n' && config.newline_token <> None then begin
          (* collapse a run of newlines (and surrounding blank space) into
             one token *)
          while
            s.cur.keep <- s.pos;
            is_ws (byte_at s.cur s.pos)
          do
            advance s
          done;
          match find_term (Option.get config.newline_token) with
          | Some id -> emit id "\n"
          | None -> fail "grammar has no newline token"
        end
        else if c = ' ' || c = '\t' || c = '\r' || c = '\n' then begin
          advance s;
          scan_one s
        end
        else if List.exists starts_with config.line_comments then begin
          while
            s.cur.keep <- s.pos;
            let b = byte_at s.cur s.pos in
            b >= 0 && b <> Char.code '\n'
          do
            advance s
          done;
          scan_one s
        end
        else if
          List.exists (fun (o, _) -> starts_with o) config.block_comments
        then begin
          let o, cl =
            List.find (fun (o, _) -> starts_with o) config.block_comments
          in
          mode_enter "block_comment";
          advance_n s (String.length o);
          let closed = ref false in
          while
            s.cur.keep <- s.pos;
            (not !closed) && byte_at s.cur s.pos >= 0
          do
            if matches_at s.cur s.pos cl then begin
              advance_n s (String.length cl);
              closed := true
            end
            else advance s
          done;
          mode_exit "block_comment";
          if not !closed then fail "unterminated block comment"
          else scan_one s
        end
        else if c = '@' && config.at_ident_token <> None then begin
          let start = s.pos in
          advance s;
          while
            let b = byte_at s.cur s.pos in
            b >= 0 && is_ident_cont (Char.chr b)
          do
            advance s
          done;
          let w = extract s.cur start s.pos in
          match find_term (Option.get config.at_ident_token) with
          | Some id -> emit id w
          | None -> fail "grammar has no @-identifier token"
        end
        else if is_ident_start c then begin
          let start = s.pos in
          while
            let b = byte_at s.cur s.pos in
            b >= 0 && is_ident_cont (Char.chr b)
          do
            advance s
          done;
          let w = extract s.cur start s.pos in
          match token_for_word w with
          | Some id -> emit id w
          | None -> fail (Printf.sprintf "unknown word %S" w)
        end
        else if is_digit c then begin
          let start = s.pos in
          while
            let b = byte_at s.cur s.pos in
            b >= 0 && is_digit (Char.chr b)
          do
            advance s
          done;
          let is_float = ref false in
          (if
             config.float_token <> None
             && byte_at s.cur s.pos = Char.code '.'
             &&
             let b1 = byte_at s.cur (s.pos + 1) in
             b1 >= 0 && is_digit (Char.chr b1)
           then begin
             is_float := true;
             advance s;
             while
               let b = byte_at s.cur s.pos in
               b >= 0 && is_digit (Char.chr b)
             do
               advance s
             done
           end);
          let w = extract s.cur start s.pos in
          let tname =
            if !is_float then config.float_token else config.int_token
          in
          match tname with
          | Some name -> (
              match find_term name with
              | Some id -> emit id w
              | None -> fail (Printf.sprintf "grammar has no %s token" name))
          | None -> fail "numeric literal not supported by this grammar"
        end
        else if c = config.string_quote && config.string_token <> None then begin
          let buf = Buffer.create 16 in
          mode_enter "string";
          advance s;
          let closed = ref false in
          while
            s.cur.keep <- s.pos;
            (not !closed) && byte_at s.cur s.pos >= 0
          do
            let b0 = byte_at s.cur s.pos in
            if b0 = Char.code '\\' && byte_at s.cur (s.pos + 1) >= 0 then begin
              Buffer.add_char buf (Char.chr b0);
              Buffer.add_char buf (Char.chr (byte_at s.cur (s.pos + 1)));
              advance_n s 2
            end
            else if b0 = Char.code config.string_quote then begin
              advance s;
              closed := true
            end
            else begin
              Buffer.add_char buf (Char.chr b0);
              advance s
            end
          done;
          mode_exit "string";
          if not !closed then fail "unterminated string literal"
          else
            match find_term (Option.get config.string_token) with
            | Some id -> emit id (Buffer.contents buf)
            | None -> fail "grammar has no string token"
        end
        else if c = '\'' && config.char_token <> None then begin
          let buf = Buffer.create 4 in
          mode_enter "char";
          advance s;
          let closed = ref false in
          while
            s.cur.keep <- s.pos;
            (not !closed) && byte_at s.cur s.pos >= 0
          do
            let b0 = byte_at s.cur s.pos in
            if b0 = Char.code '\\' && byte_at s.cur (s.pos + 1) >= 0 then begin
              Buffer.add_char buf (Char.chr b0);
              Buffer.add_char buf (Char.chr (byte_at s.cur (s.pos + 1)));
              advance_n s 2
            end
            else if b0 = Char.code '\'' then begin
              advance s;
              closed := true
            end
            else begin
              Buffer.add_char buf (Char.chr b0);
              advance s
            end
          done;
          mode_exit "char";
          if not !closed then fail "unterminated character literal"
          else
            match find_term (Option.get config.char_token) with
            | Some id -> emit id (Buffer.contents buf)
            | None -> fail "grammar has no char token"
        end
        else begin
          (* operators / punctuation: maximal munch over the literal
             table *)
          match List.find_opt (fun (o, _) -> starts_with o) s.ops with
          | Some (o, id) ->
              advance_n s (String.length o);
              emit id o
          | None -> fail (Printf.sprintf "unexpected character %C" c)
        end
      end

(* ------------------------------------------------------------------ *)
(* Chunked driving. *)

let next_chunk ?(max_tokens = 256) (s : stream) :
    (Token.t array, error) result =
  match s.state with
  | Failed e -> Error e
  | Done -> Ok [||]
  | Running -> (
      let acc = ref [] in
      let n = ref 0 in
      let more = ref true in
      while !more && !n < max_tokens do
        match scan_one s with
        | Some tok ->
            acc := tok :: !acc;
            incr n
        | None -> more := false
      done;
      match s.state with
      | Failed e -> Error e
      | Running | Done -> Ok (Array.of_list (List.rev !acc)))

(* A {!Token_stream.of_pull}-compatible chunk source; lex failures surface
   as {!Lex_error} at the lookahead call that pulled them. *)
let pull ?chunk_tokens (s : stream) () : Token.t array =
  match next_chunk ?max_tokens:chunk_tokens s with
  | Ok toks -> toks
  | Error e -> raise (Lex_error e)

(* Scan the rest of the input without retaining tokens: the count of
   remaining tokens, or the first lex error.  Drivers that parse while
   they lex use this after the parse verdict, so a lex error anywhere wins
   and the token total is complete, as if everything had been lexed
   first. *)
let drain (s : stream) : (int, error) result =
  let n = ref 0 in
  let rec go () =
    match scan_one s with
    | Some _ ->
        incr n;
        go ()
    | None -> ()
  in
  go ();
  match s.state with Failed e -> Error e | Running | Done -> Ok !n

let tokenize ?tracer (config : config) (sym : Grammar.Sym.t) (src : string) :
    (Token.t array, error) result =
  let s = stream ?tracer config sym (reader_of_string src) in
  let chunks = ref [] in
  let rec go () =
    match next_chunk ~max_tokens:max_int s with
    | Error e -> Error e
    | Ok [||] -> Ok (Array.concat (List.rev !chunks))
    | Ok c ->
        chunks := c :: !chunks;
        go ()
  in
  go ()

let tokenize_exn ?tracer config sym src =
  match tokenize ?tracer config sym src with
  | Ok toks -> toks
  | Error e -> failwith (Fmt.str "lex error: %a" pp_error e)
