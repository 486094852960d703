(* Configurable lexer engine: the scanner substrate used by every benchmark
   grammar (ANTLR generates lexers from lexer grammars; our engine covers
   the same token shapes -- keywords, operators, identifiers, numbers,
   strings, characters, comments -- from a declarative configuration plus
   the literal tokens already present in the parser grammar's vocabulary).

   The scanner is incremental: it reads from a pull-based byte [reader]
   through a sliding window and produces tokens in chunks, so unbounded
   inputs lex in O(window) memory.  [tokenize] -- the whole-string entry
   point -- feeds a string reader and takes everything as one chunk.

   Everything the scanner asks of the configuration and the vocabulary is
   resolved once into [tables]: byte classes, a keyword table and a
   token-name table probed with byte ranges of the window (no allocation
   per lookup), operators bucketed by first byte, and every configured
   token name resolved to its id or to the error it fails with.  Tables
   for frozen vocabularies are shared through a small cache, so opening a
   stream costs a record and a small byte window. *)

type config = {
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

type error = { msg : string; line : int; col : int }

let pp_error ppf e = Fmt.pf ppf "%d:%d: %s" e.line e.col e.msg

exception Lex_error of error

let () =
  Printexc.register_printer (function
    | Lex_error e -> Some (Fmt.str "Lexer_engine.Lex_error (%a)" pp_error e)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Word tables: open addressing from words to token ids, probed with a
   byte range of the scan window so that a lookup allocates nothing.
   [fold] tables hold lowercase keys and fold the probe to match. *)

module Words = struct
  type t = { keys : string array; ids : int array; mask : int; fold : bool }

  let lower c =
    if c >= 'A' && c <= 'Z' then Char.unsafe_chr (Char.code c + 32) else c

  let hash fold buf off len =
    let h = ref 0 in
    for i = off to off + len - 1 do
      let c = Bytes.unsafe_get buf i in
      h := (!h * 31) + Char.code (if fold then lower c else c)
    done;
    !h

  let equal fold key buf off len =
    String.length key = len
    &&
    let i = ref 0 in
    while
      !i < len
      &&
      let c = Bytes.unsafe_get buf (off + !i) in
      String.unsafe_get key !i = if fold then lower c else c
    do
      incr i
    done;
    !i = len

  (* The slot holding [buf.[off .. off+len)], or the empty slot where it
     would go. *)
  let rec probe t buf off len i =
    if Array.unsafe_get t.ids i < 0
       || equal t.fold (Array.unsafe_get t.keys i) buf off len
    then i
    else probe t buf off len ((i + 1) land t.mask)

  let slot t buf off len =
    probe t buf off len (hash t.fold buf off len land t.mask)

  (* Slot of the word [buf.[off .. off+len)], or -1. *)
  let find t buf off len =
    let i = slot t buf off len in
    if Array.unsafe_get t.ids i < 0 then -1 else i

  (* Later bindings of an equal key win, as with [Hashtbl.replace]. *)
  let of_list ~fold (bindings : (string * int) list) : t =
    let size = ref 8 in
    while !size < 2 * List.length bindings do
      size := 2 * !size
    done;
    let t =
      {
        keys = Array.make !size "";
        ids = Array.make !size (-1);
        mask = !size - 1;
        fold;
      }
    in
    List.iter
      (fun (key, id) ->
        let i = slot t (Bytes.unsafe_of_string key) 0 (String.length key) in
        t.keys.(i) <- key;
        t.ids.(i) <- id)
      bindings;
    t
end

(* ------------------------------------------------------------------ *)
(* Scan tables: one per (config, vocabulary). *)

(* Byte classes, as bits of [tables.cls]. *)
let c_ident_start = 1
let c_ident_cont = 2
let c_digit = 4
let c_comment = 8 (* first byte of a line- or block-comment opener *)
let c_blank = 16 (* skipped between tokens *)
let c_ws = 32 (* swallowed by a newline run: space, tab, CR, LF *)
let c_newline = 64
let c_closer = 128 (* first byte of a block-comment closer *)
let c_string_stop = 256 (* backslash or the string quote *)
let c_char_stop = 512 (* backslash or the single quote *)

(* A configured token name, resolved against the vocabulary: its id, or
   the message lexing fails with when the grammar lacks it. *)
type target = Tok of int | Missing of string

type tables = {
  cls : int array; (* 256 byte-class bit sets *)
  keywords : Words.t; (* identifier-shaped literals *)
  names : Words.t; (* non-literal token names with an uppercase initial *)
  ops : (string * int) array array; (* by first byte, longest first *)
  line_comments : string list;
  block_comments : (string * string) list;
  ident : int; (* identifier token id, or -1 *)
  number : target;
  float : target option;
  string_tok : target option;
  string_quote : int;
  char_tok : target option;
  at_ident : target option;
  newline : target option;
}

let build (config : config) (sym : Grammar.Sym.t) : tables =
  let find name = Grammar.Sym.find_term sym name in
  let target missing name =
    match find name with Some id -> Tok id | None -> Missing missing
  in
  let enabled missing = Option.map (target missing) in
  let numeric name =
    target (Printf.sprintf "grammar has no %s token" name) name
  in
  let is_word s =
    s <> ""
    &&
    let c = s.[0] in
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let words, ops =
    List.partition (fun (text, _) -> is_word text) (Grammar.Sym.literals sym)
  in
  let fold = config.case_insensitive_keywords in
  let keywords =
    Words.of_list ~fold
      (List.map
         (fun (text, id) ->
           ((if fold then String.lowercase_ascii text else text), id))
         words)
  in
  let names =
    Words.of_list ~fold:false
      (List.filter_map
         (fun id ->
           let name = Grammar.Sym.term_name sym id in
           if
             name <> ""
             && name.[0] >= 'A'
             && name.[0] <= 'Z'
             && not (Grammar.Sym.is_literal sym id)
           then Some (name, id)
           else None)
         (List.init (Grammar.Sym.num_terms sym) Fun.id))
  in
  (* Longest first for maximal munch.  An empty operator would match
     anywhere, so it joins every bucket, last. *)
  let ops =
    List.sort
      (fun (a, _) (b, _) -> compare (String.length b) (String.length a))
      ops
  in
  let ops =
    Array.init 256 (fun b ->
        Array.of_list
          (List.filter
             (fun (o, _) -> o = "" || Char.code o.[0] = b)
             ops))
  in
  let cls = Array.make 256 0 in
  let mark bit c = cls.(Char.code c) <- cls.(Char.code c) lor bit in
  let mark_first bit s =
    if s = "" then Array.iteri (fun i k -> cls.(i) <- k lor bit) cls
    else mark bit s.[0]
  in
  for i = 0 to 255 do
    let c = Char.chr i in
    if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') then
      cls.(i) <- c_ident_start lor c_ident_cont;
    if c >= '0' && c <= '9' then cls.(i) <- c_digit lor c_ident_cont
  done;
  String.iter (mark (c_ident_start lor c_ident_cont)) config.extra_ident_start;
  String.iter (mark c_ident_cont) config.extra_ident_cont;
  List.iter (mark c_ws) [ ' '; '\t'; '\r'; '\n' ];
  List.iter (mark c_blank) [ ' '; '\t'; '\r' ];
  if config.newline_token = None then mark c_blank '\n';
  mark c_newline '\n';
  List.iter (mark_first c_comment) config.line_comments;
  List.iter
    (fun (o, cl) ->
      mark_first c_comment o;
      if cl <> "" then mark c_closer cl.[0])
    config.block_comments;
  List.iter (mark c_string_stop) [ '\\'; config.string_quote ];
  List.iter (mark c_char_stop) [ '\\'; '\'' ];
  {
    cls;
    keywords;
    names;
    ops;
    line_comments = config.line_comments;
    block_comments = config.block_comments;
    ident =
      (match config.ident_token with
      | Some name -> Option.value (find name) ~default:(-1)
      | None -> -1);
    number =
      (match config.int_token with
      | Some name -> numeric name
      | None -> Missing "numeric literal not supported by this grammar");
    float = Option.map numeric config.float_token;
    string_tok = enabled "grammar has no string token" config.string_token;
    string_quote = Char.code config.string_quote;
    char_tok = enabled "grammar has no char token" config.char_token;
    at_ident =
      enabled "grammar has no @-identifier token" config.at_ident_token;
    newline = enabled "grammar has no newline token" config.newline_token;
  }

(* Tables of frozen vocabularies, most recent first.  A frozen vocabulary
   never changes, so its tables are keyed by its physical identity (and
   the config); an unfrozen one gets fresh tables per stream.  Lock-free:
   a lost race only drops one insertion. *)
let cache_size = 8
let cache : (Grammar.Sym.t * config * tables) list Atomic.t = Atomic.make []

let rec cached config sym = function
  | [] -> None
  | (s, c, t) :: rest ->
      if s == sym && (c == config || c = config) then Some t
      else cached config sym rest

let tables (config : config) (sym : Grammar.Sym.t) : tables =
  if not (Grammar.Sym.is_frozen sym) then build config sym
  else
    let old = Atomic.get cache in
    match cached config sym old with
    | Some t -> t
    | None ->
        let t = build config sym in
        let kept = List.filteri (fun i _ -> i < cache_size - 1) old in
        ignore (Atomic.compare_and_set cache old ((sym, config, t) :: kept));
        t

(* ------------------------------------------------------------------ *)
(* Pull-based byte sources. *)

type reader = Bytes.t -> int -> int -> int

let reader_of_string s =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n

let reader_of_channel ic = fun buf off len -> input ic buf off len

(* ------------------------------------------------------------------ *)
(* The incremental scanner: one [stream] per input, one token per
   [scan_one] step, state (position, line/col, token count) carried across
   chunks.

   The byte window retains bytes from [keep] (the current token's start)
   on; everything before it is dropped at the next refill.  Offsets are
   absolute.  The window starts small and doubles towards [cap] while
   reads fill it; beyond [cap] it grows only when a single token outlives
   a full window. *)

type state = Running | Failed of error | Done

type stream = {
  t : tables;
  tracer : Obs.Trace.t;
  read : reader;
  cap : int;
  mutable buf : Bytes.t;
  mutable len : int; (* filled bytes *)
  mutable off : int; (* absolute offset of buf.[0] *)
  mutable keep : int; (* compaction retains bytes at or above this offset *)
  mutable eof : bool;
  mutable pos : int; (* absolute byte offset of the scan point *)
  mutable line : int;
  mutable col : int;
  mutable count : int; (* tokens produced so far *)
  mutable state : state;
  mutable chunk : Token.t array; (* [next_chunk]'s fill buffer *)
}

let initial_window = 256

let stream ?(tracer = Obs.Trace.null) ?(buf_chars = 65536) (config : config)
    (sym : Grammar.Sym.t) (read : reader) : stream =
  let cap = max 64 buf_chars in
  {
    t = tables config sym;
    tracer;
    read;
    cap;
    buf = Bytes.create (min cap initial_window);
    len = 0;
    off = 0;
    keep = 0;
    eof = false;
    pos = 0;
    line = 1;
    col = 1;
    count = 0;
    state = Running;
    chunk = [||];
  }

let produced s = s.count

let refill (s : stream) : unit =
  if not s.eof then begin
    let size = Bytes.length s.buf in
    let was_full = s.len = size in
    let drop = s.keep - s.off in
    if drop > 0 then begin
      Bytes.blit s.buf drop s.buf 0 (s.len - drop);
      s.off <- s.keep;
      s.len <- s.len - drop
    end;
    (* a token longer than the window, or reads that fill it *)
    let grown =
      if s.len = size then 2 * size
      else if was_full && size < s.cap then min s.cap (2 * size)
      else size
    in
    if grown > size then begin
      let nb = Bytes.create grown in
      Bytes.blit s.buf 0 nb 0 s.len;
      s.buf <- nb
    end;
    let n = s.read s.buf s.len (Bytes.length s.buf - s.len) in
    if n = 0 then s.eof <- true else s.len <- s.len + n
  end

(* Byte (as a character code) at absolute offset [pos]; -1 past the end. *)
let rec byte_at (s : stream) (pos : int) : int =
  if pos < s.off + s.len then Char.code (Bytes.unsafe_get s.buf (pos - s.off))
  else if s.eof then -1
  else begin
    refill s;
    byte_at s pos
  end

(* Does the input continue with [prefix] at [pos]?  False near EOF when
   fewer than [length prefix] bytes remain. *)
let rec matches_at (s : stream) (pos : int) (prefix : string) : bool =
  let pl = String.length prefix in
  if pos + pl <= s.off + s.len then begin
    let i = ref 0 in
    let base = pos - s.off in
    while !i < pl && Bytes.unsafe_get s.buf (base + !i) = prefix.[!i] do
      incr i
    done;
    !i = pl
  end
  else if s.eof then false
  else begin
    refill s;
    matches_at s pos prefix
  end

(* Text of the byte range [start, stop): only ever within the current
   token, so [start >= keep] and the range is resident. *)
let extract (s : stream) (start : int) (stop : int) : string =
  Bytes.sub_string s.buf (start - s.off) (stop - start)

let advance (s : stream) : unit =
  let b = byte_at s s.pos in
  (if b >= 0 then
     if b = Char.code '\n' then begin
       s.line <- s.line + 1;
       s.col <- 1
     end
     else s.col <- s.col + 1);
  s.pos <- s.pos + 1

(* Step over [text], which the caller has matched at the scan point. *)
let advance_over (s : stream) (text : string) : unit =
  for i = 0 to String.length text - 1 do
    if String.unsafe_get text i = '\n' then begin
      s.line <- s.line + 1;
      s.col <- 1
    end
    else s.col <- s.col + 1
  done;
  s.pos <- s.pos + String.length text

(* Advance while the byte class's [mask] bits are set ([want]) or clear
   (not [want]), refilling as needed.  [drop] lets the refill discard what
   was skipped; otherwise the bytes since [keep] stay resident. *)
let rec skip (s : stream) (mask : int) (want : bool) (drop : bool) : unit =
  let cls = s.t.cls and buf = s.buf and off = s.off in
  let lim = off + s.len in
  let p = ref s.pos and line = ref s.line and col = ref s.col in
  while
    !p < lim
    && (Array.unsafe_get cls (Char.code (Bytes.unsafe_get buf (!p - off)))
        land mask
       <> 0)
       = want
  do
    if Bytes.unsafe_get buf (!p - off) = '\n' then begin
      incr line;
      col := 1
    end
    else incr col;
    incr p
  done;
  s.pos <- !p;
  s.line <- !line;
  s.col <- !col;
  if !p = lim && not s.eof then begin
    if drop then s.keep <- !p;
    refill s;
    skip s mask want drop
  end

let mode_enter (s : stream) mode =
  if Obs.Trace.on s.tracer then
    Obs.Trace.emit s.tracer
      (Obs.Trace.Lexer_mode_enter { mode; line = s.line; col = s.col })

let mode_exit (s : stream) mode =
  if Obs.Trace.on s.tracer then
    Obs.Trace.emit s.tracer
      (Obs.Trace.Lexer_mode_exit { mode; line = s.line; col = s.col })

(* Returned by [scan_one] at end of input or on failure (check
   [s.state]); compared physically. *)
let no_token : Token.t =
  { ttype = -1; text = ""; line = 0; col = 0; index = -1 }

let emit (s : stream) ttype text l0 c0 : Token.t =
  let tok = { Token.ttype; text; line = l0; col = c0; index = s.count } in
  s.count <- s.count + 1;
  tok

let fail (s : stream) msg : Token.t =
  s.state <- Failed { msg; line = s.line; col = s.col };
  no_token

let emit_target s target text l0 c0 =
  match target with Tok id -> emit s id text l0 c0 | Missing msg -> fail s msg

let rec starts_any (s : stream) = function
  | [] -> false
  | p :: rest -> matches_at s s.pos p || starts_any s rest

(* The block-comment pairs from the first whose opener matches. *)
let rec block_at (s : stream) = function
  | [] -> []
  | (o, _) :: rest as l -> if matches_at s s.pos o then l else block_at s rest

(* Comment body up to and including the closer [cl]; false at EOF. *)
let rec block_body (s : stream) (cl : string) : bool =
  s.keep <- s.pos;
  if byte_at s s.pos < 0 then false
  else if matches_at s s.pos cl then begin
    advance_over s cl;
    true
  end
  else begin
    advance s;
    skip s c_closer false true;
    block_body s cl
  end

(* Skip a comment at the scan point: true if there was one (an
   unterminated block comment leaves the stream failed). *)
let comment (s : stream) : bool =
  if starts_any s s.t.line_comments then begin
    skip s c_newline false true;
    true
  end
  else
    match block_at s s.t.block_comments with
    | [] -> false
    | (o, cl) :: _ ->
        mode_enter s "block_comment";
        advance_over s o;
        let closed = block_body s cl in
        mode_exit s "block_comment";
        if not closed then ignore (fail s "unterminated block comment");
        true

(* String or character body after the opening quote, through the closing
   [quote]; false at EOF.  A backslash escapes the next byte.  The token's
   start stays resident, so its text is the raw slice between the quotes. *)
let rec quoted_body (s : stream) (quote : int) (stop : int) : bool =
  skip s stop false false;
  let b0 = byte_at s s.pos in
  if b0 < 0 then false
  else if b0 = Char.code '\\' && byte_at s (s.pos + 1) >= 0 then begin
    advance s;
    advance s;
    quoted_body s quote stop
  end
  else if b0 = quote then begin
    advance s;
    true
  end
  else begin
    advance s;
    quoted_body s quote stop
  end

let quoted (s : stream) target quote stop mode unterminated l0 c0 : Token.t =
  let start = s.pos in
  mode_enter s mode;
  advance s;
  let closed = quoted_body s quote stop in
  mode_exit s mode;
  if not closed then fail s unterminated
  else emit_target s target (extract s (start + 1) (s.pos - 1)) l0 c0

(* A word: keyword, then a token name spelled exactly (uppercase initial,
   e.g. [A] in [s : A B | C ;]), then identifier.  Keyword and name hits
   share the table's string as the token text. *)
let word (s : stream) l0 c0 : Token.t =
  let start = s.pos in
  skip s c_ident_cont true false;
  let t = s.t and o = start - s.off and len = s.pos - start in
  let k = Words.find t.keywords s.buf o len in
  if k >= 0 then
    let text =
      if t.keywords.fold then extract s start s.pos else t.keywords.keys.(k)
    in
    emit s t.keywords.ids.(k) text l0 c0
  else
    let c = Bytes.unsafe_get s.buf o in
    let n =
      if c >= 'A' && c <= 'Z' then Words.find t.names s.buf o len else -1
    in
    if n >= 0 then emit s t.names.ids.(n) t.names.keys.(n) l0 c0
    else if t.ident >= 0 then emit s t.ident (extract s start s.pos) l0 c0
    else fail s (Printf.sprintf "unknown word %S" (extract s start s.pos))

let number (s : stream) l0 c0 : Token.t =
  let start = s.pos in
  skip s c_digit true false;
  let target =
    match s.t.float with
    | Some f
      when byte_at s s.pos = Char.code '.'
           &&
           let b1 = byte_at s (s.pos + 1) in
           b1 >= Char.code '0' && b1 <= Char.code '9' ->
        advance s;
        skip s c_digit true false;
        f
    | _ -> s.t.number
  in
  emit_target s target (extract s start s.pos) l0 c0

let rec find_op (s : stream) (ops : (string * int) array) i : int =
  if i = Array.length ops then -1
  else if matches_at s s.pos (fst (Array.unsafe_get ops i)) then i
  else find_op s ops (i + 1)

(* Scan the next token, or [no_token] at end of input or on failure.
   Whitespace and comments are skipped by tail-recursing, so a megabyte
   of blanks costs no stack.  The branch order is the language: newline
   runs, blanks, comments, [@]-identifiers, words, numbers, strings,
   characters, then operators by maximal munch. *)
let rec scan_one (s : stream) : Token.t =
  match s.state with
  | Failed _ | Done -> no_token
  | Running ->
      (* nothing before the current token is ever re-examined *)
      s.keep <- s.pos;
      let b = byte_at s s.pos in
      if b < 0 then begin
        s.state <- Done;
        no_token
      end
      else
        let t = s.t in
        let k = Array.unsafe_get t.cls b in
        let l0 = s.line and c0 = s.col in
        if b = Char.code '\n' && Option.is_some t.newline then begin
          (* one token per run of newlines and surrounding blank space *)
          skip s c_ws true true;
          emit_target s (Option.get t.newline) "\n" l0 c0
        end
        else if k land c_blank <> 0 then begin
          skip s c_blank true true;
          scan_one s
        end
        else if k land c_comment <> 0 && comment s then scan_one s
        else if b = Char.code '@' && Option.is_some t.at_ident then begin
          let start = s.pos in
          advance s;
          skip s c_ident_cont true false;
          emit_target s (Option.get t.at_ident) (extract s start s.pos) l0 c0
        end
        else if k land c_ident_start <> 0 then word s l0 c0
        else if k land c_digit <> 0 then number s l0 c0
        else if b = t.string_quote && Option.is_some t.string_tok then
          quoted s (Option.get t.string_tok) b c_string_stop "string"
            "unterminated string literal" l0 c0
        else if b = Char.code '\'' && Option.is_some t.char_tok then
          quoted s (Option.get t.char_tok) b c_char_stop "char"
            "unterminated character literal" l0 c0
        else
          let ops = Array.unsafe_get t.ops b in
          let i = find_op s ops 0 in
          if i < 0 then
            fail s (Printf.sprintf "unexpected character %C" (Char.chr b))
          else
            let o, id = ops.(i) in
            advance_over s o;
            emit s id o l0 c0

(* ------------------------------------------------------------------ *)
(* Chunked driving. *)

(* Scan up to [max_tokens] tokens into [s.chunk]; the count. *)
let fill (s : stream) (max_tokens : int) : int =
  let n = ref 0 in
  let more = ref true in
  while !more && !n < max_tokens do
    let tok = scan_one s in
    if tok == no_token then more := false
    else begin
      if !n = Array.length s.chunk then begin
        let size = min max_tokens (max 64 (2 * !n)) in
        let a = Array.make size no_token in
        Array.blit s.chunk 0 a 0 !n;
        s.chunk <- a
      end;
      Array.unsafe_set s.chunk !n tok;
      incr n
    end
  done;
  !n

let next_chunk ?(max_tokens = 256) (s : stream) :
    (Token.t array, error) result =
  match s.state with
  | Failed e -> Error e
  | Done -> Ok [||]
  | Running -> (
      let n = fill s max_tokens in
      match s.state with
      | Failed e -> Error e
      | Running | Done -> Ok (Array.sub s.chunk 0 n))

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
  let rec go n = if scan_one s == no_token then n else go (n + 1) in
  let n = go 0 in
  match s.state with Failed e -> Error e | Running | Done -> Ok n

let tokenize ?tracer (config : config) (sym : Grammar.Sym.t) (src : string) :
    (Token.t array, error) result =
  next_chunk ~max_tokens:max_int
    (stream ?tracer config sym (reader_of_string src))

let tokenize_exn ?tracer config sym src =
  match tokenize ?tracer config sym src with
  | Ok toks -> toks
  | Error e -> failwith (Fmt.str "lex error: %a" pp_error e)
