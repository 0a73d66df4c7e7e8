type token =
  | Ident of string
  | Register of Ptaint_isa.Reg.t
  | Int of int
  | Str of string
  | Comma
  | Colon
  | Lparen
  | Rparen

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '.'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

exception Lex_error of string

let escape_char = function
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '"' -> '"'
  | '\'' -> '\''
  | c -> raise (Lex_error (Printf.sprintf "unknown escape \\%c" c))

let tokenize line =
  let n = String.length line in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  let peek k = if !i + k < n then Some line.[!i + k] else None in
  try
    let rec loop () =
      if !i >= n then ()
      else begin
        let c = line.[!i] in
        if c = ' ' || c = '\t' || c = '\r' then begin incr i; loop () end
        else if c = '#' || c = ';' then ()
        else if c = '/' && peek 1 = Some '/' then ()
        else if c = ',' then begin emit Comma; incr i; loop () end
        else if c = ':' then begin emit Colon; incr i; loop () end
        else if c = '(' then begin emit Lparen; incr i; loop () end
        else if c = ')' then begin emit Rparen; incr i; loop () end
        else if c = '$' then begin
          let j = ref (!i + 1) in
          while !j < n && is_ident_char line.[!j] do incr j done;
          let name = String.sub line !i (!j - !i) in
          (match Ptaint_isa.Reg.of_name name with
           | Some r -> emit (Register r)
           | None -> raise (Lex_error ("unknown register " ^ name)));
          i := !j;
          loop ()
        end
        else if c = '"' then begin
          let buf = Buffer.create 16 in
          incr i;
          let rec str () =
            if !i >= n then raise (Lex_error "unterminated string")
            else if line.[!i] = '"' then incr i
            else if line.[!i] = '\\' then begin
              (if !i + 1 < n && line.[!i + 1] = 'x' then begin
                 if !i + 3 >= n then raise (Lex_error "bad \\x escape");
                 let hex = String.sub line (!i + 2) 2 in
                 Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ hex)));
                 i := !i + 4
               end
               else begin
                 (if !i + 1 >= n then raise (Lex_error "trailing backslash"));
                 Buffer.add_char buf (escape_char line.[!i + 1]);
                 i := !i + 2
               end);
              str ()
            end
            else begin
              Buffer.add_char buf line.[!i];
              incr i;
              str ()
            end
          in
          str ();
          emit (Str (Buffer.contents buf));
          loop ()
        end
        else if c = '\'' then begin
          if peek 1 = Some '\\' then begin
            (match (peek 2, peek 3) with
             | Some e, Some '\'' ->
               emit (Int (Char.code (escape_char e)));
               i := !i + 4
             | _ -> raise (Lex_error "bad character literal"));
            loop ()
          end
          else
            match (peek 1, peek 2) with
            | Some ch, Some '\'' ->
              emit (Int (Char.code ch));
              i := !i + 3;
              loop ()
            | _ -> raise (Lex_error "bad character literal")
        end
        else if is_digit c || (c = '-' && (match peek 1 with Some d -> is_digit d | None -> false))
        then begin
          let j = ref !i in
          if line.[!j] = '-' then incr j;
          while
            !j < n
            && (is_digit line.[!j]
               || (line.[!j] >= 'a' && line.[!j] <= 'f')
               || (line.[!j] >= 'A' && line.[!j] <= 'F')
               || line.[!j] = 'x' || line.[!j] = 'X')
          do
            incr j
          done;
          let text = String.sub line !i (!j - !i) in
          (match int_of_string_opt text with
           | Some v -> emit (Int v)
           | None -> raise (Lex_error ("bad integer literal " ^ text)));
          i := !j;
          loop ()
        end
        else if is_ident_start c then begin
          let j = ref !i in
          while !j < n && is_ident_char line.[!j] do incr j done;
          emit (Ident (String.sub line !i (!j - !i)));
          i := !j;
          loop ()
        end
        else raise (Lex_error (Printf.sprintf "unexpected character %C" c))
      end
    in
    loop ();
    Ok (List.rev !tokens)
  with Lex_error msg -> Error msg
