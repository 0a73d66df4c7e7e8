(* Differential testing of the Mini-C compiler: random expression
   trees are evaluated by an OCaml reference interpreter with 32-bit
   semantics and by the compiled program running on the simulated
   machine; results must agree.  Also a randomised allocator trace
   test with an OCaml-side model. *)

(* --- 32-bit reference semantics --- *)

module Ref = struct
  let mask v = v land 0xFFFFFFFF
  let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

  type expr =
    | Num of int
    | Var of int (* 0..2 -> a, b, c *)
    | Bin of string * expr * expr
    | Un of string * expr
    | Cond of expr * expr * expr

  let rec eval env = function
    | Num n -> mask n
    | Var i -> env.(i)
    | Un ("-", e) -> mask (-eval env e)
    | Un ("~", e) -> mask (lnot (eval env e))
    | Un ("!", e) -> if eval env e = 0 then 1 else 0
    | Un (op, _) -> failwith op
    | Cond (c, t, f) -> if eval env c <> 0 then eval env t else eval env f
    | Bin (op, a, b) ->
      let x = eval env a and y = eval env b in
      (match op with
       | "+" -> mask (x + y)
       | "-" -> mask (x - y)
       | "*" -> Int64.(to_int (logand (mul (of_int x) (of_int y)) 0xFFFFFFFFL))
       | "/" -> if y = 0 then 0 else mask (signed x / signed y)
       | "%" -> if y = 0 then mask x else mask (signed x mod signed y)
       | "&" -> x land y
       | "|" -> x lor y
       | "^" -> x lxor y
       | "<<" -> mask (x lsl (y land 31))
       | ">>" -> mask (signed x asr (y land 31))
       | "<" -> if signed x < signed y then 1 else 0
       | ">" -> if signed x > signed y then 1 else 0
       | "<=" -> if signed x <= signed y then 1 else 0
       | ">=" -> if signed x >= signed y then 1 else 0
       | "==" -> if x = y then 1 else 0
       | "!=" -> if x <> y then 1 else 0
       | "&&" -> if x <> 0 && y <> 0 then 1 else 0
       | "||" -> if x <> 0 || y <> 0 then 1 else 0
       | op -> failwith op)

  let rec render = function
    | Num n -> string_of_int n
    | Var i -> String.make 1 (Char.chr (Char.code 'a' + i))
    (* the space avoids "--1" lexing as a decrement *)
    | Un (op, e) -> Printf.sprintf "(%s %s)" op (render e)
    | Cond (c, t, f) -> Printf.sprintf "(%s ? %s : %s)" (render c) (render t) (render f)
    | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (render a) op (render b)
end

(* Division/modulo only by non-zero constants keeps both sides off
   undefined behaviour; shifts use constant amounts 0..31. *)
let expr_gen =
  let open QCheck2.Gen in
  let leaf =
    oneof [ (int_range (-100) 100 >|= fun n -> Ref.Num n); (int_range 0 2 >|= fun i -> Ref.Var i) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            ( 5,
              let* op =
                oneofl [ "+"; "-"; "*"; "&"; "|"; "^"; "<"; ">"; "<="; ">="; "=="; "!=" ]
              in
              let* a = self (depth - 1) in
              let* b = self (depth - 1) in
              return (Ref.Bin (op, a, b)) );
            ( 1,
              let* op = oneofl [ "/"; "%" ] in
              let* a = self (depth - 1) in
              let* d = oneofl [ -7; -3; 2; 3; 5; 17 ] in
              return (Ref.Bin (op, a, Ref.Num d)) );
            ( 1,
              let* op = oneofl [ "<<"; ">>" ] in
              let* a = self (depth - 1) in
              let* s = int_range 0 31 in
              return (Ref.Bin (op, a, Ref.Num s)) );
            ( 1,
              let* op = oneofl [ "&&"; "||" ] in
              let* a = self (depth - 1) in
              let* b = self (depth - 1) in
              return (Ref.Bin (op, a, b)) );
            (1, self (depth - 1) >|= fun e -> Ref.Un ("-", e));
            (1, self (depth - 1) >|= fun e -> Ref.Un ("~", e));
            (1, self (depth - 1) >|= fun e -> Ref.Un ("!", e));
            ( 1,
              let* c = self (depth - 1) in
              let* t = self (depth - 1) in
              let* f = self (depth - 1) in
              return (Ref.Cond (c, t, f)) ) ])
    4

let run_guest source =
  let program = Ptaint_runtime.Runtime.compile source in
  Ptaint_sim.Sim.run program

let prop_expr_agrees =
  QCheck2.Test.make ~count:120 ~name:"compiled expression = reference evaluation"
    ~print:(fun (e, va, vb) -> Printf.sprintf "a=%d b=%d expr=%s" va vb (Ref.render e))
    QCheck2.Gen.(triple expr_gen (int_range (-50) 50) (int_range (-50) 50))
    (fun (e, va, vb) ->
      let env = [| Ref.mask va; Ref.mask vb; Ref.mask 13 |] in
      let expected = Ref.signed (Ref.eval env e) in
      let source =
        Printf.sprintf
          "int main(void) { int a = %d; int b = %d; int c = 13; printf(\"%%d\", %s); return 0; }"
          va vb (Ref.render e)
      in
      let r = run_guest source in
      match r.Ptaint_sim.Sim.outcome with
      | Ptaint_sim.Sim.Exited 0 ->
        if r.Ptaint_sim.Sim.stdout = string_of_int expected then true
        else
          QCheck2.Test.fail_reportf "expr %s: guest printed %s, reference %d" (Ref.render e)
            r.Ptaint_sim.Sim.stdout expected
      | o ->
        QCheck2.Test.fail_reportf "expr %s: guest %s" (Ref.render e)
          (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome o))

(* --- allocator trace fuzzing --- *)

type op = Alloc of int * int * int | Free of int | Check of int  (* slot, size, fill *)

let trace_gen =
  let open QCheck2.Gen in
  let slots = 6 in
  let step = oneof
      [ (triple (int_range 0 (slots - 1)) (int_range 0 200) (int_range 1 255)
         >|= fun (s, size, fill) -> Alloc (s, size, fill));
        (int_range 0 (slots - 1) >|= fun s -> Free s);
        (int_range 0 (slots - 1) >|= fun s -> Check s) ]
  in
  list_size (int_range 5 40) step

(* Render a trace as a guest program with inline integrity checks; the
   OCaml model tracks slot liveness so frees and checks are valid. *)
let render_ops ops =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "char *slots[8];\nint sizes[8];\nint fills[8];\nint main(void) {\n";
  Buffer.add_string buf "  int i;\n  for (i = 0; i < 8; i++) slots[i] = 0;\n";
  let live = Array.make 8 false in
  List.iter
    (fun op ->
      match op with
      | Alloc (s, size, fill) ->
        if live.(s) then Buffer.add_string buf (Printf.sprintf "  free(slots[%d]);\n" s);
        live.(s) <- true;
        Buffer.add_string buf
          (Printf.sprintf
             "  slots[%d] = malloc(%d); if (!slots[%d]) return 90;\n\
             \  sizes[%d] = %d; fills[%d] = %d; memset(slots[%d], %d, %d);\n"
             s size s s size s fill s fill size)
      | Free s ->
        if live.(s) then begin
          live.(s) <- false;
          Buffer.add_string buf (Printf.sprintf "  free(slots[%d]); slots[%d] = 0;\n" s s)
        end
      | Check s ->
        if live.(s) then
          Buffer.add_string buf
            (Printf.sprintf
               "  for (i = 0; i < sizes[%d]; i++) { if (slots[%d][i] != fills[%d]) return 91; }\n"
               s s s))
    ops;
  (* final integrity sweep and a fresh allocation to exercise the bins *)
  Buffer.add_string buf
    "  for (i = 0; i < 8; i++) {\n\
     \    if (slots[i]) { int k; for (k = 0; k < sizes[i]; k++) { if (slots[i][k] != fills[i]) return 92; } }\n\
     \  }\n\
     \  char *last = malloc(64); if (!last) return 93; memset(last, 7, 64);\n\
     \  return 0;\n}\n";
  Buffer.contents buf

let prop_allocator_ops =
  QCheck2.Test.make ~count:40 ~name:"allocator: random traces keep block contents intact"
    trace_gen
    (fun ops ->
      let r = run_guest (render_ops ops) in
      match r.Ptaint_sim.Sim.outcome with
      | Ptaint_sim.Sim.Exited 0 -> true
      | Ptaint_sim.Sim.Exited c -> QCheck2.Test.fail_reportf "guest check failed with %d" c
      | o ->
        QCheck2.Test.fail_reportf "guest died: %s"
          (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome o))

(* --- string functions vs OCaml --- *)

let printable_gen = QCheck2.Gen.(string_size ~gen:(char_range 'A' 'z') (int_range 0 30))

let prop_strlen_strcmp =
  QCheck2.Test.make ~count:60 ~name:"strlen/strcmp/strchr agree with OCaml"
    QCheck2.Gen.(pair printable_gen printable_gen)
    (fun (s1, s2) ->
      let expected_len = String.length s1 in
      let expected_cmp = compare s1 s2 in
      let expected_cmp = if expected_cmp < 0 then -1 else if expected_cmp > 0 then 1 else 0 in
      let expected_chr = match String.index_opt s1 'k' with Some i -> i | None -> -1 in
      let source =
        Printf.sprintf
          {| int main(void) {
               char *s1 = "%s";
               char *s2 = "%s";
               int c = strcmp(s1, s2);
               if (c < 0) c = -1;
               if (c > 0) c = 1;
               char *p = strchr(s1, 'k');
               int idx = p ? p - s1 : -1;
               printf("%%d %%d %%d", strlen(s1), c, idx);
               return 0;
             } |}
          (String.concat "" (List.map (fun c -> Printf.sprintf "\\x%02x" (Char.code c))
                               (List.init (String.length s1) (String.get s1))))
          (String.concat "" (List.map (fun c -> Printf.sprintf "\\x%02x" (Char.code c))
                               (List.init (String.length s2) (String.get s2))))
      in
      let r = run_guest source in
      match r.Ptaint_sim.Sim.outcome with
      | Ptaint_sim.Sim.Exited 0 ->
        let expected = Printf.sprintf "%d %d %d" expected_len expected_cmp expected_chr in
        if r.Ptaint_sim.Sim.stdout = expected then true
        else
          QCheck2.Test.fail_reportf "strings %S %S: got %S want %S" s1 s2
            r.Ptaint_sim.Sim.stdout expected
      | o ->
        QCheck2.Test.fail_reportf "guest died: %s" (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome o))

(* strcmp in our libc is byte-wise; OCaml compare on strings is also
   lexicographic byte-wise, so the above is sound. *)

let () =
  Alcotest.run "compiler-random"
    [ ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_expr_agrees; prop_allocator_ops; prop_strlen_strcmp ] ) ]
