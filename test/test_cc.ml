(* Mini-C compiler end-to-end tests: compile, run on the simulated
   machine, check behaviour. *)

let run ?(config = Ptaint_sim.Sim.default_config) src =
  Ptaint_sim.Sim.run (Ptaint_runtime.Runtime.compile src)
  |> fun r ->
  ignore config;
  r

let run_cfg config src = Ptaint_sim.Sim.run ~config (Ptaint_runtime.Runtime.compile src)

let expect_stdout ?config name expected src =
  let r = match config with Some c -> run_cfg c src | None -> run src in
  (match r.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Exited _ -> ()
   | o -> Alcotest.failf "%s: unexpected outcome %a" name Ptaint_sim.Sim.pp_outcome o);
  Alcotest.(check string) name expected r.Ptaint_sim.Sim.stdout

let expect_exit name code src =
  let r = run src in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited c -> Alcotest.(check int) name code c
  | o -> Alcotest.failf "%s: unexpected outcome %a" name Ptaint_sim.Sim.pp_outcome o

(* --- basics --- *)

let test_return_code () = expect_exit "return 42" 42 "int main(void) { return 42; }"

let test_arith () =
  expect_exit "arith" 15
    {| int main(void) { int a = 2; int b = 3; return a * b + (100 - 85) / 5 * 3 + 10 % 4 - 2 * (b - a); } |}

let test_puts () = expect_stdout "puts" "hello\n" {| int main(void) { puts("hello"); return 0; } |}

let test_if_else () =
  expect_stdout "if" "big\n"
    {| int main(void) { int x = 10; if (x > 5) puts("big"); else puts("small"); return 0; } |}

let test_while_loop () =
  expect_exit "while sum" 55
    {| int main(void) { int i = 1; int s = 0; while (i <= 10) { s += i; i++; } return s; } |}

let test_for_loop () =
  expect_exit "for sum" 45
    {| int main(void) { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; } |}

let test_do_while () =
  expect_exit "do-while" 5
    {| int main(void) { int i = 0; do { i++; } while (i < 5); return i; } |}

let test_break_continue () =
  expect_exit "break/continue" 12
    {| int main(void) {
         int s = 0;
         int i;
         for (i = 0; i < 100; i++) {
           if (i % 2) continue;
           if (i > 6) break;
           s += i;   /* 0+2+4+6 */
         }
         return s;
       } |}

let test_recursion () =
  expect_exit "fib" 55
    {| int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
       int main(void) { return fib(10); } |}

let test_logical_ops () =
  expect_exit "logical" 1
    {| int side_effects = 0;
       int bump(void) { side_effects++; return 1; }
       int main(void) {
         int a = 0;
         if (a && bump()) return 9;          /* short circuit: no bump */
         if (!(a || bump())) return 8;       /* bump runs once */
         return side_effects;
       } |}

let test_ternary () =
  expect_exit "ternary" 7 {| int main(void) { int x = 3; return x > 2 ? 7 : 1; } |}

let test_unsigned_compare () =
  (* 0xFFFFFFFF unsigned is large, signed is -1. *)
  expect_exit "unsigned cmp" 3
    {| int main(void) {
         unsigned u = 0xFFFFFFFF;
         int s = -1;
         int r = 0;
         if (u > 100) r += 1;
         if (s < 100) r += 2;
         return r;
       } |}

let test_shifts_and_bits () =
  expect_exit "bits" 1
    {| int main(void) {
         int x = 0xF0;
         unsigned u = 0x80000000;
         if ((x >> 4) != 0xF) return 2;
         if ((x << 1) != 0x1E0) return 3;
         if ((u >> 31) != 1) return 4;       /* unsigned: logical shift */
         if (((0 - 16) >> 2) != (0 - 4)) return 5;  /* signed: arithmetic */
         if ((x & 0x30) != 0x30) return 6;
         if ((x | 0x0F) != 0xFF) return 7;
         if ((x ^ 0xFF) != 0x0F) return 8;
         if ((~0) != (0 - 1)) return 9;
         return 1;
       } |}

(* --- pointers, arrays, strings --- *)

let test_pointer_basics () =
  expect_exit "pointers" 30
    {| int main(void) {
         int x = 10;
         int *p = &x;
         *p = 20;
         int **pp = &p;
         **pp += 10;
         return x;
       } |}

let test_array_index () =
  expect_exit "array" 6
    {| int main(void) {
         int a[5];
         int i;
         for (i = 0; i < 5; i++) a[i] = i;
         return a[1] + a[2] + a[3];
       } |}

let test_pointer_arith () =
  expect_exit "ptr arith" 42
    {| int main(void) {
         int a[4] = {1, 41, 3, 4};
         int *p = a;
         p = p + 1;
         int *q = &a[3];
         if (q - p != 2) return 9;
         return *p + 1;
       } |}

let test_char_ops () =
  expect_stdout "chars" "BCD\n"
    {| int main(void) {
         char buf[8];
         int i;
         for (i = 0; i < 3; i++) buf[i] = 'A' + 1 + i;
         buf[3] = 0;
         puts(buf);
         return 0;
       } |}

let test_string_functions () =
  expect_exit "strings" 1
    {| int main(void) {
         char buf[32];
         strcpy(buf, "hello ");
         strcat(buf, "world");
         if (strlen(buf) != 11) return 2;
         if (strcmp(buf, "hello world") != 0) return 3;
         if (strncmp(buf, "hello x", 5) != 0) return 4;
         if (strchr(buf, 'w') != buf + 6) return 5;
         if (strstr(buf, "lo wo") != buf + 3) return 6;
         char copy[32];
         memcpy(copy, buf, 12);
         if (memcmp(copy, buf, 12) != 0) return 7;
         memset(copy, 'x', 3);
         if (copy[0] != 'x' || copy[2] != 'x' || copy[3] != 'l') return 8;
         return 1;
       } |}

let test_atoi () =
  expect_exit "atoi" 1
    {| int main(void) {
         if (atoi("123") != 123) return 2;
         if (atoi("-45") != -45) return 3;
         if (atoi("  78x") != 78) return 4;
         if (atoi("0") != 0) return 5;
         return 1;
       } |}

let test_global_data () =
  expect_exit "globals" 1
    {| int counter = 5;
       int table[4] = {10, 20, 30, 40};
       char greeting[8] = "hi";
       char *msg = "pointer";
       int main(void) {
         counter += table[2];
         if (counter != 35) return 2;
         if (greeting[0] != 'h' || greeting[2] != 0) return 3;
         if (strlen(msg) != 7) return 4;
         return 1;
       } |}

(* --- structs --- *)

let test_structs () =
  expect_exit "structs" 1
    {| struct point { int x; int y; };
       struct rect { struct point a; struct point b; char tag; };
       int area(struct rect *r) {
         return (r->b.x - r->a.x) * (r->b.y - r->a.y);
       }
       int main(void) {
         struct rect r;
         r.a.x = 1; r.a.y = 2;
         r.b.x = 5; r.b.y = 8;
         r.tag = 'R';
         if (sizeof(struct point) != 8) return 2;
         if (area(&r) != 24) return 3;
         struct point *p = &r.a;
         p->x += 100;
         if (r.a.x != 101) return 4;
         return 1;
       } |}

let test_struct_array () =
  expect_exit "struct array" 60
    {| struct item { int v; char name[4]; };
       struct item items[3];
       int main(void) {
         int i;
         for (i = 0; i < 3; i++) items[i].v = (i + 1) * 10;
         return items[0].v + items[1].v + items[2].v;
       } |}

(* --- function pointers --- *)

let test_function_pointers () =
  expect_exit "fn ptrs" 9
    {| int add(int a, int b) { return a + b; }
       int mul(int a, int b) { return a * b; }
       int apply(int (*f)(int, int), int x, int y) { return f(x, y); }
       int (*table[2])(int, int);
       int main(void) {
         int (*op)(int, int) = add;
         int r = op(2, 3);          /* 5 */
         op = mul;
         r = r + apply(op, 2, 2);   /* +4 */
         return r;
       } |}

(* --- varargs / printf --- *)

let test_printf_basic () =
  expect_stdout "printf" "n=42 u=3000000000 hex=2a c=Z s=str 100%\n"
    {| int main(void) {
         printf("n=%d u=%u hex=%x c=%c s=%s 100%%\n", 42, 3000000000, 42, 'Z', "str");
         return 0;
       } |}

let test_printf_width () =
  expect_stdout "printf width" "[   42][00042][2a      ]ok\n"
    {| int main(void) {
         char buf[64];
         sprintf(buf, "[%5d][%05d][%x      ]", 42, 42, 42);
         printf("%s", buf);
         puts("ok");
         return 0;
       } |}

let test_printf_negative () =
  expect_stdout "printf negative" "-7 -2147483648\n"
    {| int main(void) { printf("%d %d\n", -7, 0x80000000); return 0; } |}

let test_percent_n () =
  expect_exit "%n" 5
    {| int main(void) {
         int count = 0;
         char buf[32];
         sprintf(buf, "abcde%n", &count);
         return count;
       } |}

let test_sprintf_vararg_walk () =
  expect_stdout "vararg walk" "1 2 3 4 5 6\n"
    {| int main(void) {
         printf("%d %d %d %d %d %d\n", 1, 2, 3, 4, 5, 6);
         return 0;
       } |}

(* --- malloc/free --- *)

let test_malloc_basic () =
  expect_exit "malloc" 1
    {| int main(void) {
         char *p = malloc(100);
         if (!p) return 2;
         memset(p, 'a', 100);
         int *q = (int *)malloc(4 * sizeof(int));
         q[0] = 1; q[3] = 4;
         if (q[0] + q[3] != 5) return 3;
         free(p);
         free((char *)q);
         char *r = malloc(50);
         if (!r) return 4;
         free(r);
         return 1;
       } |}

let test_malloc_reuse () =
  expect_exit "free list reuse" 1
    {| int main(void) {
         char *a = malloc(64);
         free(a);
         char *b = malloc(64);
         if (a != b) return 2;   /* first fit should hand the chunk back */
         free(b);
         return 1;
       } |}

let test_malloc_many () =
  expect_exit "malloc stress" 1
    {| int main(void) {
         char *ptrs[50];
         int i;
         for (i = 0; i < 50; i++) {
           ptrs[i] = malloc(10 + i * 7);
           if (!ptrs[i]) return 2;
           memset(ptrs[i], i, 10);
         }
         for (i = 0; i < 50; i += 2) free(ptrs[i]);
         for (i = 1; i < 50; i += 2) {
           if (ptrs[i][0] != i) return 3;  /* odd blocks untouched */
           free(ptrs[i]);
         }
         char *big = malloc(2000);
         if (!big) return 4;
         free(big);
         return 1;
       } |}

let test_calloc_zeroes () =
  expect_exit "calloc" 1
    {| int main(void) {
         int *p = (int *)calloc(8, sizeof(int));
         int i;
         for (i = 0; i < 8; i++) {
           if (p[i] != 0) return 2;
         }
         free((char *)p);
         return 1;
       } |}

(* --- command line + stdin --- *)

let test_argv () =
  let config = { Ptaint_sim.Sim.default_config with
                 Ptaint_sim.Sim.argv = [ "prog"; "alpha"; "beta" ] } in
  expect_stdout ~config "argv" "3 alpha beta\n"
    {| int main(int argc, char **argv) {
         printf("%d %s %s\n", argc, argv[1], argv[2]);
         return 0;
       } |}

let test_stdin_gets () =
  let config = { Ptaint_sim.Sim.default_config with
                 Ptaint_sim.Sim.stdin = "typed line\nrest" } in
  expect_stdout ~config "gets" "got: typed line\n"
    {| int main(void) {
         char buf[64];
         gets(buf);
         printf("got: %s\n", buf);
         return 0;
       } |}

(* --- misc semantics --- *)

let test_compound_assign () =
  expect_exit "compound" 1
    {| int main(void) {
         int x = 10;
         x += 5; x -= 3; x *= 2; x /= 3; x %= 5;  /* ((10+5-3)*2)/3 = 8; 8%5=3 *)  */
         if (x != 3) return 2;
         x <<= 4;
         x >>= 2;
         if (x != 12) return 3;
         x |= 1; x &= 0xD; x ^= 0x2;
         if (x != 0xF) return 4;
         char buf[4];
         buf[0] = 0;
         buf[0] += 65;
         if (buf[0] != 'A') return 5;
         int a[3] = {1, 2, 3};
         a[1] += 10;
         if (a[1] != 12) return 6;
         return 1;
       } |}

let test_incdec () =
  expect_exit "incdec" 1
    {| int main(void) {
         int i = 5;
         if (i++ != 5) return 2;
         if (i != 6) return 3;
         if (++i != 7) return 4;
         if (i-- != 7) return 5;
         if (--i != 5) return 6;
         int a[3] = {10, 20, 30};
         int *p = a;
         if (*p++ != 10) return 7;
         if (*p != 20) return 8;
         return 1;
       } |}

let test_sizeof () =
  expect_exit "sizeof" 1
    {| struct s { int a; char b; int c; };
       int main(void) {
         if (sizeof(int) != 4) return 2;
         if (sizeof(char) != 1) return 3;
         if (sizeof(char *) != 4) return 4;
         if (sizeof(struct s) != 12) return 5;
         int arr[10];
         if (sizeof(arr) != 40) return 6;
         return 1;
       } |}

let test_multi_decl () =
  expect_exit "multi declarators" 6
    {| int main(void) { int a = 1, b = 2, c = 3; return a + b + c; } |}

let test_switch () =
  expect_exit "switch dispatch" 1
    {| int classify(int x) {
         int r = 0;
         switch (x) {
           case 1:
           case 2:
             r = 10;          /* fallthrough from 1 */
             break;
           case 3:
             r = 20;          /* falls through into default */
           default:
             r += 5;
             break;
           case -4:
             r = 40;
             break;
         }
         return r;
       }
       int main(void) {
         if (classify(1) != 10) return 2;
         if (classify(2) != 10) return 3;
         if (classify(3) != 25) return 4;
         if (classify(99) != 5) return 5;
         if (classify(-4) != 40) return 6;
         return 1;
       } |}

let test_switch_in_loop () =
  expect_stdout "switch+loop+break" "digit digit other X\n"
    {| int main(void) {
         char *s = "12aX";
         int i;
         for (i = 0; s[i]; i++) {
           switch (s[i]) {
             case '1':
             case '2':
               printf("digit ");
               break;
             case 'X':
               printf("X");
               break;
             default:
               printf("other ");
               break;
           }
         }
         puts("");
         return 0;
       } |}

let test_nested_scopes () =
  expect_exit "scoping" 1
    {| int x = 100;
       int main(void) {
         int x = 1;
         {
           int x = 2;
           if (x != 2) return 3;
         }
         if (x != 1) return 4;
         return 1;
       } |}

let test_rand_deterministic () =
  expect_exit "rand" 1
    {| int main(void) {
         srand(7);
         int a = rand();
         srand(7);
         int b = rand();
         if (a != b) return 2;
         if (a < 0 || a > 0x7fff) return 3;
         return 1;
       } |}

(* --- compile errors --- *)

let expect_compile_error name src =
  match Ptaint_runtime.Runtime.compile src with
  | exception Ptaint_cc.Cc.Error _ -> ()
  | _ -> Alcotest.failf "%s: expected a compile error" name

let test_errors () =
  expect_compile_error "undefined variable" "int main(void) { return nope; }";
  expect_compile_error "undefined function" "int main(void) { missing(1); }";
  expect_compile_error "arity" "int f(int a) { return a; } int main(void) { return f(1, 2); }";
  expect_compile_error "bad field" "struct s { int a; }; int main(void) { struct s v; return v.b; }";
  expect_compile_error "not lvalue" "int main(void) { 3 = 4; return 0; }";
  expect_compile_error "break outside loop" "int main(void) { break; }";
  expect_compile_error "syntax" "int main(void) { return 1 +; }"

(* --- taint integration: C code, tainted input --- *)

let test_c_taint_flow () =
  (* A tainted word read from stdin and used as a pointer must alert. *)
  let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = "aaaa" } in
  let r =
    run_cfg config
      {| int main(void) {
           char buf[8];
           read(0, buf, 4);
           int *p = *(int **)buf;
           return *p;
         } |}
  in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Alert a ->
    Alcotest.(check int) "tainted pointer value" 0x61616161
      (Ptaint_taint.Tword.value a.Ptaint_cpu.Machine.reg_value)
  | o -> Alcotest.failf "expected alert, got %a" Ptaint_sim.Sim.pp_outcome o

let test_c_validation_launders () =
  (* Bounds-checked values are trusted (Table 1 rule 4 + register
     residency): indexing with a checked tainted integer is silent. *)
  let config = { Ptaint_sim.Sim.default_config with
                 Ptaint_sim.Sim.stdin = "\003\000\000\000" } in
  let r =
    run_cfg config
      {| int table[8] = {0, 10, 20, 30, 40, 50, 60, 70};
         int main(void) {
           int idx = 0;
           read(0, (char *)&idx, 4);
           if (idx >= 0 && idx < 8) return table[idx];
           return -1;
         } |}
  in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited 30 -> ()
  | o -> Alcotest.failf "expected clean exit 30, got %a" Ptaint_sim.Sim.pp_outcome o

let test_c_unchecked_index_alerts () =
  (* Without validation the tainted index taints the address. *)
  let config = { Ptaint_sim.Sim.default_config with
                 Ptaint_sim.Sim.stdin = "\003\000\000\000" } in
  let r =
    run_cfg config
      {| int table[8] = {0, 10, 20, 30, 40, 50, 60, 70};
         int main(void) {
           int idx = 0;
           read(0, (char *)&idx, 4);
           return table[idx];
         } |}
  in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Alert _ -> ()
  | o -> Alcotest.failf "expected alert, got %a" Ptaint_sim.Sim.pp_outcome o

let () =
  Alcotest.run "cc"
    [ ( "basics",
        [ Alcotest.test_case "return" `Quick test_return_code;
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "puts" `Quick test_puts;
          Alcotest.test_case "if/else" `Quick test_if_else;
          Alcotest.test_case "while" `Quick test_while_loop;
          Alcotest.test_case "for" `Quick test_for_loop;
          Alcotest.test_case "do-while" `Quick test_do_while;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "logical" `Quick test_logical_ops;
          Alcotest.test_case "ternary" `Quick test_ternary;
          Alcotest.test_case "unsigned" `Quick test_unsigned_compare;
          Alcotest.test_case "bits" `Quick test_shifts_and_bits ] );
      ( "memory",
        [ Alcotest.test_case "pointers" `Quick test_pointer_basics;
          Alcotest.test_case "arrays" `Quick test_array_index;
          Alcotest.test_case "pointer arith" `Quick test_pointer_arith;
          Alcotest.test_case "chars" `Quick test_char_ops;
          Alcotest.test_case "globals" `Quick test_global_data ] );
      ( "libc",
        [ Alcotest.test_case "strings" `Quick test_string_functions;
          Alcotest.test_case "atoi" `Quick test_atoi;
          Alcotest.test_case "malloc" `Quick test_malloc_basic;
          Alcotest.test_case "free-list reuse" `Quick test_malloc_reuse;
          Alcotest.test_case "malloc stress" `Quick test_malloc_many;
          Alcotest.test_case "calloc" `Quick test_calloc_zeroes;
          Alcotest.test_case "rand" `Quick test_rand_deterministic ] );
      ( "structs/fnptr",
        [ Alcotest.test_case "structs" `Quick test_structs;
          Alcotest.test_case "struct arrays" `Quick test_struct_array;
          Alcotest.test_case "function pointers" `Quick test_function_pointers ] );
      ( "printf",
        [ Alcotest.test_case "basic" `Quick test_printf_basic;
          Alcotest.test_case "width" `Quick test_printf_width;
          Alcotest.test_case "negative" `Quick test_printf_negative;
          Alcotest.test_case "%n" `Quick test_percent_n;
          Alcotest.test_case "vararg walk" `Quick test_sprintf_vararg_walk ] );
      ( "io",
        [ Alcotest.test_case "argv" `Quick test_argv;
          Alcotest.test_case "gets" `Quick test_stdin_gets ] );
      ( "semantics",
        [ Alcotest.test_case "compound assign" `Quick test_compound_assign;
          Alcotest.test_case "inc/dec" `Quick test_incdec;
          Alcotest.test_case "sizeof" `Quick test_sizeof;
          Alcotest.test_case "multi decl" `Quick test_multi_decl;
          Alcotest.test_case "switch" `Quick test_switch;
          Alcotest.test_case "switch in loop" `Quick test_switch_in_loop;
          Alcotest.test_case "scoping" `Quick test_nested_scopes ] );
      ("errors", [ Alcotest.test_case "compile errors" `Quick test_errors ]);
      ( "taint",
        [ Alcotest.test_case "tainted pointer alerts" `Quick test_c_taint_flow;
          Alcotest.test_case "validated index silent" `Quick test_c_validation_launders;
          Alcotest.test_case "unchecked index alerts" `Quick test_c_unchecked_index_alerts ] ) ]
