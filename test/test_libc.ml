(* Deeper guest-libc behaviour: the printf engine's directives and
   write-back variants, allocator coalescing, bounded I/O, and
   sub-word taint edges. *)

let run ?(stdin = "") ?(policy = Ptaint_cpu.Policy.default) src =
  let program = Ptaint_runtime.Runtime.compile src in
  let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.policy; stdin } in
  Ptaint_sim.Sim.run ~config program

let expect_stdout name expected src =
  let r = run src in
  (match r.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Exited 0 -> ()
   | o -> Alcotest.failf "%s: %a" name Ptaint_sim.Sim.pp_outcome o);
  Alcotest.(check string) name expected r.Ptaint_sim.Sim.stdout

let expect_exit name code src =
  let r = run src in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited c -> Alcotest.(check int) name code c
  | o -> Alcotest.failf "%s: %a" name Ptaint_sim.Sim.pp_outcome o

(* --- printf family --- *)

let test_format_directives () =
  expect_stdout "mixed" "<-1|ffffffff|4294967295|%|x>\n"
    {| int main(void) { printf("<%d|%x|%u|%%|%c>\n", -1, -1, -1, 'x'); return 0; } |}

let test_format_width_edge () =
  expect_stdout "width smaller than digits" "12345|12345\n"
    {| int main(void) { printf("%2d|%03d\n", 12345, 12345); return 0; } |};
  expect_stdout "string width" "[ok   ]\n"
    {| int main(void) { printf("[%5s]\n", "ok"); return 0; } |}

let test_hn_writes () =
  expect_exit "hn semantics" 1
    {| int main(void) {
         int full = 0x55555555;
         int half = 0x55555555;
         int byte = 0x55555555;
         char buf[64];
         /* counts: 4 after "abcd" */
         sprintf(buf, "abcd%n", &full);
         sprintf(buf, "abcd%hn", &half);
         sprintf(buf, "abcd%hhn", &byte);
         if (full != 4) return 2;
         if (half != 0x55550004) return 3;
         if (byte != 0x55555504) return 4;
         return 1;
       } |}

let test_snprintf_truncates () =
  expect_exit "snprintf cap" 1
    {| int main(void) {
         char buf[8];
         memset(buf, 'Z', 8);
         int n = snprintf(buf, 4, "%d", 123456);
         if (n != 6) return 2;        /* returns the untruncated length */
         if (strcmp(buf, "123") != 0) return 3;
         if (buf[4] != 'Z') return 4; /* beyond cap untouched */
         return 1;
       } |}

let test_sprintf_concat () =
  expect_stdout "sprintf chains" "a=1 b=2 c=3\n"
    {| int main(void) {
         char buf[64];
         char *p = buf;
         p += sprintf(p, "a=%d ", 1);
         p += sprintf(p, "b=%d ", 2);
         sprintf(p, "c=%d", 3);
         puts(buf);
         return 0;
       } |}

(* --- strings --- *)

let test_strncpy_pads () =
  expect_exit "strncpy" 1
    {| int main(void) {
         char buf[8];
         memset(buf, 'x', 8);
         strncpy(buf, "ab", 6);
         if (buf[0] != 'a' || buf[1] != 'b') return 2;
         if (buf[2] != 0 || buf[5] != 0) return 3;  /* zero padding */
         if (buf[6] != 'x') return 4;               /* beyond n untouched */
         strncpy(buf, "longstring", 4);             /* truncation, no NUL */
         if (strncmp(buf, "long", 4) != 0) return 5;
         return 1;
       } |}

let test_atoi_edges () =
  expect_exit "atoi" 1
    {| int main(void) {
         if (atoi("") != 0) return 2;
         if (atoi("   -0") != 0) return 3;
         if (atoi("+17") != 17) return 4;
         if (atoi("2147483647") != 2147483647) return 5;
         if (atoi("12abc34") != 12) return 6;
         return 1;
       } |}

(* --- allocator --- *)

let test_malloc_coalesce () =
  expect_exit "forward coalescing" 1
    {| int main(void) {
         /* three adjacent blocks; freeing middle then first must
            coalesce so a larger block fits in their place */
         char *a = malloc(100);
         char *b = malloc(100);
         char *c = malloc(100);
         if (!a || !b || !c) return 2;
         free(b);
         free(a);            /* coalesces with b */
         char *big = malloc(180);
         if (big != a) return 3;   /* fits exactly where a+b were */
         free(big);
         free(c);
         return 1;
       } |}

let test_malloc_zero_and_negative () =
  expect_exit "degenerate sizes" 1
    {| int main(void) {
         char *z = malloc(0);
         if (!z) return 2;          /* zero-size returns a real block */
         free(z);
         if (malloc(-5) != 0) return 3;  /* negative refused */
         return 1;
       } |}

let test_free_null () =
  expect_exit "free(NULL)" 0 {| int main(void) { free(0); return 0; } |}

(* --- bounded I/O --- *)

let test_readline_cap () =
  let r =
    run ~stdin:"abcdefghijklmnop\nnext"
      {| int main(void) {
           char buf[8];
           int n = readline(0, buf, 8);
           printf("%d %s\n", n, buf);
           return 0;
         } |}
  in
  Alcotest.(check string) "capped at 7" "7 abcdefg\n" r.Ptaint_sim.Sim.stdout

let test_gets_eof () =
  let r =
    run ~stdin:"no newline"
      {| int main(void) {
           char buf[32];
           int n = gets(buf);
           printf("%d:%s", n, buf);
           return 0;
         } |}
  in
  Alcotest.(check string) "eof terminates" "10:no newline" r.Ptaint_sim.Sim.stdout

(* --- sub-word taint edges --- *)

let test_halfword_taint () =
  (* storing a half whose low byte is tainted taints exactly one byte *)
  let r =
    run ~stdin:"\x21"
      {| char dst[4];
         int main(void) {
           char one[2];
           read(0, one, 1);
           dst[0] = one[0];   /* tainted byte */
           dst[1] = 'A';      /* clean byte */
           return 0;
         } |}
  in
  let mem = r.Ptaint_sim.Sim.image.Ptaint_asm.Loader.mem in
  let dst = Ptaint_asm.Program.symbol_exn r.Ptaint_sim.Sim.image.Ptaint_asm.Loader.program "dst" in
  let tainted a = Ptaint_taint.Tword.is_tainted (Ptaint_mem.Memory.peek_byte mem a) in
  Alcotest.(check bool) "byte 0 tainted" true (tainted dst);
  Alcotest.(check bool) "byte 1 clean" false (tainted (dst + 1))

let test_word_assembled_from_tainted_bytes () =
  (* building a word from tainted bytes via shifts and ORs keeps it
     tainted — the attack-relevant composition *)
  let r =
    run ~stdin:"\x10\x20\x30\x40" ~policy:Ptaint_cpu.Policy.default
      {| int main(void) {
           char b[4];
           read(0, b, 4);
           int w = b[0] | (b[1] << 8) | (b[2] << 16) | (b[3] << 24);
           int *p = (int *)w;
           return *p;           /* tainted pointer -> alert */
         } |}
  in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Alert a ->
    Alcotest.(check int) "assembled pointer" 0x40302010
      (Ptaint_taint.Tword.value a.Ptaint_cpu.Machine.reg_value)
  | o -> Alcotest.failf "expected alert, got %a" Ptaint_sim.Sim.pp_outcome o

(* --- resource exhaustion --- *)

let test_stack_overflow_faults () =
  let r =
    run
      {| int deep(int n) {
           char pad[512];
           pad[0] = n;
           if (n == 0) return pad[0];
           return deep(n - 1) + 1;
         }
         int main(void) { return deep(1000000); } |}
  in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Fault (Ptaint_cpu.Machine.Segfault _) -> ()
  | o -> Alcotest.failf "expected stack segfault, got %a" Ptaint_sim.Sim.pp_outcome o

let () =
  Alcotest.run "libc"
    [ ( "printf",
        [ Alcotest.test_case "directives" `Quick test_format_directives;
          Alcotest.test_case "widths" `Quick test_format_width_edge;
          Alcotest.test_case "%n/%hn/%hhn" `Quick test_hn_writes;
          Alcotest.test_case "snprintf cap" `Quick test_snprintf_truncates;
          Alcotest.test_case "sprintf chaining" `Quick test_sprintf_concat ] );
      ( "strings",
        [ Alcotest.test_case "strncpy" `Quick test_strncpy_pads;
          Alcotest.test_case "atoi edges" `Quick test_atoi_edges ] );
      ( "allocator",
        [ Alcotest.test_case "coalescing" `Quick test_malloc_coalesce;
          Alcotest.test_case "degenerate sizes" `Quick test_malloc_zero_and_negative;
          Alcotest.test_case "free(NULL)" `Quick test_free_null ] );
      ( "io",
        [ Alcotest.test_case "readline cap" `Quick test_readline_cap;
          Alcotest.test_case "gets at EOF" `Quick test_gets_eof ] );
      ( "taint edges",
        [ Alcotest.test_case "byte stores" `Quick test_halfword_taint;
          Alcotest.test_case "assembled pointer" `Quick test_word_assembled_from_tainted_bytes ] );
      ( "limits",
        [ Alcotest.test_case "stack overflow" `Quick test_stack_overflow_faults ] ) ]
