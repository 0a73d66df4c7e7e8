(* Frame-layout facts used below (see Cgen): the first declared local
   sits highest (just under the saved FP at fp+0 and the return
   address at fp+4); arrays are contiguous; [gets] stops only at
   newline/EOF, so NUL bytes travel fine. *)

let exp1 =
  {|
/* Figure 2, stack buffer overflow (paper exp1).  buf[10] occupies
   fp-12..fp-3; input bytes 12..15 hit the saved frame pointer and
   16..19 the return address. */

void root_shell(void) {
  /* what a ret2libc payload jumps to when nothing stops it */
  puts("root shell: executing /bin/sh");
  exec("/bin/sh");
  exit(99);
}

void exp1(void) {
  char buf[10];
  gets(buf);
  printf("input accepted: %s\n", buf);
}

int main(void) {
  exp1();
  puts("exp1 returned normally");
  return 0;
}
|}

let exp1_buffer_to_ra = 16
let root_shell_symbol = "root_shell"

let exp2 =
  {|
/* Figure 2, heap corruption (paper exp2).  malloc(8) returns a chunk
   with a 12-byte user area; the free chunk behind it begins 12 bytes
   past the buffer, so overflowing input rewrites that chunk's size,
   fd and bk.  free(buf) then forward-coalesces: it unlinks the "free"
   neighbour and performs FD->bk = BK through the tainted fd. */

void exp2(void) {
  char *buf = malloc(8);
  char *scratch = malloc(64);
  free(scratch);                /* leaves a free chunk after buf */
  gets(buf);                    /* unchecked copy into the 8-byte buffer */
  free(buf);                    /* unlink of the corrupted neighbour */
  puts("exp2 done");
}

int main(void) {
  exp2();
  return 0;
}
|}

let exp2_user_to_next_header = 12

let exp3 =
  {|
/* Figure 2, format string (paper exp3).  The three int locals under
   buf mean vformat's argument pointer starts exactly three words
   below the tainted buffer: the paper's payload abcd%x%x%x%n walks
   over them and %n dereferences 0x64636261 ("abcd"). */

void exp3(int s) {
  char buf[100];
  int len;
  int i;
  int directives;
  memset(buf, 0, 100);
  len = recv(s, buf, 100, 0);
  directives = 0;
  for (i = 0; i < len; i++) {
    if (buf[i] == '%') directives++;
  }
  printf(buf);                  /* user data used as the format string */
}

int main(void) {
  int ls = socket();
  int c = accept(ls);
  if (c >= 0) exp3(c);
  puts("exp3 done");
  return 0;
}
|}

let exp4_fnptr =
  {|
/* Control-data variant: a stack function pointer right above a
   16-byte buffer.  The overflow replaces the pointer; the indirect
   call is a JALR on a tainted register, which both the paper's
   detector and a Minos-style control-data monitor catch. */

void root_shell(void) {
  puts("root shell: executing /bin/sh");
  exec("/bin/sh");
  exit(99);
}

void greet(void) {
  puts("hello from the configured handler");
}

void dispatch(void) {
  void (*handler)(void);
  char buf[16];
  handler = greet;
  gets(buf);
  handler();
}

int main(void) {
  dispatch();
  puts("dispatch returned");
  return 0;
}
|}

let exp4_buffer_to_fnptr = 16

let fn_integer_overflow =
  {|
/* Table 4 (A): integer overflow defeating an upper-bound-only check.
   The comparison launders the taintedness of i (Table 1 rule 4), so
   the negative-index store that corrupts `admin` raises no alert. */

int admin = 0;
int array[100];

int main(void) {
  unsigned ui = 0;
  int i;
  read(0, (char *)&ui, 4);
  i = ui;
  if (i < 100) {                /* flawed: no lower bound */
    array[i] = 1;
    puts("index stored");
  } else {
    puts("index rejected");
  }
  if (admin) puts("ADMIN MODE ENABLED");
  return 0;
}
|}

let fn_auth_flag =
  {|
/* Table 4 (B): overflow of a password buffer into the adjacent
   authentication flag.  No pointer is tainted; detection misses. */

int do_auth(char *pw) {
  return strcmp(pw, "secret") == 0;
}

void serve(void) {
  int auth;
  char pw[16];
  auth = 0;
  gets(pw);
  if (do_auth(pw)) auth = 1;
  if (auth) puts("ACCESS GRANTED");
  else puts("ACCESS DENIED");
}

int main(void) {
  serve();
  return 0;
}
|}

let fn_auth_flag_guarded =
  {|
/* Table 4 (B) hardened with the section 5.3 extension: the programmer
   annotates the authentication flag as never-tainted, so the same
   overflow that silently granted access now raises an alert the
   moment a tainted byte lands on it. */

int do_auth(char *pw) {
  return strcmp(pw, "secret") == 0;
}

void serve(void) {
  int auth;
  char pw[16];
  auth = 0;
  guard((char *)&auth, 4);
  gets(pw);
  if (do_auth(pw)) auth = 1;
  if (auth) puts("ACCESS GRANTED");
  else puts("ACCESS DENIED");
  unguard((char *)&auth);
}

int main(void) {
  serve();
  return 0;
}
|}

let fn_info_leak =
  {|
/* Table 4 (C): format-string information leak.  %x reads march the
   argument pointer over the stack and print it — including the
   secret one word below the buffer — without ever dereferencing a
   tainted word, so nothing fires.  A %n in the same spot does. */

void leak(int s) {
  char buf[100];
  int secret_key;
  secret_key = 0x12345678;
  memset(buf, 0, 100);
  recv(s, buf, 100, 0);
  fdprintf(s, buf);
  if (secret_key) return;
}

int main(void) {
  int ls = socket();
  int c = accept(ls);
  if (c >= 0) leak(c);
  return 0;
}
|}
