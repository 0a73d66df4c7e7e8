(* C declarations for the syscall stubs and libc, prepended to
   application sources. *)
let prototypes =
  {|
/* syscall stubs (implemented in assembly) */
int read(int fd, char *buf, int n);
int write(int fd, char *buf, int n);
int open(char *path, int flags);
int close(int fd);
char *sbrk(int incr);
int recv(int s, char *buf, int n, int flags);
int send(int s, char *buf, int n, int flags);
int socket(void);
int accept(int s);
int getuid(void);
int setuid(int uid);
int exec(char *path);
int time(void);
int getpid(void);
void exit(int code);
int guard(char *p, int n);    /* annotate p[0..n) as never-tainted (5.3 extension) */
int unguard(char *p);

/* libc */
char *getenv(char *name);
int strlen(char *s);
char *strcpy(char *d, char *s);
char *strncpy(char *d, char *s, int n);
char *strcat(char *d, char *s);
int strcmp(char *a, char *b);
int strncmp(char *a, char *b, int n);
char *strchr(char *s, int c);
char *strstr(char *h, char *needle);
char *memcpy(char *d, char *s, int n);
char *memset(char *d, int c, int n);
int memcmp(char *a, char *b, int n);
int atoi(char *s);
int abs(int x);
void srand(int seed);
int rand(void);
char *malloc(int n);
char *calloc(int count, int size);
void free(char *p);
int putchar(int c);
int puts(char *s);
int gets(char *buf);
int readline(int fd, char *buf, int cap);
int vformat(char *out, int cap, char *fmt, char *ap);
int printf(char *fmt, ...);
int sprintf(char *out, char *fmt, ...);
int snprintf(char *out, int cap, char *fmt, ...);
int fdprintf(int fd, char *fmt, ...);
|}

(* string.h / stdlib.h / stdio.h subset implementation (Mini-C). *)
let libc_c =
  {|
/* ---- environment ---- */

char **environ = 0;   /* filled in by crt0 before main runs */

char *getenv(char *name) {
  if (!environ) return 0;
  int n = strlen(name);
  int i;
  for (i = 0; environ[i]; i++) {
    if (strncmp(environ[i], name, n) == 0 && environ[i][n] == '=') {
      return environ[i] + n + 1;
    }
  }
  return 0;
}

/* ---- string.h subset ---- */

int strlen(char *s) {
  int n = 0;
  while (s[n]) n++;
  return n;
}

char *strcpy(char *d, char *s) {
  int i = 0;
  while (s[i]) { d[i] = s[i]; i++; }
  d[i] = 0;
  return d;
}

char *strncpy(char *d, char *s, int n) {
  int i = 0;
  while (i < n && s[i]) { d[i] = s[i]; i++; }
  while (i < n) { d[i] = 0; i++; }
  return d;
}

char *strcat(char *d, char *s) {
  strcpy(d + strlen(d), s);
  return d;
}

int strcmp(char *a, char *b) {
  int i = 0;
  while (a[i] && a[i] == b[i]) i++;
  return a[i] - b[i];
}

int strncmp(char *a, char *b, int n) {
  int i = 0;
  while (i < n) {
    if (a[i] != b[i]) return a[i] - b[i];
    if (!a[i]) return 0;
    i++;
  }
  return 0;
}

char *strchr(char *s, int c) {
  int i = 0;
  while (s[i]) {
    if (s[i] == c) return s + i;
    i++;
  }
  if (c == 0) return s + i;
  return 0;
}

char *strstr(char *h, char *needle) {
  int n = strlen(needle);
  if (n == 0) return h;
  int i = 0;
  while (h[i]) {
    if (strncmp(h + i, needle, n) == 0) return h + i;
    i++;
  }
  return 0;
}

char *memcpy(char *d, char *s, int n) {
  int i;
  for (i = 0; i < n; i++) d[i] = s[i];
  return d;
}

char *memset(char *d, int c, int n) {
  int i;
  for (i = 0; i < n; i++) d[i] = c;
  return d;
}

int memcmp(char *a, char *b, int n) {
  int i;
  for (i = 0; i < n; i++) {
    if (a[i] != b[i]) return a[i] - b[i];
  }
  return 0;
}

/* ---- stdlib.h subset ---- */

int atoi(char *s) {
  int n = 0;
  int neg = 0;
  int i = 0;
  while (s[i] == ' ' || s[i] == '\t') i++;
  if (s[i] == '-') { neg = 1; i++; }
  else if (s[i] == '+') i++;
  while (s[i]) {
    char c = s[i];
    if (c < '0' || c > '9') break;
    n = n * 10 + (c - '0');
    i++;
  }
  if (neg) return 0 - n;
  return n;
}

int abs(int x) {
  if (x < 0) return 0 - x;
  return x;
}

int _rand_state = 12345;

void srand(int seed) { _rand_state = seed; }

int rand(void) {
  _rand_state = _rand_state * 1103515245 + 12345;
  return (_rand_state >> 16) & 0x7fff;
}

/* ---- stdio.h subset ---- */

int putchar(int c) {
  char b[4];
  b[0] = c;
  write(1, b, 1);
  return c;
}

int puts(char *s) {
  write(1, s, strlen(s));
  write(1, "\n", 1);
  return 0;
}

/* The classic unbounded gets() — reads until newline or EOF with no
   bound on the destination: the stack-smash vulnerability surface. */
int gets(char *buf) {
  int i = 0;
  char c[4];
  while (read(0, c, 1) == 1) {
    if (c[0] == '\n') break;
    buf[i] = c[0];
    i++;
  }
  buf[i] = 0;
  return i;
}

/* Bounded line read, for code that is *not* meant to be vulnerable. */
int readline(int fd, char *buf, int cap) {
  int i = 0;
  char c[4];
  while (i < cap - 1) {
    if (read(fd, c, 1) != 1) break;
    if (c[0] == '\n') break;
    buf[i] = c[0];
    i++;
  }
  buf[i] = 0;
  return i;
}

int _fmt_putc(char *out, int cap, int pos, int c) {
  if (pos < cap - 1) out[pos] = c;
  return pos + 1;
}

/* The printf-family engine.  Supports %d %u %x %c %s %% with field
   width and zero padding, and the %n / %hn / %hhn write-back
   directives.  The argument pointer [ap] walks words upward through
   the caller's frame, exactly the mechanics the format-string attack
   abuses: with a user-controlled format string, %x moves [ap] into
   attacker data and %n dereferences an attacker-supplied word. */
int vformat(char *out, int cap, char *fmt, char *ap) {
  int pos = 0;
  int i = 0;
  while (fmt[i]) {
    char c = fmt[i];
    if (c != '%') {
      pos = _fmt_putc(out, cap, pos, c);
      i++;
      continue;
    }
    i++;
    int zero_pad = 0;
    int width = 0;
    if (fmt[i] == '0') { zero_pad = 1; i++; }
    while (fmt[i] >= '0' && fmt[i] <= '9') {
      width = width * 10 + (fmt[i] - '0');
      i++;
    }
    int half = 0;
    while (fmt[i] == 'h') { half++; i++; }
    char d = fmt[i];
    if (d) i++;
    if (d == '%') pos = _fmt_putc(out, cap, pos, '%');
    else if (d == 'c') {
      int v = *(int *)ap;
      ap = ap + 4;
      pos = _fmt_putc(out, cap, pos, v);
    }
    else if (d == 's') {
      char *s = *(char **)ap;
      ap = ap + 4;
      int k = 0;
      while (s[k]) {
        pos = _fmt_putc(out, cap, pos, s[k]);
        k++;
      }
      while (k < width) { pos = _fmt_putc(out, cap, pos, ' '); k++; }
    }
    else if (d == 'd' || d == 'u' || d == 'x') {
      unsigned v = *(unsigned *)ap;
      ap = ap + 4;
      char tmp[16];
      int neg = 0;
      if (d == 'd' && (int)v < 0) {
        neg = 1;
        v = 0 - v;
      }
      int k = 0;
      if (v == 0) { tmp[k] = '0'; k++; }
      while (v) {
        int digit;
        if (d == 'x') { digit = v % 16; v = v / 16; }
        else { digit = v % 10; v = v / 10; }
        if (digit < 10) tmp[k] = '0' + digit;
        else tmp[k] = 'a' + (digit - 10);
        k++;
      }
      if (neg) { tmp[k] = '-'; k++; }
      int printed = k;
      while (printed < width) {
        pos = _fmt_putc(out, cap, pos, zero_pad ? '0' : ' ');
        printed++;
      }
      while (k > 0) { k--; pos = _fmt_putc(out, cap, pos, tmp[k]); }
    }
    else if (d == 'n') {
      /* write the running count through the next argument word —
         with a tainted format string this dereferences an
         attacker-chosen pointer, the store the detector catches */
      char *p = *(char **)ap;
      ap = ap + 4;
      if (half >= 2) p[0] = pos;
      else if (half == 1) {
        p[0] = pos;
        p[1] = pos >> 8;
      }
      else {
        int *q = (int *)p;
        *q = pos;
      }
    }
    else pos = _fmt_putc(out, cap, pos, d);
  }
  if (cap > 0) {
    int end = pos;
    if (end > cap - 1) end = cap - 1;
    out[end] = 0;
  }
  return pos;
}

int printf(char *fmt, ...) {
  char buf[1024];
  char *ap = (char *)(&fmt) + 4;
  int n = vformat(buf, 1024, fmt, ap);
  write(1, buf, strlen(buf));
  return n;
}

int sprintf(char *out, char *fmt, ...) {
  char *ap = (char *)(&fmt) + 4;
  return vformat(out, 0x40000000, fmt, ap);
}

int snprintf(char *out, int cap, char *fmt, ...) {
  char *ap = (char *)(&fmt) + 4;
  return vformat(out, cap, fmt, ap);
}

int fdprintf(int fd, char *fmt, ...) {
  char buf[1024];
  char *ap = (char *)(&fmt) + 4;
  int n = vformat(buf, 1024, fmt, ap);
  write(fd, buf, strlen(buf));
  return n;
}
|}

(* The allocator, modelled on pre-hardening dlmalloc/glibc 2.x:
   boundary-tag chunks, a circular doubly-linked free bin, forward
   coalescing with an unguarded [unlink] (the 2004-era behaviour the
   paper's heap attacks exploit). *)
let malloc_c =
  {|
/* ---- allocator ----

   Modelled on the pre-hardening dlmalloc/glibc-2.x design the paper's
   heap attacks target: boundary-tag chunks with the size word in the
   header (low bit = in use), free chunks threaded on one circular
   doubly-linked bin via fd/bk pointers stored in the user area, free
   reading the *next* chunk's header unconditionally (a permanently
   in-use fence chunk terminates the heap) and unlinking it for
   forward coalescing WITHOUT the modern FD->bk == P integrity check.
   Overflowing an allocation therefore corrupts the next chunk's
   fd/bk, and free() turns that into the classic arbitrary write
   `FD->bk = BK` — which dereferences a tainted pointer. */

struct chunk {
  int size;          /* total bytes including this header; bit 0 = in use */
  struct chunk *fd;  /* only meaningful while free */
  struct chunk *bk;
};

struct chunk _bin;
int _heap_ready = 0;
char *_heap_fence = 0;  /* address of the trailing in-use fence header */

void _bin_insert(struct chunk *c) {
  c->fd = _bin.fd;
  c->bk = &_bin;
  _bin.fd->bk = c;
  _bin.fd = c;
}

void _bin_unlink(struct chunk *c) {
  struct chunk *f = c->fd;
  struct chunk *b = c->bk;
  f->bk = b;
  b->fd = f;
}

int _heap_extend(int need) {
  int grab = need + 4;
  if (grab < 4096) grab = 4096;
  char *base = sbrk(grab);
  if ((int)base == -1) return 0;
  char *start = base;
  if (_heap_fence && base == _heap_fence + 4) start = _heap_fence;
  char *endhdr = base + grab - 4;
  struct chunk *fence = (struct chunk *)endhdr;
  fence->size = 1;   /* zero-length, permanently in use */
  _heap_fence = endhdr;
  struct chunk *fresh = (struct chunk *)start;
  fresh->size = endhdr - start;
  _bin_insert(fresh);
  return 1;
}

char *malloc(int n) {
  if (n < 0) return 0;
  if (!_heap_ready) {
    _bin.fd = &_bin;
    _bin.bk = &_bin;
    _heap_ready = 1;
  }
  int need = ((n + 3) & ~3) + 4;
  if (need < 16) need = 16;
  struct chunk *c = _bin.fd;
  while (c != &_bin) {
    if (c->size >= need) {
      _bin_unlink(c);
      if (c->size - need >= 16) {
        struct chunk *rest = (struct chunk *)((char *)c + need);
        rest->size = c->size - need;
        _bin_insert(rest);
        c->size = need;
      }
      c->size = c->size | 1;
      return (char *)c + 4;
    }
    c = c->fd;
  }
  if (!_heap_extend(need)) return 0;
  return malloc(n);
}

char *calloc(int count, int size) {
  int total = count * size;
  char *p = malloc(total);
  if (p) memset(p, 0, total);
  return p;
}

void free(char *p) {
  if (!p) return;
  struct chunk *c = (struct chunk *)(p - 4);
  c->size = c->size & ~1;
  /* Forward coalescing: read the next header unconditionally (the
     fence chunk guarantees one exists for legitimate frees) and
     unlink it if it is free.  A corrupted or fake size field makes
     `next` — and a corrupted fd/bk makes `f`/`b` — attacker data. */
  struct chunk *next = (struct chunk *)((char *)c + c->size);
  if (!(next->size & 1)) {
    _bin_unlink(next);
    c->size = c->size + next->size;
  }
  _bin_insert(c);
}
|}

(* [_start]: marshals [argc]/[argv]/[envp] and calls [main]. *)
let crt0_asm =
  {|
        .text
_start:
        lw $a0, 0($sp)          # argc
        addiu $a1, $sp, 4       # argv
        addiu $a2, $a0, 1
        sll $a2, $a2, 2
        addu $a2, $a1, $a2      # envp = argv + 4*(argc+1)
        la $t0, environ         # publish envp for getenv()
        sw $a2, 0($t0)
        addiu $sp, $sp, -12     # cdecl: main(argc, argv, envp)
        sw $a0, 0($sp)
        sw $a1, 4($sp)
        sw $a2, 8($sp)
        jal main
        move $a0, $v0
        li $v0, 1               # SYS_exit
        syscall
|}

(* Assembly stubs bridging the stack calling convention to the
   kernel's register convention. *)
let syscalls_asm =
  {|
        .text
exit:
        li $v0, 1
        lw $a0, 0($sp)
        syscall
        jr $ra                  # not reached
read:
        li $v0, 2
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        lw $a2, 8($sp)
        syscall
        jr $ra
write:
        li $v0, 3
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        lw $a2, 8($sp)
        syscall
        jr $ra
open:
        li $v0, 4
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        syscall
        jr $ra
close:
        li $v0, 5
        lw $a0, 0($sp)
        syscall
        jr $ra
sbrk:
        li $v0, 6
        lw $a0, 0($sp)
        syscall
        jr $ra
recv:
        li $v0, 7
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        lw $a2, 8($sp)
        syscall
        jr $ra
send:
        li $v0, 8
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        lw $a2, 8($sp)
        syscall
        jr $ra
socket:
        li $v0, 9
        syscall
        jr $ra
accept:
        li $v0, 10
        lw $a0, 0($sp)
        syscall
        jr $ra
getuid:
        li $v0, 11
        syscall
        jr $ra
setuid:
        li $v0, 12
        lw $a0, 0($sp)
        syscall
        jr $ra
exec:
        li $v0, 13
        lw $a0, 0($sp)
        syscall
        jr $ra
time:
        li $v0, 14
        syscall
        jr $ra
getpid:
        li $v0, 15
        syscall
        jr $ra
guard:
        li $v0, 16
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        syscall
        jr $ra
unguard:
        li $v0, 17
        lw $a0, 0($sp)
        syscall
        jr $ra
|}

let compile ?untaint_writeback app_c =
  let unit_ =
    String.concat "\n" [ prototypes; app_c; libc_c; malloc_c ]
  in
  Ptaint_cc.Cc.compile ?untaint_writeback ~extra_asm:[ crt0_asm; syscalls_asm ] unit_
