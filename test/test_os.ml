(* OS layer: filesystem, scripted sockets, and kernel syscalls driven
   through real guest programs. *)

let run ?(config = Ptaint_sim.Sim.Config.default) src =
  Ptaint_sim.Sim.run ~config (Ptaint_runtime.Runtime.compile src)

(* --- Fs --- *)

let test_fs () =
  let fs = Ptaint_os.Fs.create () in
  Ptaint_os.Fs.add fs ~path:"/etc/passwd" "root:x:0:0\n";
  Alcotest.(check (option string)) "read" (Some "root:x:0:0\n") (Ptaint_os.Fs.read fs ~path:"/etc/passwd");
  Alcotest.(check bool) "exists" true (Ptaint_os.Fs.exists fs ~path:"/etc/passwd");
  Ptaint_os.Fs.append fs ~path:"/etc/passwd" "alice:x:1:1\n";
  Alcotest.(check (option string)) "append" (Some "root:x:0:0\nalice:x:1:1\n")
    (Ptaint_os.Fs.read fs ~path:"/etc/passwd");
  Ptaint_os.Fs.truncate fs ~path:"/etc/passwd";
  Alcotest.(check (option string)) "truncate" (Some "") (Ptaint_os.Fs.read fs ~path:"/etc/passwd");
  Ptaint_os.Fs.append fs ~path:"/new" "x";
  Alcotest.(check bool) "append creates" true (Ptaint_os.Fs.exists fs ~path:"/new");
  Ptaint_os.Fs.remove fs ~path:"/new";
  Alcotest.(check bool) "removed" false (Ptaint_os.Fs.exists fs ~path:"/new");
  Alcotest.(check (list string)) "paths" [ "/etc/passwd" ] (Ptaint_os.Fs.paths fs)

(* --- Socket --- *)

let test_socket () =
  let s = Ptaint_os.Socket.create ~sessions:[ [ "hello"; "world" ]; [ "bye" ] ] in
  Alcotest.(check int) "two pending" 2 (Ptaint_os.Socket.pending_sessions s);
  Alcotest.(check bool) "accept 1" true (Ptaint_os.Socket.accept s);
  Alcotest.(check string) "partial recv" "hel" (Ptaint_os.Socket.recv s ~max:3);
  Alcotest.(check string) "rest of message" "lo" (Ptaint_os.Socket.recv s ~max:100);
  Alcotest.(check string) "next message" "world" (Ptaint_os.Socket.recv s ~max:100);
  Alcotest.(check string) "eof" "" (Ptaint_os.Socket.recv s ~max:100);
  Ptaint_os.Socket.send s "reply";
  Alcotest.(check bool) "accept 2" true (Ptaint_os.Socket.accept s);
  Alcotest.(check string) "second session" "bye" (Ptaint_os.Socket.recv s ~max:100);
  Alcotest.(check bool) "no third" false (Ptaint_os.Socket.accept s);
  Alcotest.(check (list string)) "sent" [ "reply" ] (Ptaint_os.Socket.sent s)

(* --- syscalls through guest programs --- *)

let test_file_io () =
  let config =
    Ptaint_sim.Sim.Config.(default |> with_fs_init [ ("/data/in.txt", "file contents here") ])
  in
  let r =
    run ~config
      {| int main(void) {
           char buf[64];
           int fd = open("/data/in.txt", 0);
           if (fd < 0) return 1;
           int n = read(fd, buf, 63);
           buf[n] = 0;
           close(fd);
           int out = open("/data/out.txt", 1);
           write(out, buf, n);
           close(out);
           printf("%d\n", n);
           return 0;
         } |}
  in
  (match r.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Exited 0 -> ()
   | o -> Alcotest.failf "outcome %a" Ptaint_sim.Sim.pp_outcome o);
  Alcotest.(check string) "copied through guest" (Some "file contents here" |> Option.get)
    (Option.get (Ptaint_os.Fs.read (Ptaint_os.Kernel.fs r.Ptaint_sim.Sim.kernel) ~path:"/data/out.txt"))

let test_open_missing () =
  let r = run {| int main(void) { return open("/no/such", 0) < 0 ? 7 : 8; } |} in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited 7 -> ()
  | o -> Alcotest.failf "outcome %a" Ptaint_sim.Sim.pp_outcome o

let test_file_taint_policy () =
  (* file contents are tainted under the default policy, clean when
     files are trusted *)
  let src =
    {| char buf[16];
       int main(void) {
         int fd = open("/f", 0);
         read(fd, buf, 4);
         return 0;
       } |}
  in
  let check sources expected =
    let config = Ptaint_sim.Sim.Config.(default |> with_sources sources |> with_fs_init [ ("/f", "abcd") ]) in
    let r = run ~config src in
    let buf =
      Ptaint_asm.Program.symbol_exn r.Ptaint_sim.Sim.image.Ptaint_asm.Loader.program "buf"
    in
    Alcotest.(check int) "tainted bytes" expected
      (Ptaint_mem.Memory.tainted_in_range r.Ptaint_sim.Sim.image.Ptaint_asm.Loader.mem buf 4)
  in
  check Ptaint_os.Sources.all 4;
  check Ptaint_os.Sources.none 0;
  check Ptaint_os.Sources.network_only 0

let test_uid_syscalls () =
  let config = Ptaint_sim.Sim.Config.(default |> with_uid 1000) in
  let r =
    run ~config
      {| int main(void) {
           int before = getuid();
           setuid(0);
           return before * 100 + getuid();
         } |}
  in
  (match r.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Exited c -> Alcotest.(check int) "uids" (((1000 * 100) + 0) land 0xff) (c land 0xff)
   | o -> Alcotest.failf "outcome %a" Ptaint_sim.Sim.pp_outcome o);
  Alcotest.(check int) "kernel uid changed" 0 r.Ptaint_sim.Sim.final_uid

let test_exec_recorded () =
  let r = run {| int main(void) { exec("/bin/date"); exec("/bin/sh"); return 0; } |} in
  Alcotest.(check (list string)) "execs" [ "/bin/date"; "/bin/sh" ] r.Ptaint_sim.Sim.execs

let test_sbrk_growth () =
  let r =
    run
      {| int main(void) {
           char *a = sbrk(8192);
           char *b = sbrk(0);
           if (b - a != 8192) return 1;
           a[8191] = 42;            /* newly mapped page is writable */
           return a[8191];
         } |}
  in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited 42 -> ()
  | o -> Alcotest.failf "outcome %a" Ptaint_sim.Sim.pp_outcome o

let test_sbrk_limit () =
  (* exhausting the heap returns -1 rather than faulting *)
  let r =
    run
      {| int main(void) {
           int grabbed = 0;
           while (1) {
             char *p = sbrk(65536);
             if ((int)p == -1) break;
             grabbed++;
             if (grabbed > 100000) return 9;
           }
           return grabbed > 0 ? 3 : 4;
         } |}
  in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited 3 -> ()
  | o -> Alcotest.failf "outcome %a" Ptaint_sim.Sim.pp_outcome o

let test_bad_fd () =
  let r =
    run
      {| int main(void) {
           char b[4];
           if (read(42, b, 4) != -1) return 1;
           if (write(42, b, 4) != -1) return 2;
           if (read(1, b, 4) != -1) return 3;   /* stdout is not readable */
           return 0;
         } |}
  in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited 0 -> ()
  | o -> Alcotest.failf "outcome %a" Ptaint_sim.Sim.pp_outcome o

let test_efault_on_wild_buffer () =
  (* kernel returns -1 when the guest passes an unmapped buffer (with
     data actually available, so the copy is attempted) *)
  let config = Ptaint_sim.Sim.Config.(default |> with_stdin "abcd") in
  let r =
    run ~config {| int main(void) { return read(0, (char *)0x40404040, 4) == -1 ? 0 : 1; } |}
  in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited 0 -> ()
  | o -> Alcotest.failf "outcome %a" Ptaint_sim.Sim.pp_outcome o

let test_syscall_counts () =
  let config = Ptaint_sim.Sim.Config.(default |> with_stdin "xyz") in
  let r =
    run ~config
      {| int main(void) {
           char b[8];
           read(0, b, 3);
           write(1, b, 3);
           return 0;
         } |}
  in
  Alcotest.(check int) "input bytes" 3 r.Ptaint_sim.Sim.input_bytes;
  Alcotest.(check bool) "syscalls counted" true (r.Ptaint_sim.Sim.syscalls >= 3)

let () =
  Alcotest.run "os"
    [ ("fs", [ Alcotest.test_case "filesystem" `Quick test_fs ]);
      ("socket", [ Alcotest.test_case "sessions" `Quick test_socket ]);
      ( "kernel",
        [ Alcotest.test_case "file io" `Quick test_file_io;
          Alcotest.test_case "open missing" `Quick test_open_missing;
          Alcotest.test_case "file taint policy" `Quick test_file_taint_policy;
          Alcotest.test_case "uid" `Quick test_uid_syscalls;
          Alcotest.test_case "exec recorded" `Quick test_exec_recorded;
          Alcotest.test_case "sbrk growth" `Quick test_sbrk_growth;
          Alcotest.test_case "sbrk limit" `Quick test_sbrk_limit;
          Alcotest.test_case "bad fd" `Quick test_bad_fd;
          Alcotest.test_case "EFAULT" `Quick test_efault_on_wild_buffer;
          Alcotest.test_case "accounting" `Quick test_syscall_counts ] ) ]
