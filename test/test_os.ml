(* OS layer: filesystem, scripted sockets, and kernel syscalls driven
   through real guest programs. *)

let run ?(config = Ptaint_sim.Sim.default_config) src =
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
  Alcotest.(check bool) "append creates" true (Ptaint_os.Fs.exists fs ~path:"/new")

(* --- Socket --- *)

let test_socket () =
  let s = Ptaint_os.Socket.create ~sessions:[ [ "hello"; "world" ]; [ "bye" ] ] in
  let mem = Ptaint_mem.Memory.create () in
  Ptaint_mem.Memory.map_range mem ~lo:0x1000 ~bytes:4096;
  let recv max =
    Ptaint_mem.Memory.read_string mem 0x1000
      (Ptaint_os.Socket.recv s ~max mem 0x1000 ~taint:false)
  in
  Alcotest.(check bool) "accept 1" true (Ptaint_os.Socket.accept s);
  Alcotest.(check string) "partial recv" "hel" (recv 3);
  Alcotest.(check string) "rest of message" "lo" (recv 100);
  Alcotest.(check string) "next message" "world" (recv 100);
  Alcotest.(check string) "eof" "" (recv 100);
  Ptaint_os.Socket.send s "reply";
  Alcotest.(check bool) "accept 2" true (Ptaint_os.Socket.accept s);
  Alcotest.(check string) "second session" "bye" (recv 100);
  Alcotest.(check bool) "no third" false (Ptaint_os.Socket.accept s);
  Alcotest.(check (list string)) "sent" [ "reply" ] (Ptaint_os.Socket.sent s)

(* --- syscalls through guest programs --- *)

let test_file_io () =
  let config =
    { Ptaint_sim.Sim.default_config with
      Ptaint_sim.Sim.fs_init = [ ("/data/in.txt", "file contents here") ] }
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
    let config = { Ptaint_sim.Sim.default_config with
                   Ptaint_sim.Sim.sources;
                   fs_init = [ ("/f", "abcd") ] } in
    let r = run ~config src in
    let buf =
      Ptaint_asm.Program.symbol_exn r.Ptaint_sim.Sim.image.Ptaint_asm.Loader.program "buf"
    in
    Alcotest.(check int) "tainted bytes" expected
      (Ptaint_mem.Memory.tainted_in_range r.Ptaint_sim.Sim.image.Ptaint_asm.Loader.mem buf 4)
  in
  check Ptaint_os.Sources.all 4;
  check Ptaint_os.Sources.none 0;
  check { Ptaint_os.Sources.none with network = true } 0

let test_uid_syscalls () =
  let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.uid = 1000 } in
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
  let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = "abcd" } in
  let r =
    run ~config {| int main(void) { return read(0, (char *)0x40404040, 4) == -1 ? 0 : 1; } |}
  in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited 0 -> ()
  | o -> Alcotest.failf "outcome %a" Ptaint_sim.Sim.pp_outcome o

let test_syscall_counts () =
  let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = "xyz" } in
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

(* --- syscall semantics table ---

   Both engines share [Kernel.handle], so the engine differentials
   cannot see a change to it.  This table pins the kernel's observable
   behaviour directly: each case boots a small image, services a list
   of syscalls through [Kernel.handle] with hand-set registers, and
   checks each step's $v0, stdout, the network's outbound messages,
   file contents, how much stdin is left, [input_bytes], the value and
   taint of every delivered byte, the five [Memory.stats] deltas and,
   with an obs trace attached, the exact [Syscall]/[Taint_in] events.
   Every case runs with and without a trace and must read the same. *)

module Memory = Ptaint_mem.Memory
module Kernel = Ptaint_os.Kernel
module Event = Ptaint_obs.Event
module Sysnum = Ptaint_os.Sysnum

let table_asm =
  ".text\nmain: li $v0, 1\n li $a0, 0\n syscall\n.data\nin_path: .asciiz \"/in\"\n\
   out_path: .asciiz \"/out\"\nmsg: .asciiz \"hello world\"\nbuf: .space 64\n"

(* Syscall arguments, resolved against the booted image.  [Edge k] is
   [k] bytes past the first unmapped byte above the data segment (the
   unmapped heap base), so [Edge (-2)] with length 5 faults part-way. *)
type arg = Imm of int | Sym of string | Buf of int | Edge of int | Prev

type case = {
  name : string;
  config : Ptaint_sim.Sim.config -> Ptaint_sim.Sim.config;
  steps : (int * arg * arg * arg) list;  (* $v0, $a0, $a1, $a2 *)
  ret : arg list;  (* $v0 after each step that returns *)
  guest_fault : bool;  (* the last step raises [Kernel.Guest_fault] *)
  stdout : string;
  sent : string list;
  files : (string * string option) list;
  execs : string list;
  stdin_left : int;
  input : int;
  bytes : (arg * string * bool) list;  (* memory contents and taint afterwards *)
  stats : int * int * int * int * int;
      (* loads, stores, tainted_loads, tainted_stores, mapped_bytes *)
  events : [ `Sys of string | `In of string * arg * int * int ] list;
      (* per step: syscall name; taint-in source, address, length, offset *)
}

let case ?(config = Fun.id) ?(guest_fault = false) ?(stdout = "") ?(sent = []) ?(files = [])
    ?(execs = []) ?(stdin_left = 0) ?(input = 0) ?(bytes = []) ?(stats = (0, 0, 0, 0, 0))
    ?(events = []) name steps ret =
  { name; config; steps; ret = List.map (fun v -> Imm v) ret; guest_fault; stdout; sent; files;
    execs; stdin_left; input; bytes; stats; events }

let r, w = (Sysnum.sys_read, Sysnum.sys_write)
let stdin s c = { c with Ptaint_sim.Sim.stdin = s }

let table =
  [ case "read stdin, 1 byte" ~config:(stdin "xyz") [ (r, Imm 0, Buf 0, Imm 1) ] [ 1 ]
      ~stdin_left:2 ~input:1 ~bytes:[ (Buf 0, "x", true); (Buf 1, "\000", false) ]
      ~stats:(0, 1, 0, 1, 0)
      ~events:[ `Sys "read"; `In ("read(stdin)", Buf 0, 1, 0) ];
    case "read stdin, n bytes then EOF" ~config:(stdin "abc")
      [ (r, Imm 0, Buf 0, Imm 8); (r, Imm 0, Buf 8, Imm 4) ]
      [ 3; 0 ] ~input:3
      ~bytes:[ (Buf 0, "abc", true); (Buf 3, "\000", false); (Buf 8, "\000", false) ]
      ~stats:(0, 3, 0, 3, 0)
      ~events:[ `Sys "read"; `In ("read(stdin)", Buf 0, 3, 0); `Sys "read" ];
    case "read stdin, untainted source"
      ~config:(fun c -> { (stdin "ab" c) with Ptaint_sim.Sim.sources = Ptaint_os.Sources.none })
      [ (r, Imm 0, Buf 0, Imm 1) ] [ 1 ] ~stdin_left:1 ~input:1
      ~bytes:[ (Buf 0, "a", false) ] ~stats:(0, 1, 0, 0, 0) ~events:[ `Sys "read" ];
    case "read stdin, buffer faults part-way" ~config:(stdin "abcdef")
      [ (r, Imm 0, Edge (-2), Imm 6); (r, Imm 0, Buf 0, Imm 1) ]
      [ -1; 0 ] ~bytes:[ (Edge (-2), "ab", true) ] ~stats:(0, 2, 0, 2, 0)
      ~events:[ `Sys "read"; `Sys "read" ];
    case "read file"
      ~config:(fun c -> { c with Ptaint_sim.Sim.fs_init = [ ("/in", "hello world") ] })
      [ (Sysnum.sys_open, Sym "in_path", Imm 0, Imm 0); (r, Prev, Buf 0, Imm 5);
        (r, Imm 3, Buf 5, Imm 100); (r, Imm 3, Buf 16, Imm 4) ]
      [ 3; 5; 6; 0 ] ~input:11
      ~files:[ ("/in", Some "hello world") ]
      ~bytes:[ (Buf 0, "hello world", true); (Buf 11, "\000", false) ]
      ~stats:(4, 11, 0, 11, 0)
      ~events:
        [ `Sys "open"; `Sys "read"; `In ("read(/in)", Buf 0, 5, 0); `Sys "read";
          `In ("read(/in)", Buf 5, 6, 5); `Sys "read" ];
    case "recv inside and across messages"
      ~config:(fun c -> { c with Ptaint_sim.Sim.sessions = [ [ "hello"; "world" ] ] })
      [ (Sysnum.sys_socket, Imm 0, Imm 0, Imm 0); (Sysnum.sys_accept, Prev, Imm 0, Imm 0);
        (Sysnum.sys_recv, Prev, Buf 0, Imm 3); (Sysnum.sys_recv, Imm 4, Buf 3, Imm 100);
        (Sysnum.sys_recv, Imm 4, Buf 5, Imm 100); (Sysnum.sys_recv, Imm 4, Buf 10, Imm 100) ]
      [ 3; 4; 3; 2; 5; 0 ] ~input:10
      ~bytes:[ (Buf 0, "helloworld", true); (Buf 10, "\000", false) ]
      ~stats:(0, 10, 0, 10, 0)
      ~events:
        [ `Sys "socket"; `Sys "accept"; `Sys "recv"; `In ("recv(network)", Buf 0, 3, 0);
          `Sys "recv"; `In ("recv(network)", Buf 3, 2, 3); `Sys "recv";
          `In ("recv(network)", Buf 5, 5, 5); `Sys "recv" ];
    case "recv into a buffer that faults part-way"
      ~config:(fun c -> { c with Ptaint_sim.Sim.sessions = [ [ "abcd"; "ef" ] ] })
      [ (Sysnum.sys_socket, Imm 0, Imm 0, Imm 0); (Sysnum.sys_accept, Imm 3, Imm 0, Imm 0);
        (Sysnum.sys_recv, Imm 4, Edge (-2), Imm 3); (Sysnum.sys_recv, Imm 4, Buf 0, Imm 10) ]
      [ 3; 4; -1; 1 ] ~input:1
      ~bytes:[ (Edge (-2), "ab", true); (Buf 0, "d", true) ]
      ~stats:(0, 3, 0, 3, 0)
      ~events:
        [ `Sys "socket"; `Sys "accept"; `Sys "recv"; `Sys "recv";
          `In ("recv(network)", Buf 0, 1, 0) ];
    case "write stdout from tainted input" ~config:(stdin "abcd")
      [ (r, Imm 0, Buf 0, Imm 4); (w, Imm 1, Buf 0, Imm 4); (w, Imm 2, Sym "msg", Imm 5) ]
      [ 4; 4; 5 ] ~stdout:"abcdhello" ~input:4 ~stats:(9, 4, 4, 4, 0)
      ~events:[ `Sys "read"; `In ("read(stdin)", Buf 0, 4, 0); `Sys "write"; `Sys "write" ];
    case "write file"
      [ (Sysnum.sys_open, Sym "out_path", Imm 1, Imm 0); (w, Prev, Sym "msg", Imm 5);
        (w, Imm 3, Sym "msg", Imm 0); (w, Imm 3, Sym "msg", Imm 11) ]
      [ 3; 5; 0; 11 ] ~files:[ ("/out", Some "hellohello world") ] ~stats:(21, 0, 0, 0, 0)
      ~events:[ `Sys "open"; `Sys "write"; `Sys "write"; `Sys "write" ];
    case "send socket"
      ~config:(fun c -> { c with Ptaint_sim.Sim.sessions = [ [ "x" ] ] })
      [ (Sysnum.sys_socket, Imm 0, Imm 0, Imm 0); (Sysnum.sys_accept, Imm 3, Imm 0, Imm 0);
        (Sysnum.sys_send, Imm 4, Sym "msg", Imm 5); (w, Imm 4, Sym "msg", Imm 2) ]
      [ 3; 4; 5; 2 ] ~sent:[ "hello"; "he" ] ~stats:(7, 0, 0, 0, 0)
      ~events:[ `Sys "socket"; `Sys "accept"; `Sys "send"; `Sys "write" ];
    case "write to a bad fd touches the range"
      [ (w, Imm 42, Sym "msg", Imm 5); (w, Imm 0, Sym "msg", Imm 3);
        (Sysnum.sys_send, Imm 63, Sym "msg", Imm 2); (w, Imm 42, Edge (-1), Imm 4);
        (w, Imm 42, Imm 0x40404040, Imm 0) ]
      [ -1; -1; -1; -1; -1 ] ~stats:(11, 0, 0, 0, 0)
      ~events:[ `Sys "write"; `Sys "write"; `Sys "send"; `Sys "write"; `Sys "write" ];
    case "write stdout from a part-unmapped buffer" ~config:(stdin "xyz")
      [ (w, Imm 1, Sym "msg", Imm 2); (r, Imm 0, Edge (-3), Imm 3); (w, Imm 1, Edge (-3), Imm 8);
        (w, Imm 1, Sym "msg", Imm 1) ]
      [ 2; 3; -1; 1 ] ~stdout:"heh" ~input:3 ~bytes:[ (Edge (-3), "xyz", true) ]
      ~stats:(6, 3, 3, 3, 0)
      ~events:
        [ `Sys "write"; `Sys "read"; `In ("read(stdin)", Edge (-3), 3, 0); `Sys "write";
          `Sys "write" ];
    case "write file and send from a part-unmapped buffer"
      ~config:(fun c -> { c with Ptaint_sim.Sim.sessions = [ [ "x" ] ] })
      [ (Sysnum.sys_open, Sym "out_path", Imm 1, Imm 0); (w, Imm 3, Sym "msg", Imm 2);
        (w, Imm 3, Edge (-2), Imm 4); (Sysnum.sys_socket, Imm 0, Imm 0, Imm 0);
        (Sysnum.sys_accept, Imm 4, Imm 0, Imm 0); (Sysnum.sys_send, Imm 5, Edge (-1), Imm 2) ]
      [ 3; 2; -1; 4; 5; -1 ] ~files:[ ("/out", Some "he") ] ~stats:(10, 0, 0, 0, 0)
      ~events:
        [ `Sys "open"; `Sys "write"; `Sys "write"; `Sys "socket"; `Sys "accept"; `Sys "send" ];
    case "open and exec with a faulting path" ~config:(stdin "/bin")
      [ (r, Imm 0, Edge (-4), Imm 4); (Sysnum.sys_open, Edge (-4), Imm 0, Imm 0);
        (Sysnum.sys_exec, Edge (-4), Imm 0, Imm 0); (Sysnum.sys_open, Imm 0x40404040, Imm 1, Imm 0);
        (Sysnum.sys_exec, Sym "msg", Imm 0, Imm 0) ]
      [ 4; -1; -1; -1; 0 ] ~input:4 ~bytes:[ (Edge (-4), "/bin", true) ]
      ~execs:[ "hello world" ] ~stats:(20, 4, 8, 4, 0)
      ~events:
        [ `Sys "read"; `In ("read(stdin)", Edge (-4), 4, 0); `Sys "open"; `Sys "exec"; `Sys "open";
          `Sys "exec" ];
    { (case "sbrk maps the heap"
         [ (Sysnum.sys_sbrk, Imm 5000, Imm 0, Imm 0); (w, Imm 1, Edge 4999, Imm 1) ]
         [] ~stdout:"\000" ~stats:(1, 0, 0, 0, 8192) ~events:[ `Sys "sbrk"; `Sys "write" ])
      with ret = [ Edge 0; Imm 1 ] };
    case "negative read length" ~config:(stdin "ab")
      [ (r, Imm 0, Buf 0, Imm 1); (r, Imm 0, Buf 1, Imm (-1)) ]
      [ 1 ] ~guest_fault:true ~stdin_left:1 ~input:1 ~bytes:[ (Buf 0, "a", true) ]
      ~stats:(0, 1, 0, 1, 0)
      ~events:[ `Sys "read"; `In ("read(stdin)", Buf 0, 1, 0); `Sys "read" ];
    case "negative write length" [ (w, Imm 1, Sym "msg", Imm 0x80000000) ] [] ~guest_fault:true
      ~events:[ `Sys "write" ];
    case "negative recv length" [ (Sysnum.sys_recv, Imm 4, Buf 0, Imm (-7)) ] [] ~guest_fault:true
      ~events:[ `Sys "recv" ];
    case "negative send length" [ (Sysnum.sys_send, Imm 9, Buf 0, Imm (-1)) ] [] ~guest_fault:true
      ~events:[ `Sys "send" ];
    case "unknown syscall" [ (99, Imm 1, Imm 2, Imm 3) ] [] ~guest_fault:true
      ~events:[ `Sys "sys#99" ] ]

let stats_tuple (st : Memory.stats) =
  (st.Memory.loads, st.Memory.stores, st.Memory.tainted_loads, st.Memory.tainted_stores,
   st.Memory.mapped_bytes)

let run_case ~obs c =
  let program = Ptaint_asm.Assembler.assemble_exn table_asm in
  let config = { (c.config Ptaint_sim.Sim.default_config) with Ptaint_sim.Sim.obs } in
  let s = Ptaint_sim.Sim.boot ~config program in
  let m = s.Ptaint_sim.Sim.s_machine and k = s.Ptaint_sim.Sim.s_kernel in
  let mem = s.Ptaint_sim.Sim.s_image.Ptaint_asm.Loader.mem in
  let edge = s.Ptaint_sim.Sim.s_image.Ptaint_asm.Loader.heap_base in
  Alcotest.(check bool) (c.name ^ ": edge unmapped") false (Memory.is_mapped mem edge);
  let buf = Ptaint_asm.Program.symbol_exn program "buf" in
  let prev = ref 0 in
  let addr = function
    | Imm v -> v land 0xffffffff
    | Sym name -> Ptaint_asm.Program.symbol_exn program name
    | Buf k -> buf + k
    | Edge k -> edge + k
    | Prev -> !prev
  in
  let boot_events = Option.fold ~none:0 ~some:Ptaint_obs.Trace.length (Ptaint_sim.Sim.trace s) in
  let before = stats_tuple (Memory.stats mem) in
  let input_before = Kernel.input_bytes k in
  let regs = m.Ptaint_cpu.Machine.regs in
  let set r v = Ptaint_cpu.Regfile.set regs r (Ptaint_taint.Tword.untainted v) in
  let pc_of i = 0x400100 + (4 * i) and cycle_of i = 100 * (i + 1) in
  let call i (num, a0, a1, a2) =
    set Ptaint_isa.Reg.v0 num;
    set Ptaint_isa.Reg.a0 (addr a0);
    set Ptaint_isa.Reg.a1 (addr a1);
    set Ptaint_isa.Reg.a2 (addr a2);
    m.Ptaint_cpu.Machine.pc <- pc_of i;
    m.Ptaint_cpu.Machine.icount <- cycle_of i;
    (match Kernel.handle k m with
     | `Continue -> ()
     | `Exit _ -> Alcotest.failf "%s: step %d exited" c.name i);
    let v = Ptaint_isa.Word.to_signed (Ptaint_cpu.Regfile.value regs Ptaint_isa.Reg.v0) in
    prev := v;
    v
  in
  let last = List.length c.steps - 1 in
  let rets =
    List.concat
      (List.mapi
         (fun i ((num, a0, a1, a2) as step) ->
           if i = last && c.guest_fault then begin
             match call i step with
             | _ -> Alcotest.failf "%s: no guest fault" c.name
             | exception Kernel.Guest_fault { sysnum; pc; args } ->
               Alcotest.(check int) (c.name ^ ": fault sysnum") num sysnum;
               Alcotest.(check int) (c.name ^ ": fault pc") (pc_of i) pc;
               Alcotest.(check (list int)) (c.name ^ ": fault args")
                 [ addr a0; addr a1; addr a2 ] args;
               []
           end
           else [ call i step ])
         c.steps)
  in
  let ctx what = Printf.sprintf "%s (obs %b): %s" c.name obs what in
  Alcotest.(check (list int)) (ctx "$v0")
    (List.map (fun a -> Ptaint_isa.Word.to_signed (addr a)) c.ret) rets;
  Alcotest.(check string) (ctx "stdout") c.stdout (Kernel.stdout_contents k);
  Alcotest.(check (list string)) (ctx "net sent") c.sent (Ptaint_os.Socket.sent (Kernel.net k));
  List.iter
    (fun (path, contents) ->
      Alcotest.(check (option string)) (ctx path) contents (Ptaint_os.Fs.read (Kernel.fs k) ~path))
    c.files;
  Alcotest.(check (list string)) (ctx "execs") c.execs (Kernel.execs k);
  Alcotest.(check int) (ctx "input bytes") c.input (Kernel.input_bytes k - input_before);
  List.iter
    (fun (a, data, taint) ->
      String.iteri
        (fun i ch ->
          let w = Memory.peek_byte mem (addr a + i) in
          Alcotest.(check char) (ctx (Printf.sprintf "byte %d" i)) ch (Char.chr (Ptaint_taint.Tword.value w));
          Alcotest.(check bool) (ctx (Printf.sprintf "taint %d" i)) taint
            (Ptaint_taint.Tword.is_tainted w))
        data)
    c.bytes;
  let l1, s1, tl1, ts1, mb1 = before and l2, s2, tl2, ts2, mb2 = stats_tuple (Memory.stats mem) in
  Alcotest.(check (list int)) (ctx "loads, stores, tainted loads/stores, mapped bytes")
    (let a, b, c', d, e = c.stats in [ a; b; c'; d; e ])
    [ l2 - l1; s2 - s1; tl2 - tl1; ts2 - ts1; mb2 - mb1 ];
  (match Ptaint_sim.Sim.trace s with
   | None -> Alcotest.(check bool) (ctx "trace") false obs
   | Some tr ->
     (* syscall events take the step's pc and icount; a Taint_in
        event follows its step's Syscall event *)
     let step = ref (-1) in
     let expected =
       List.map
         (function
           | `Sys name ->
             incr step;
             Event.Syscall { cycle = cycle_of !step; pc = pc_of !step; name }
           | `In (source, a, len, offset) ->
             Event.Taint_in
               { cycle = cycle_of !step; source; addr = addr a; len;
                 offset = input_before + offset })
         c.events
     in
     let actual =
       List.filter
         (function Event.Syscall _ | Event.Taint_in _ -> true | _ -> false)
         (List.filteri (fun i _ -> i >= boot_events) (Ptaint_obs.Trace.events tr))
     in
     Alcotest.(check int) (ctx "event count") (List.length expected) (List.length actual);
     List.iter2
       (fun e a ->
         if e <> a then
           Alcotest.failf "%s: expected %s, got %s" (ctx "event") (Event.to_string e)
             (Event.to_string a))
       expected actual);
  (* stdin consumption: a probe read gets exactly what is left *)
  Alcotest.(check int) (ctx "stdin left") c.stdin_left
    (call (List.length c.steps) (r, Imm 0, Buf 32, Imm 64))

let test_syscall_table () =
  List.iter
    (fun c ->
      run_case ~obs:false c;
      run_case ~obs:true c)
    table

(* A guest-chosen write length must not become a host allocation: the
   write below names 2 GiB from the data segment, of which one page is
   mapped.  The copy stops at the first unmapped byte, returns -1 and
   appends nothing. *)
let test_huge_write_stays_small () =
  let asm =
    ".text\nmain: li $v0, 3\n li $a0, 1\n li $a1, 0x10000000\n li $a2, 0x7fff0000\n syscall\n\
    \ move $a0, $v0\n li $v0, 1\n syscall\n.data\nmsg: .asciiz \"hi\"\n"
  in
  let program = Ptaint_asm.Assembler.assemble_exn asm in
  let words (st : Gc.stat) = st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words in
  let before = Gc.quick_stat () in
  let r = Ptaint_sim.Sim.run program in
  let after = Gc.quick_stat () in
  (match r.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Exited (-1) -> ()
   | o -> Alcotest.failf "outcome %a" Ptaint_sim.Sim.pp_outcome o);
  Alcotest.(check string) "nothing appended" "" r.Ptaint_sim.Sim.stdout;
  let mb = (words after -. words before) *. float_of_int (Sys.word_size / 8) /. 1048576. in
  if mb > 16. then Alcotest.failf "the write allocated %.0f MB on the host" mb

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
          Alcotest.test_case "accounting" `Quick test_syscall_counts;
          Alcotest.test_case "syscall semantics table" `Quick test_syscall_table;
          Alcotest.test_case "huge write stays small" `Quick test_huge_write_stays_small ] ) ]
