open Ptaint_isa
open Ptaint_cpu
module Memory = Ptaint_mem.Memory
module Tword = Ptaint_taint.Tword

exception Guest_fault of { sysnum : int; pc : int; args : int list }

let guest_fault_message ~sysnum ~pc ~args =
  Printf.sprintf "guest fault: syscall %s at pc 0x%08x with args [%s]" (Sysnum.name sysnum) pc
    (String.concat "; " (List.map (Printf.sprintf "0x%08x") args))

let () =
  Printexc.register_printer (function
    | Guest_fault { sysnum; pc; args } -> Some (guest_fault_message ~sysnum ~pc ~args)
    | _ -> None)

type fd_kind =
  | Closed
  | Stdin
  | Stdout
  | Stderr
  | File_read of { path : string; mutable pos : int }
  | File_write of { path : string }
  | Listen_sock
  | Conn_sock

type t = {
  mem : Memory.t;
  filesystem : Fs.t;
  network : Socket.t;
  fds : fd_kind array;
  sources : Sources.t;
  mutable current_uid : int;
  mutable brk : int;
  heap_limit : int;
  stdout_buf : Buffer.t;
  stdin_data : string;
  mutable stdin_pos : int;
  mutable execs_rev : string list;
  mutable input_byte_count : int;
  mutable syscalls : int;
  trace : Ptaint_obs.Trace.t option;
  mutable cycle : int;  (* machine icount at the current syscall, for event stamps *)
}

let create ?(sources = Sources.all) ?(fs = Fs.create ()) ?(stdin = "") ?(sessions = [])
    ?(uid = 1000) ?trace ~heap_base ~heap_limit ~mem () =
  let fds = Array.make 64 Closed in
  fds.(0) <- Stdin;
  fds.(1) <- Stdout;
  fds.(2) <- Stderr;
  { mem;
    filesystem = fs;
    network = Socket.create ~sessions;
    fds;
    sources;
    current_uid = uid;
    brk = heap_base;
    heap_limit;
    stdout_buf = Buffer.create 256;
    stdin_data = stdin;
    stdin_pos = 0;
    execs_rev = [];
    input_byte_count = 0;
    syscalls = 0;
    trace;
    cycle = 0 }

let stdout_contents t = Buffer.contents t.stdout_buf
let net t = t.network
let fs t = t.filesystem
let uid t = t.current_uid
let execs t = List.rev t.execs_rev
let input_bytes t = t.input_byte_count
let syscall_count t = t.syscalls

let alloc_fd t kind =
  let rec go i =
    if i >= Array.length t.fds then -1
    else if t.fds.(i) = Closed then begin
      t.fds.(i) <- kind;
      i
    end
    else go (i + 1)
  in
  go 3

let fd_kind t fd = if fd < 0 || fd >= Array.length t.fds then Closed else t.fds.(fd)

(* Every transfer streams byte by byte between the guest buffer and
   the host string or buffer on the other side, through the counted
   {!Memory} accessors: no syscall allocates per call, and none
   allocates in proportion to the length the guest asks for — a copy
   stops at the first unmapped byte ({!Memory.Unmapped}). *)

let copy_in mem buf src pos n ~taint =
  for i = 0 to n - 1 do
    Memory.store_byte mem (buf + i) (Char.code (String.unsafe_get src (pos + i))) ~taint
  done

let copy_out mem buf len out =
  for i = 0 to len - 1 do
    Buffer.add_char out (Char.unsafe_chr (Tword.value (Memory.load_byte mem (buf + i))))
  done

(* A write to a descriptor that cannot take it still reads its range,
   so its loads count and an unmapped buffer still faults. *)
let touch mem buf len =
  for i = 0 to len - 1 do
    ignore (Memory.load_byte mem (buf + i))
  done

(* Account [n] bytes just delivered at [buf] from the descriptor
   [kind] as external input, emitting the taint-introduction event —
   the provenance anchor of every incident narrative — when they are
   tainted.  The source label is only built for a trace. *)
let delivered t ~buf ~n ~taint kind =
  (match t.trace with
   | Some tr when taint && n > 0 ->
     let source =
       match kind with
       | File_read f -> "read(" ^ f.path ^ ")"
       | Conn_sock -> "recv(network)"
       | _ -> "read(stdin)"
     in
     Ptaint_obs.Trace.emit tr
       (Ptaint_obs.Event.Taint_in
          { cycle = t.cycle; source; addr = buf; len = n; offset = t.input_byte_count })
   | _ -> ());
  t.input_byte_count <- t.input_byte_count + n;
  n

(* The source's cursor moves before the copy, so bytes a faulting
   copy could not deliver are consumed all the same. *)
let do_read t ~fd ~buf ~len =
  match fd_kind t fd with
  | Stdin as kind ->
    let pos = t.stdin_pos in
    let n = min len (String.length t.stdin_data - pos) in
    t.stdin_pos <- pos + n;
    copy_in t.mem buf t.stdin_data pos n ~taint:t.sources.stdin;
    delivered t ~buf ~n ~taint:t.sources.stdin kind
  | File_read f as kind -> (
    match Fs.read t.filesystem ~path:f.path with
    | None -> -1
    | Some content ->
      let pos = f.pos in
      let n = max 0 (min len (String.length content - pos)) in
      f.pos <- pos + n;
      copy_in t.mem buf content pos n ~taint:t.sources.file;
      delivered t ~buf ~n ~taint:t.sources.file kind)
  | Conn_sock as kind ->
    let n = Socket.recv t.network ~max:len t.mem buf ~taint:t.sources.network in
    delivered t ~buf ~n ~taint:t.sources.network kind
  | Closed | Stdout | Stderr | File_write _ | Listen_sock -> -1

(* A write whose buffer faults part-way returns -1 with nothing
   written: stdout is cut back to where the call found it, and a file
   or socket only sees the bytes once all of them have loaded. *)
let do_write t ~fd ~buf ~len =
  match fd_kind t fd with
  | Stdout | Stderr -> (
    let mark = Buffer.length t.stdout_buf in
    match copy_out t.mem buf len t.stdout_buf with
    | () -> len
    | exception Memory.Unmapped _ ->
      Buffer.truncate t.stdout_buf mark;
      -1)
  | File_write f ->
    let out = Buffer.create (min len 4096) in
    copy_out t.mem buf len out;
    Fs.append t.filesystem ~path:f.path (Buffer.contents out);
    len
  | Conn_sock ->
    let out = Buffer.create (min len 4096) in
    copy_out t.mem buf len out;
    Socket.send t.network (Buffer.contents out);
    len
  | Closed | Stdin | File_read _ | Listen_sock ->
    touch t.mem buf len;
    -1

let do_open t ~path ~flags =
  if flags land 1 <> 0 then begin
    Fs.truncate t.filesystem ~path;
    alloc_fd t (File_write { path })
  end
  else if Fs.exists t.filesystem ~path then alloc_fd t (File_read { path; pos = 0 })
  else -1

let do_sbrk t ~incr ~mem =
  let old = t.brk in
  if incr <= 0 then old
  else if t.brk + incr > t.heap_limit then -1
  else begin
    Memory.map_range mem ~lo:t.brk ~bytes:incr;
    t.brk <- t.brk + incr;
    old
  end

let return regs v =
  Regfile.set_value regs Reg.v0 (Word.of_signed v);
  `Continue

(* Structured guest fault: an unknown syscall number or a malformed
   argument (negative transfer length) is the guest operating outside
   the ABI — raise a typed fault carrying the full syscall context
   instead of a bare [Failure], so the campaign runtime can classify
   it without string matching. *)
let guest_fault num (m : Machine.t) a0 a1 a2 =
  raise (Guest_fault { sysnum = num; pc = m.Machine.pc; args = [ a0; a1; a2 ] })

(* [read]/[recv] and [write]/[send]: an unmapped buffer is EFAULT. *)
let transfer t m ~num ~a0 ~a1 ~a2 ~write =
  if Word.to_signed a2 < 0 then guest_fault num m a0 a1 a2;
  let regs = m.Machine.regs in
  match if write then do_write t ~fd:a0 ~buf:a1 ~len:a2 else do_read t ~fd:a0 ~buf:a1 ~len:a2 with
  | n -> return regs n
  | exception Memory.Unmapped _ -> return regs (-1)

let handle t (m : Machine.t) =
  t.syscalls <- t.syscalls + 1;
  let regs = m.Machine.regs in
  let num = Regfile.value regs Reg.v0 in
  (match t.trace with
   | Some tr ->
     t.cycle <- m.Machine.icount;
     Ptaint_obs.Trace.emit tr
       (Ptaint_obs.Event.Syscall
          { cycle = m.Machine.icount; pc = m.Machine.pc; name = Sysnum.name num })
   | None -> ());
  let a0 = Regfile.value regs Reg.a0 and a1 = Regfile.value regs Reg.a1 in
  let a2 = Regfile.value regs Reg.a2 in
  if num = Sysnum.sys_exit then `Exit (Word.to_signed a0)
  else if num = Sysnum.sys_read || num = Sysnum.sys_recv then
    transfer t m ~num ~a0 ~a1 ~a2 ~write:false
  else if num = Sysnum.sys_write || num = Sysnum.sys_send then
    transfer t m ~num ~a0 ~a1 ~a2 ~write:true
  else if num = Sysnum.sys_open then
    (match Memory.read_cstring t.mem a0 with
     | path -> return regs (do_open t ~path ~flags:a1)
     | exception Memory.Unmapped _ -> return regs (-1))
  else if num = Sysnum.sys_close then begin
    if a0 >= 3 && a0 < Array.length t.fds then t.fds.(a0) <- Closed;
    return regs 0
  end
  else if num = Sysnum.sys_sbrk then return regs (do_sbrk t ~incr:(Word.to_signed a0) ~mem:t.mem)
  else if num = Sysnum.sys_socket then return regs (alloc_fd t Listen_sock)
  else if num = Sysnum.sys_accept then
    (match fd_kind t a0 with
     | Listen_sock ->
       if Socket.accept t.network then return regs (alloc_fd t Conn_sock) else return regs (-1)
     | _ -> return regs (-1))
  else if num = Sysnum.sys_getuid then return regs t.current_uid
  else if num = Sysnum.sys_setuid then begin
    t.current_uid <- Word.to_signed a0;
    return regs 0
  end
  else if num = Sysnum.sys_exec then
    (match Memory.read_cstring t.mem a0 with
     | path ->
       t.execs_rev <- path :: t.execs_rev;
       return regs 0
     | exception Memory.Unmapped _ -> return regs (-1))
  else if num = Sysnum.sys_time then return regs (m.Machine.icount / 1000)
  else if num = Sysnum.sys_getpid then return regs 42
  else if num = Sysnum.sys_guard then begin
    Machine.add_guard m ~addr:a0 ~len:a1;
    return regs 0
  end
  else if num = Sysnum.sys_unguard then begin
    Machine.remove_guard m ~addr:a0;
    return regs 0
  end
  else guest_fault num m a0 a1 a2
