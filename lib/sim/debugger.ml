type t = {
  session : Sim.session;
  mutable breakpoints : (int * string) list; (* address, display name *)
  mutable outcome : Sim.outcome option;
}

let create session = { session; breakpoints = []; outcome = None }

let program t = t.session.Sim.s_image.Ptaint_asm.Loader.program
let machine t = t.session.Sim.s_machine
let mem t = t.session.Sim.s_image.Ptaint_asm.Loader.mem

(* --- argument parsing --- *)

let resolve t token =
  match int_of_string_opt token with
  | Some v -> Some (v, token)
  | None -> (
    match Ptaint_asm.Program.symbol (program t) token with
    | Some addr -> Some (addr, token)
    | None -> None)

(* --- rendering --- *)

let current_line t =
  let m = machine t in
  let pc = m.Ptaint_cpu.Machine.pc in
  match Ptaint_cpu.Machine.fetch m pc with
  | Some insn ->
    Printf.sprintf "%08x <%s>  %s" pc
      (Diagnostics.symbolize (program t) pc)
      (Ptaint_isa.Insn.to_string insn)
  | None -> Printf.sprintf "%08x <outside text>" pc

let show_regs t =
  let buf = Buffer.create 256 in
  let m = machine t in
  for r = 1 to 31 do
    let w = Ptaint_cpu.Regfile.get m.Ptaint_cpu.Machine.regs r in
    if not (Ptaint_taint.Tword.equal w Ptaint_taint.Tword.zero) then
      Buffer.add_string buf
        (Format.asprintf "  %-5s %a\n" (Format.asprintf "%a" Ptaint_isa.Reg.pp_sym r) Ptaint_taint.Tword.pp w)
  done;
  Buffer.add_string buf (Printf.sprintf "  pc    0x%08x\n" m.Ptaint_cpu.Machine.pc);
  Buffer.contents buf

let hexdump t addr len =
  let buf = Buffer.create 512 in
  let addr = addr land lnot 15 in
  let rows = (len + 15) / 16 in
  for row = 0 to rows - 1 do
    let base = addr + (row * 16) in
    Buffer.add_string buf (Printf.sprintf "  %08x " base);
    let ascii = Buffer.create 16 in
    for i = 0 to 15 do
      let a = base + i in
      if i mod 8 = 0 then Buffer.add_char buf ' ';
      if Ptaint_mem.Memory.is_mapped (mem t) a then begin
        let w = Ptaint_mem.Memory.peek_byte (mem t) a in
        let v = Ptaint_taint.Tword.value w and taint = Ptaint_taint.Tword.is_tainted w in
        Buffer.add_string buf (Printf.sprintf "%02x%c" v (if taint then '*' else ' '));
        Buffer.add_char ascii (if v >= 32 && v < 127 then Char.chr v else '.')
      end
      else begin
        Buffer.add_string buf "-- ";
        Buffer.add_char ascii '-'
      end
    done;
    Buffer.add_string buf (" |" ^ Buffer.contents ascii ^ "|\n")
  done;
  Buffer.add_string buf "  (* marks tainted bytes)\n";
  Buffer.contents buf

let disassemble t addr count =
  let p = program t in
  let buf = Buffer.create 256 in
  for i = 0 to count - 1 do
    let a = addr + (4 * i) in
    match Ptaint_cpu.Machine.fetch (machine t) a with
    | Some insn ->
      Buffer.add_string buf
        (Printf.sprintf "  %s%08x <%-20s> %s\n"
           (if a = (machine t).Ptaint_cpu.Machine.pc then "=> " else "   ")
           a (Diagnostics.symbolize p a) (Ptaint_isa.Insn.to_string insn))
    | None -> Buffer.add_string buf (Printf.sprintf "   %08x <outside text>\n" a)
  done;
  Buffer.contents buf

let show_taint t =
  let buf = Buffer.create 256 in
  (match Diagnostics.tainted_registers (machine t) with
   | [] -> Buffer.add_string buf "  no tainted registers\n"
   | regs ->
     List.iter
       (fun (name, w) ->
         Buffer.add_string buf
           (Format.asprintf "  %-5s %a\n" ("$" ^ name) Ptaint_taint.Tword.pp w))
       regs);
  (match Ptaint_cpu.Machine.guards (machine t) with
   | [] -> ()
   | gs ->
     Buffer.add_string buf "  guarded ranges:\n";
     List.iter
       (fun (lo, len) -> Buffer.add_string buf (Printf.sprintf "    0x%08x +%d\n" lo len))
       gs);
  Buffer.contents buf

(* --- stepping --- *)

let step_once t =
  match Sim.session_step t.session with
  | Sim.Running -> true
  | Sim.Finished outcome ->
    t.outcome <- Some outcome;
    false

let step_n t n =
  let buf = Buffer.create 256 in
  let rec go i =
    if i >= n then ()
    else begin
      Buffer.add_string buf ("  " ^ current_line t ^ "\n");
      if step_once t then go (i + 1)
      else
        Buffer.add_string buf
          (Format.asprintf "  program stopped: %a\n" Sim.pp_outcome (Option.get t.outcome))
    end
  in
  go 0;
  Buffer.contents buf

let continue_ t =
  let buf = Buffer.create 128 in
  let rec go steps =
    let pc = (machine t).Ptaint_cpu.Machine.pc in
    match List.find_opt (fun (a, _) -> a = pc) t.breakpoints with
    | Some (_, name) when steps > 0 ->
      Buffer.add_string buf (Printf.sprintf "  breakpoint hit: %s\n  %s\n" name (current_line t))
    | _ ->
      if step_once t then go (steps + 1)
      else
        Buffer.add_string buf
          (Format.asprintf "  program stopped after %d steps: %a\n" (steps + 1) Sim.pp_outcome
             (Option.get t.outcome))
  in
  (match t.outcome with
   | Some o -> Buffer.add_string buf (Format.asprintf "  already finished: %a\n" Sim.pp_outcome o)
   | None -> go 0);
  Buffer.contents buf

let help_text =
  "  s [n]              step (default 1 instruction)\n\
  \  c                  continue to breakpoint / alert / fault / exit\n\
  \  b [sym|0xaddr]     set breakpoint (no argument: list)\n\
  \  d <sym|0xaddr>     delete breakpoint\n\
  \  regs               registers (non-zero) with taint masks\n\
  \  mem <sym|0xaddr> [n]  hex dump, * = tainted byte\n\
  \  bt                 guest backtrace\n\
  \  dis [sym|0xaddr] [n]  disassemble (default: around pc)\n\
  \  taint              tainted registers + guarded ranges\n\
  \  info               execution status\n\
  \  q                  quit\n"

let exec t line =
  let words =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  in
  let unknown_location token = (Printf.sprintf "  unknown location %S\n" token, `Continue) in
  match words with
  | [] -> ("", `Continue)
  | [ "q" ] | [ "quit" ] | [ "exit" ] -> ("", `Quit)
  | [ "help" ] | [ "h" ] | [ "?" ] -> (help_text, `Continue)
  | "s" :: rest | "step" :: rest ->
    let n = match rest with [ n ] -> max 1 (int_of_string_opt n |> Option.value ~default:1) | _ -> 1 in
    (step_n t n, `Continue)
  | [ "c" ] | [ "continue" ] -> (continue_ t, `Continue)
  | [ "b" ] | [ "break" ] ->
    ( (match t.breakpoints with
       | [] -> "  no breakpoints\n"
       | bs ->
         String.concat ""
           (List.map (fun (a, name) -> Printf.sprintf "  0x%08x %s\n" a name) bs)),
      `Continue )
  | [ "b"; token ] | [ "break"; token ] -> (
    match resolve t token with
    | Some (addr, name) ->
      t.breakpoints <- (addr, name) :: t.breakpoints;
      (Printf.sprintf "  breakpoint at 0x%08x (%s)\n" addr name, `Continue)
    | None -> unknown_location token)
  | [ "d"; token ] | [ "delete"; token ] -> (
    match resolve t token with
    | Some (addr, _) ->
      t.breakpoints <- List.filter (fun (a, _) -> a <> addr) t.breakpoints;
      ("  deleted\n", `Continue)
    | None -> unknown_location token)
  | [ "regs" ] -> (show_regs t, `Continue)
  | "mem" :: token :: rest -> (
    match resolve t token with
    | Some (addr, _) ->
      let len =
        match rest with [ n ] -> int_of_string_opt n |> Option.value ~default:64 | _ -> 64
      in
      (hexdump t addr len, `Continue)
    | None -> unknown_location token)
  | [ "bt" ] | [ "backtrace" ] ->
    ( String.concat ""
        (List.mapi
           (fun i f ->
             Printf.sprintf "  #%d %08x %s\n" i f.Diagnostics.pc f.Diagnostics.location)
           (Diagnostics.backtrace (program t) (machine t))),
      `Continue )
  | [ "dis" ] ->
    (disassemble t ((machine t).Ptaint_cpu.Machine.pc - 8) 8, `Continue)
  | "dis" :: token :: rest -> (
    match resolve t token with
    | Some (addr, _) ->
      let n = match rest with [ n ] -> int_of_string_opt n |> Option.value ~default:8 | _ -> 8 in
      (disassemble t addr n, `Continue)
    | None -> unknown_location token)
  | [ "taint" ] -> (show_taint t, `Continue)
  | [ "info" ] ->
    ( Printf.sprintf "  %s\n  instructions executed: %d\n  status: %s\n" (current_line t)
        (machine t).Ptaint_cpu.Machine.icount
        (match t.outcome with
         | None -> "running"
         | Some o -> Format.asprintf "%a" Sim.pp_outcome o),
      `Continue )
  | cmd :: _ -> (Printf.sprintf "  unknown command %S (try 'help')\n" cmd, `Continue)
