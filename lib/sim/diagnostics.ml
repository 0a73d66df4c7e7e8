let text_symbols (p : Ptaint_asm.Program.t) =
  let text_end = p.Ptaint_asm.Program.text_base + (4 * Array.length p.Ptaint_asm.Program.insns) in
  List.filter
    (fun (_, addr) -> addr >= p.Ptaint_asm.Program.text_base && addr < text_end)
    p.Ptaint_asm.Program.symbols
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let in_text (p : Ptaint_asm.Program.t) addr =
  addr >= p.Ptaint_asm.Program.text_base
  && addr < p.Ptaint_asm.Program.text_base + (4 * Array.length p.Ptaint_asm.Program.insns)

(* Closest text symbol at or below [addr] among those passing [keep],
   as (name, offset-into-symbol). *)
let nearest ~keep p addr =
  if not (in_text p addr) then None
  else
    List.fold_left
      (fun best (name, saddr) ->
        if saddr <= addr && keep name then
          match best with
          | Some (_, baddr) when baddr >= saddr -> best
          | _ -> Some (name, saddr)
        else best)
      None (text_symbols p)
    |> Option.map (fun (name, saddr) -> (name, addr - saddr))

(* Generated local labels (_L12, _Lepi3, _Str4) are not useful frame
   names; prefer the enclosing function symbol. *)
let is_local_label name = String.length name > 1 && name.[0] = '_' && name.[1] = 'L'

let nearest_function p addr = nearest ~keep:(fun name -> not (is_local_label name)) p addr

let symbolize p addr =
  match nearest_function p addr with
  | Some (name, 0) -> name
  | Some (name, off) -> Printf.sprintf "%s+0x%x" name off
  | None -> Printf.sprintf "0x%08x" addr

type frame = { pc : int; location : string }

let backtrace_limit = 32

let backtrace (p : Ptaint_asm.Program.t) (m : Ptaint_cpu.Machine.t) =
  let mem = m.Ptaint_cpu.Machine.mem in
  let frame_of pc = { pc; location = symbolize p pc } in
  (* a frame is two aligned 32-bit words, the word accessors'
     precondition: a corrupt chain ends the walk at a misaligned [fp] *)
  let rec walk acc fp n =
    let fp = fp land Ptaint_isa.Word.mask32 in
    let fp4 = (fp + 4) land Ptaint_isa.Word.mask32 in
    if n >= backtrace_limit || fp land 3 <> 0 then List.rev acc
    else if not (Ptaint_mem.Memory.is_mapped mem fp && Ptaint_mem.Memory.is_mapped mem fp4)
    then List.rev acc
    else
      let saved_fp = Ptaint_taint.Tword.value (Ptaint_mem.Memory.peek_word mem fp) in
      let ra = Ptaint_taint.Tword.value (Ptaint_mem.Memory.peek_word mem fp4) in
      if not (in_text p ra) then List.rev acc
      else
        let acc = frame_of ra :: acc in
        (* frame pointers must strictly increase up the stack *)
        if saved_fp <= fp then List.rev acc else walk acc saved_fp (n + 1)
  in
  let fp = Ptaint_cpu.Regfile.value m.Ptaint_cpu.Machine.regs Ptaint_isa.Reg.fp in
  walk [ frame_of m.Ptaint_cpu.Machine.pc ] fp 1

let tainted_registers (m : Ptaint_cpu.Machine.t) =
  (* Every architectural slot, HI/LO included — a tainted multiply
     result must not escape the report just because it lives outside
     the 32 GPRs. *)
  List.filter_map
    (fun s ->
      let w = Ptaint_cpu.Regfile.slot m.Ptaint_cpu.Machine.regs s in
      if Ptaint_taint.Tword.is_tainted w then Some (Ptaint_cpu.Regfile.slot_name s, w)
      else None)
    (List.init Ptaint_cpu.Regfile.slots Fun.id)

let report (result : Sim.result) =
  let buf = Buffer.create 512 in
  let p = result.Sim.image.Ptaint_asm.Loader.program in
  let m = result.Sim.machine in
  (match result.Sim.outcome with
   | Sim.Alert a ->
     Buffer.add_string buf
       (Format.asprintf "security alert: %a\n" Ptaint_cpu.Machine.pp_alert a);
     Buffer.add_string buf
       (Printf.sprintf "  in %s\n" (symbolize p a.Ptaint_cpu.Machine.alert_pc))
   | Sim.Fault f ->
     Buffer.add_string buf (Format.asprintf "fault: %a\n" Ptaint_cpu.Machine.pp_fault f);
     Buffer.add_string buf (Printf.sprintf "  at %s\n" (symbolize p m.Ptaint_cpu.Machine.pc))
   | o -> Buffer.add_string buf (Format.asprintf "outcome: %a\n" Sim.pp_outcome o));
  Buffer.add_string buf "guest backtrace:\n";
  List.iteri
    (fun i f -> Buffer.add_string buf (Printf.sprintf "  #%d %08x %s\n" i f.pc f.location))
    (backtrace p m);
  (match tainted_registers m with
   | [] -> ()
   | regs ->
     Buffer.add_string buf "tainted registers:\n";
     List.iter
       (fun (name, w) ->
         Buffer.add_string buf
           (Format.asprintf "  $%s = %a\n" name Ptaint_taint.Tword.pp w))
       regs);
  (match Sim.insn_window result with
   | [] -> ()
   | window ->
     Buffer.add_string buf
       (Printf.sprintf "last %d instructions before detection:\n" (List.length window));
     List.iter
       (fun (pc, insn) ->
         let text = Format.asprintf "%a" Ptaint_isa.Insn.pp insn in
         Buffer.add_string buf (Printf.sprintf "  %08x  %-28s %s\n" pc text (symbolize p pc)))
       window);
  (match Sim.events result with
   | [] -> ()
   | evs ->
     let interesting e =
       match e with
       | Ptaint_obs.Event.Taint_in _ | Ptaint_obs.Event.Reg_taint _
       | Ptaint_obs.Event.Tainted_store _ | Ptaint_obs.Event.Alert _
       | Ptaint_obs.Event.Fault _ | Ptaint_obs.Event.Fault_injected _ -> true
       | Ptaint_obs.Event.Syscall _ | Ptaint_obs.Event.Restore _ -> false
     in
     (match List.filter interesting evs with
      | [] -> ()
      | story ->
        (* Byte-at-a-time readers (gets) introduce taint once per byte;
           cap the introduction lines so the narrative stays readable. *)
        let max_intros = 8 in
        let intros =
          List.length
            (List.filter
               (function Ptaint_obs.Event.Taint_in _ -> true | _ -> false)
               story)
        in
        Buffer.add_string buf "taint provenance:\n";
        let shown = ref 0 in
        List.iter
          (fun e ->
            match e with
            | Ptaint_obs.Event.Taint_in _ ->
              incr shown;
              if !shown <= max_intros then
                Buffer.add_string buf
                  (Printf.sprintf "  %s\n" (Ptaint_obs.Event.to_string e))
              else if !shown = max_intros + 1 then
                Buffer.add_string buf
                  (Printf.sprintf "  ... %d further taint introductions elided\n"
                     (intros - max_intros))
            | _ ->
              Buffer.add_string buf
                (Printf.sprintf "  %s\n" (Ptaint_obs.Event.to_string e)))
          story));
  (* The recorder keeps the first events, so a full one has lost the
     latest: the ones closest to the detection. *)
  (match Ptaint_cpu.Machine.trace m with
   | Some tr when Ptaint_obs.Trace.dropped tr > 0 ->
     Buffer.add_string buf
       (Printf.sprintf "event trace full: %d later events dropped after the first %d\n"
          (Ptaint_obs.Trace.dropped tr) (Ptaint_obs.Trace.length tr))
   | _ -> ());
  Buffer.contents buf
