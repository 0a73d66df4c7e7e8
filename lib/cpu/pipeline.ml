open Ptaint_isa

type stats = {
  mutable cycles : int;
  mutable instructions : int;
  mutable load_use_stalls : int;
  mutable control_flushes : int;
  mutable taint_gate_ops : int;
  mutable detector_checks : int;
}

type t = {
  machine : Machine.t;
  ihier : Ptaint_mem.Cache.Hierarchy.t;
  dhier : Ptaint_mem.Cache.Hierarchy.t;
  st : stats;
  mutable last_load_target : Reg.t option;
  pipeline_depth : int;
}

let create ?(memory_latency = 60) machine =
  { machine;
    ihier = Ptaint_mem.Cache.Hierarchy.create ~memory_latency ();
    dhier = Ptaint_mem.Cache.Hierarchy.create ~memory_latency ();
    st =
      { cycles = 0; instructions = 0; load_use_stalls = 0; control_flushes = 0;
        taint_gate_ops = 0; detector_checks = 0 };
    last_load_target = None;
    pipeline_depth = 5 }

(* Taint hardware activity per instruction: one OR-gate pass per ALU
   result byte, one 4-bit wire copy per load/store, one 4-input OR
   (detector) per memory access or register jump. *)
let taint_ops insn =
  match (insn : Insn.t) with
  | R _ | I _ | Shift _ | Muldiv _ -> 4
  | Load _ | Store _ -> 4 + 1
  | Jr _ | Jalr _ -> 1
  | _ -> 0

let step t =
  let pc = t.machine.Machine.pc in
  let insn = Machine.fetch t.machine pc in
  (* Effective address must be sampled before execution: a load such
     as [lw $3,0($3)] overwrites its own base register. *)
  let mem_addr =
    match insn with
    | Some (Load (_, _, off, b) | Store (_, _, off, b)) ->
      Some (Word.add (Regfile.value t.machine.Machine.regs b) (Word.of_signed off))
    | Some _ | None -> None
  in
  let mem_width =
    match insn with
    | Some (Load ((LB | LBU), _, _, _) | Store (SB, _, _, _)) -> 1
    | Some (Load ((LH | LHU), _, _, _) | Store (SH, _, _, _)) -> 2
    | _ -> 4
  in
  let before = pc in
  let result = Machine.step t.machine in
  (match insn with
   | None -> ()
   | Some insn ->
     let st = t.st in
     st.instructions <- st.instructions + 1;
     let fetch_lat =
       Ptaint_mem.Cache.Hierarchy.access t.ihier ~addr:pc ~write:false ~tainted:false
     in
     st.cycles <- st.cycles + fetch_lat;
     st.taint_gate_ops <- st.taint_gate_ops + taint_ops insn;
     (match insn with
      | Load _ | Store _ | Jr _ | Jalr _ -> st.detector_checks <- st.detector_checks + 1
      | _ -> ());
     (* Load-use hazard: the previous instruction loaded a register we
        read in EX this cycle. *)
     (match t.last_load_target with
      | Some r when List.mem r (Insn.reads insn) ->
        st.cycles <- st.cycles + 1;
        st.load_use_stalls <- st.load_use_stalls + 1
      | Some _ | None -> ());
     t.last_load_target <-
       (match insn with Load (_, rt, _, _) -> Some rt | _ -> None);
     (match (mem_addr, result) with
      | Some addr, Machine.Normal ->
        let write = match insn with Store _ -> true | _ -> false in
        (* The line's tag summary mirrors memory's taint plane for
           the bytes this access touched. *)
        let tainted =
          Ptaint_mem.Memory.taint_summary t.machine.Machine.mem addr mem_width
        in
        let lat = Ptaint_mem.Cache.Hierarchy.access t.dhier ~addr ~write ~tainted in
        st.cycles <- st.cycles + (lat - 1)
      | _ -> ());
     (match result with
      | Machine.Normal when t.machine.Machine.pc <> before + 4 && Insn.is_control insn ->
        st.cycles <- st.cycles + 2;
        st.control_flushes <- st.control_flushes + 1
      | Machine.Alert _ ->
        (* The malicious instruction travels to retirement before the
           security exception fires. *)
        st.cycles <- st.cycles + t.pipeline_depth
      | _ -> ()));
  result

let stats t = t.st
