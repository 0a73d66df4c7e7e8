open Ptaint_taint
open Ptaint_isa

type code = { base : int; insns : Insn.t array }

type alert_kind = Jump_target | Load_address | Store_address | Guarded_store

type alert = {
  alert_pc : int;
  alert_insn : Insn.t;
  kind : alert_kind;
  reg : Reg.t;
  reg_value : Tword.t;
  ea : int option;
  stage : string;
}

type fault =
  | Segfault of { addr : int; access : Ptaint_mem.Memory.access }
  | Misaligned of { addr : int; width : int }
  | Bad_pc of int

type step =
  | Normal
  | Syscall
  | Alert of alert
  | Fault of fault
  | Break_trap of int

type obs = {
  obs_trace : Ptaint_obs.Trace.t;
  obs_ring : Insn.t Ptaint_obs.Ring.t;
  mutable obs_regs_seen : int;
  mutable obs_stores_seen : int;
}

type t = {
  regs : Regfile.t;
  mem : Ptaint_mem.Memory.t;
  mutable code : code;
  mutable policy : Policy.t;
  mutable pc : int;
  mutable icount : int;
  mutable guard_ranges : (int * int) list;
  mutable obs : obs option;
  mutable decoded : Block.t option;
  mutable blocks_run : int;
  mutable clean_blocks : int;
  mutable tier : Superblock.tier option;
  mutable sbenv : Superblock.env option;
  mutable sb_promoted : int;
  mutable chain_hits : int;
  mutable chain_misses : int;
  mutable sb_deopts : int;
}

let create ?(policy = Policy.default) ?decoded ?tier ~code ~mem ~entry () =
  { regs = Regfile.create (); mem; code; policy; pc = entry; icount = 0; guard_ranges = [];
    obs = None; decoded; blocks_run = 0; clean_blocks = 0;
    tier; sbenv = None; sb_promoted = 0; chain_hits = 0; chain_misses = 0; sb_deopts = 0 }

(* Arena recycling: rewind every piece of machine state except [mem]
   (the caller restores that from its snapshot) and [regs] storage,
   re-aiming the machine at a possibly different program.  After
   [reset] the machine is indistinguishable from a [create] with the
   same arguments.  [sbenv] deliberately survives: it only caches the
   register-file storage, memory and its stats record, all of which
   are stable across resets of the same machine. *)
let reset ?(policy = Policy.default) ?decoded ?tier t ~code ~entry =
  Regfile.reset t.regs;
  t.code <- code;
  t.policy <- policy;
  t.pc <- entry;
  t.icount <- 0;
  t.guard_ranges <- [];
  t.obs <- None;
  t.decoded <- decoded;
  t.blocks_run <- 0;
  t.clean_blocks <- 0;
  t.tier <- tier;
  t.sb_promoted <- 0;
  t.chain_hits <- 0;
  t.chain_misses <- 0;
  t.sb_deopts <- 0

let decoded t =
  match t.decoded with
  | Some d -> d
  | None ->
    let d = Block.analyze ~base:t.code.base t.code.insns in
    t.decoded <- Some d;
    d

(* The superblock tier must agree with the decode it indexes and the
   policy its closures baked in; a mismatched cache (machine re-aimed
   without a fresh tier) is replaced by a machine-local one.  This
   runs on every [run] entry, where the policy is almost always the
   very record the tier was built from, so the physical test spares
   the structural compare's C call. *)
let tier_for t d =
  match t.tier with
  | Some tr
    when tr.Superblock.t_blocks == d
         && (tr.Superblock.t_policy == t.policy || tr.Superblock.t_policy = t.policy) -> tr
  | _ ->
    let tr = Superblock.create_tier d t.policy in
    t.tier <- Some tr;
    tr

let sbenv_for t =
  match t.sbenv with
  | Some e -> e
  | None ->
    let e = Superblock.make_env ~rf:t.regs ~mem:t.mem in
    t.sbenv <- Some e;
    e

let superblock_counters t =
  [ ("promoted", t.sb_promoted);
    ("chain_hit", t.chain_hits);
    ("chain_miss", t.chain_misses);
    ("deopt", t.sb_deopts) ]

let attach_obs t trace =
  t.obs <-
    Some
      { obs_trace = trace;
        obs_ring = Ptaint_obs.Ring.create ~dummy:Insn.Nop 48;
        obs_regs_seen = 0;
        obs_stores_seen = 0 }

let trace t = match t.obs with None -> None | Some o -> Some o.obs_trace
let ring_window t = match t.obs with None -> [] | Some o -> Ptaint_obs.Ring.to_list o.obs_ring

(* Machine-level fault-injection entry point: the injector mutates
   state through {!Regfile}/{!Ptaint_mem.Memory} and narrates the
   corruption here, so traced runs carry the injection in their event
   stream alongside the alerts it may (or may not) provoke. *)
let note_injection t ~model ~target =
  match t.obs with
  | None -> ()
  | Some o ->
    Ptaint_obs.Trace.emit o.obs_trace
      (Ptaint_obs.Event.Fault_injected { cycle = t.icount; model; target })

let add_guard t ~addr ~len = t.guard_ranges <- (addr, len) :: t.guard_ranges
let remove_guard t ~addr = t.guard_ranges <- List.filter (fun (a, _) -> a <> addr) t.guard_ranges
let guards t = t.guard_ranges

let guarded t ea width =
  t.guard_ranges <> []
  && List.exists (fun (lo, len) -> ea < lo + len && ea + width > lo) t.guard_ranges

(* Both engines and the block cutter share [Block.index_of] as the
   single pc→index rule, so they can never disagree on what is inside
   the text segment. *)
let fetch t pc =
  let idx = Block.index_of ~base:t.code.base ~len:(Array.length t.code.insns) pc in
  if idx < 0 then None else Some t.code.insns.(idx)

let alert_kind_name = function
  | Jump_target -> "tainted jump target"
  | Load_address -> "tainted load address"
  | Store_address -> "tainted store address"
  | Guarded_store -> "tainted write into guarded data"

let pp_alert ppf a =
  Format.fprintf ppf "%x: %a   %a=%a (%s, detected at %s)" a.alert_pc Insn.pp a.alert_insn
    Reg.pp a.reg Tword.pp a.reg_value (alert_kind_name a.kind) a.stage

let pp_fault ppf = function
  | Segfault { addr; access } ->
    Format.fprintf ppf "segmentation fault: %s at 0x%08x"
      (match access with Ptaint_mem.Memory.Load -> "load" | Store -> "store")
      addr
  | Misaligned { addr; width } ->
    Format.fprintf ppf "misaligned %d-byte access at 0x%08x" width addr
  | Bad_pc pc -> Format.fprintf ppf "jump outside text segment to 0x%08x" pc

(* --- ALU value semantics --- *)

let rop_value op a b =
  match (op : Insn.rop) with
  | ADD | ADDU -> Word.add a b
  | SUB | SUBU -> Word.sub a b
  | AND -> a land b
  | OR -> a lor b
  | XOR -> a lxor b
  | NOR -> Word.of_int (lnot (a lor b))
  | SLT -> if Word.lt_signed a b then 1 else 0
  | SLTU -> if Word.lt_unsigned a b then 1 else 0
  | SLLV -> Word.sll a (b land 31)
  | SRLV -> Word.srl a (b land 31)
  | SRAV -> Word.sra a (b land 31)

(* Taintedness of an R-type result, per Table 1 (the Figure 3 MUX). *)
let rop_mask (pol : Policy.t) op ~rs ~rt ~(a : Tword.t) ~(b : Tword.t) =
  if not pol.track then Mask.none
  else
    match (op : Insn.rop) with
    | AND ->
      Prop.and_bytes ~v1:(Tword.value a) ~m1:(Tword.mask a) ~v2:(Tword.value b)
        ~m2:(Tword.mask b)
    | XOR when rs = rt -> Prop.xor_same
    | SLT | SLTU -> if pol.compare_untaints then Mask.none else Prop.default (Tword.mask a) (Tword.mask b)
    | SLLV -> Prop.shift Prop.Left ~amount:(Tword.value b) ~amount_mask:(Tword.mask b) (Tword.mask a)
    | SRLV | SRAV ->
      Prop.shift Prop.Right ~amount:(Tword.value b) ~amount_mask:(Tword.mask b) (Tword.mask a)
    | ADD | ADDU | SUB | SUBU | OR | XOR | NOR ->
      Prop.default (Tword.mask a) (Tword.mask b)

let width_of_load : Insn.load_op -> int = function LB | LBU -> 1 | LH | LHU -> 2 | LW -> 4
let width_of_store : Insn.store_op -> int = function SB -> 1 | SH -> 2 | SW -> 4

(* The hot loop below is deliberately allocation-free on the Normal
   path: packed Twords are immediates, register/memory traffic goes
   through int fast paths, and records (alerts, faults) are only built
   in the branches that end the run.  Observation never intrudes here:
   [step] dispatches on [t.obs] once, and the traced variant wraps
   this untouched core. *)

let step_core t =
  let pc = t.pc in
  let idx = Block.index_of ~base:t.code.base ~len:(Array.length t.code.insns) pc in
  if idx < 0 then Fault (Bad_pc pc)
  else begin
    let insn = Array.unsafe_get t.code.insns idx in
    let regs = t.regs in
    let pol = t.policy in
    t.icount <- t.icount + 1;
    let next = pc + 4 in
    (match insn with
     | Nop -> t.pc <- next; Normal
     | R (op, rd, rs, rt) ->
       let a = Regfile.get regs rs and b = Regfile.get regs rt in
       let v = rop_value op (Tword.value a) (Tword.value b) in
       let m = rop_mask pol op ~rs ~rt ~a ~b in
       if Insn.uses_compare insn && pol.track && pol.compare_untaints then begin
         Regfile.untaint regs rs;
         Regfile.untaint regs rt
       end;
       Regfile.set regs rd (Tword.make ~v ~m);
       t.pc <- next;
       Normal
     | I (op, rt, rs, imm) ->
       let a = Regfile.get regs rs in
       let av = Tword.value a in
       let v =
         match op with
         | ADDI | ADDIU -> Word.add av (Word.of_signed imm)
         | ANDI -> av land (imm land 0xffff)
         | ORI -> av lor (imm land 0xffff)
         | XORI -> av lxor (imm land 0xffff)
         | SLTI -> if Word.lt_signed av (Word.of_signed imm) then 1 else 0
         | SLTIU -> if Word.lt_unsigned av (Word.of_signed imm) then 1 else 0
       in
       let m =
         if not pol.track then Mask.none
         else
           match op with
           | ADDI | ADDIU | ORI | XORI -> Tword.mask a
           | ANDI -> Prop.and_bytes ~v1:av ~m1:(Tword.mask a) ~v2:(imm land 0xffff) ~m2:Mask.none
           | SLTI | SLTIU -> if pol.compare_untaints then Mask.none else Tword.mask a
       in
       if Insn.uses_compare insn && pol.track && pol.compare_untaints then
         Regfile.untaint regs rs;
       Regfile.set regs rt (Tword.make ~v ~m);
       t.pc <- next;
       Normal
     | Shift (op, rd, rt, sh) ->
       let a = Regfile.get regs rt in
       let v =
         match op with
         | SLL -> Word.sll (Tword.value a) sh
         | SRL -> Word.srl (Tword.value a) sh
         | SRA -> Word.sra (Tword.value a) sh
       in
       let m =
         if not pol.track then Mask.none
         else
           let dir = match op with SLL -> Prop.Left | SRL | SRA -> Prop.Right in
           Prop.shift dir ~amount:sh ~amount_mask:Mask.none (Tword.mask a)
       in
       Regfile.set regs rd (Tword.make ~v ~m);
       t.pc <- next;
       Normal
     | Lui (rt, imm) ->
       Regfile.set regs rt (Tword.untainted (Word.sll (imm land 0xffff) 16));
       t.pc <- next;
       Normal
     | Load (op, rt, off, base) -> (
       let a = Regfile.get regs base in
       let ea = Word.add (Tword.value a) (Word.of_signed off) in
       let width = width_of_load op in
       if Policy.detects_data_pointers pol && pol.track && Tword.is_tainted a then
         Alert
           { alert_pc = pc; alert_insn = insn; kind = Load_address; reg = base;
             reg_value = a; ea = Some ea; stage = "EX/MEM" }
       else if ea land (width - 1) <> 0 then Fault (Misaligned { addr = ea; width })
       else
         try
           let result =
             match op with
             | LW -> Ptaint_mem.Memory.load_word t.mem ea
             | LB ->
               let w = Ptaint_mem.Memory.load_byte t.mem ea in
               Tword.with_value w (Word.sign_extend ~bits:8 (Tword.value w))
             | LBU -> Ptaint_mem.Memory.load_byte t.mem ea
             | LH ->
               let w = Ptaint_mem.Memory.load_half t.mem ea in
               Tword.with_value w (Word.sign_extend ~bits:16 (Tword.value w))
             | LHU -> Ptaint_mem.Memory.load_half t.mem ea
           in
           let result = if pol.track then result else Tword.untainted (Tword.value result) in
           Regfile.set regs rt result;
           t.pc <- next;
           Normal
         with Ptaint_mem.Memory.Unmapped addr ->
           Fault (Segfault { addr; access = Ptaint_mem.Memory.Load }))
     | Store (op, rt, off, base) -> (
       let a = Regfile.get regs base in
       let ea = Word.add (Tword.value a) (Word.of_signed off) in
       let width = width_of_store op in
       if Policy.detects_data_pointers pol && pol.track && Tword.is_tainted a then
         Alert
           { alert_pc = pc; alert_insn = insn; kind = Store_address; reg = base;
             reg_value = a; ea = Some ea; stage = "EX/MEM" }
       else if ea land (width - 1) <> 0 then Fault (Misaligned { addr = ea; width })
       else
         let data = Regfile.get regs rt in
         let data = if pol.track then data else Tword.untainted (Tword.value data) in
         if Policy.detects_data_pointers pol && Tword.is_tainted data && guarded t ea width then
           Alert
             { alert_pc = pc; alert_insn = insn; kind = Guarded_store; reg = rt;
               reg_value = data; ea = Some ea; stage = "EX/MEM" }
         else
         try
           (match op with
            | SW -> Ptaint_mem.Memory.store_word t.mem ea data
            | SB ->
              Ptaint_mem.Memory.store_byte t.mem ea
                (Tword.value data land 0xff)
                ~taint:(Mask.byte (Tword.mask data) 0)
            | SH -> Ptaint_mem.Memory.store_half t.mem ea (Tword.value data) ~m:(Tword.mask data));
           t.pc <- next;
           Normal
         with Ptaint_mem.Memory.Unmapped addr ->
           Fault (Segfault { addr; access = Ptaint_mem.Memory.Store }))
     | Branch2 (op, rs, rt, off) ->
       let a = Regfile.value regs rs and b = Regfile.value regs rt in
       if pol.track && pol.compare_untaints then begin
         Regfile.untaint regs rs;
         Regfile.untaint regs rt
       end;
       let taken = match op with BEQ -> a = b | BNE -> a <> b in
       t.pc <- (if taken then next + (off * 4) else next);
       Normal
     | Branch1 (op, rs, off) ->
       let a = Word.to_signed (Regfile.value regs rs) in
       if pol.track && pol.compare_untaints then Regfile.untaint regs rs;
       let taken =
         match op with BLEZ -> a <= 0 | BGTZ -> a > 0 | BLTZ -> a < 0 | BGEZ -> a >= 0
       in
       t.pc <- (if taken then next + (off * 4) else next);
       Normal
     | J target -> t.pc <- target; Normal
     | Jal target ->
       Regfile.set regs Reg.ra (Tword.untainted next);
       t.pc <- target;
       Normal
     | Jr rs ->
       let a = Regfile.get regs rs in
       if Policy.detects_control pol && pol.track && Tword.is_tainted a then
         Alert
           { alert_pc = pc; alert_insn = insn; kind = Jump_target; reg = rs; reg_value = a;
             ea = None; stage = "ID/EX" }
       else begin
         t.pc <- Tword.value a;
         Normal
       end
     | Jalr (rd, rs) ->
       let a = Regfile.get regs rs in
       if Policy.detects_control pol && pol.track && Tword.is_tainted a then
         Alert
           { alert_pc = pc; alert_insn = insn; kind = Jump_target; reg = rs; reg_value = a;
             ea = None; stage = "ID/EX" }
       else begin
         Regfile.set regs rd (Tword.untainted next);
         t.pc <- Tword.value a;
         Normal
       end
     | Muldiv (op, rs, rt) ->
       let a = Regfile.get regs rs and b = Regfile.get regs rt in
       let av = Tword.value a and bv = Tword.value b in
       let hi, lo =
         match op with
         | MULT -> (Word.mul_hi_signed av bv, Word.mul_lo av bv)
         | MULTU -> (Word.mul_hi_unsigned av bv, Word.mul_lo av bv)
         | DIV ->
           let q, r = Word.div_signed av bv in
           (r, q)
         | DIVU ->
           let q, r = Word.div_unsigned av bv in
           (r, q)
       in
       let m = if pol.track then Prop.default (Tword.mask a) (Tword.mask b) else Mask.none in
       Regfile.set_hi regs (Tword.make ~v:hi ~m);
       Regfile.set_lo regs (Tword.make ~v:lo ~m);
       t.pc <- next;
       Normal
     | Mfhi rd -> Regfile.set regs rd (Regfile.get_hi regs); t.pc <- next; Normal
     | Mflo rd -> Regfile.set regs rd (Regfile.get_lo regs); t.pc <- next; Normal
     | Mthi rs -> Regfile.set_hi regs (Regfile.get regs rs); t.pc <- next; Normal
     | Mtlo rs -> Regfile.set_lo regs (Regfile.get regs rs); t.pc <- next; Normal
     | Syscall -> t.pc <- next; Syscall
     | Break code -> t.pc <- next; Break_trap code)
  end

(* Up to [k] instructions of the engine [f], stopping at the first
   non-[Normal] result. *)
let rec steps f t k =
  if k <= 0 then Normal else match f t with Normal -> steps f t (k - 1) | r -> r

(* --- observation (only reached when a trace is attached) --- *)

(* Coarse region classification for taint-milestone narratives.  The
   machine does not know the image's exact heap bounds, so everything
   between the data base and the stack region reads as "heap/data". *)
let obs_region ea =
  if ea >= 0x7000_0000 then ("stack", 1)
  else if ea >= Ptaint_mem.Layout.data_base then ("heap/data", 2)
  else ("low memory", 4)

(* Every architectural slot except the hardwired zero register. *)
let all_slots_seen = (1 lsl Regfile.slots) - 2

let step_traced t o =
  let pc = t.pc in
  let fetched = fetch t pc in
  (match fetched with
   | Some insn -> Ptaint_obs.Ring.push o.obs_ring pc insn
   | None -> ());
  let r = step_core t in
  let tr = o.obs_trace in
  let cycle = t.icount in
  (* propagation milestone: first taint of each architectural slot;
     once every slot has reported there is nothing left to notice *)
  if o.obs_regs_seen <> all_slots_seen then
    for s = 1 to Regfile.slots - 1 do
      if o.obs_regs_seen land (1 lsl s) = 0 && Tword.is_tainted (Regfile.slot t.regs s) then begin
        o.obs_regs_seen <- o.obs_regs_seen lor (1 lsl s);
        Ptaint_obs.Trace.emit tr
          (Ptaint_obs.Event.Reg_taint { cycle; pc; reg = Regfile.slot_name s })
      end
    done;
  (* propagation milestone: first tainted store into each region *)
  (match (fetched, r) with
   | Some (Store (op, rt, off, base)), Normal ->
     let data = Regfile.get t.regs rt in
     if Tword.is_tainted data then begin
       let ea = Word.add (Regfile.value t.regs base) (Word.of_signed off) in
       let region, bit = obs_region ea in
       if o.obs_stores_seen land bit = 0 then begin
         o.obs_stores_seen <- o.obs_stores_seen lor bit;
         Ptaint_obs.Trace.emit tr
           (Ptaint_obs.Event.Tainted_store
              { cycle; pc; addr = ea; len = width_of_store op; region })
       end
     end
   | _ -> ());
  (match r with
   | Alert a ->
     Ptaint_obs.Trace.emit tr
       (Ptaint_obs.Event.Alert
          { cycle; pc = a.alert_pc; kind = alert_kind_name a.kind; reg = Reg.name a.reg;
            value = Tword.value a.reg_value })
   | Fault f ->
     Ptaint_obs.Trace.emit tr
       (Ptaint_obs.Event.Fault { cycle; pc; desc = Format.asprintf "%a" pp_fault f })
   | Normal | Syscall | Break_trap _ -> ());
  r

let step t = match t.obs with None -> step_core t | Some o -> step_traced t o

(* --- bulk execution ---

   [run t ~fuel] executes up to [fuel] instructions and returns
   [Normal] exactly when it stopped because the fuel ran out; any
   other result is the event that ended execution, with [pc], [icount]
   and all machine state byte-identical to what [fuel] iterations of
   [step] would have produced.

   One dispatch per basic block, two engines.  A hot entry (its
   hotness counter crossed {!Superblock.threshold}) runs its
   translated superblock chain, which carries its own clean/full
   variant selection.  Every other block — cold code, a hot block
   that does not fit the remaining fuel, and under a non-tracking
   policy a block entered with register taint — runs on [step_core], the
   same per-instruction semantics the reference engine uses, up to
   and including its terminator.  [blocks_run] and [clean_blocks]
   count those cold blocks too; a cold block counts as clean when no
   register slot holds taint at its entry (the translated arm's
   variant guard) nor at its exit, the cold counterpart of a clean
   variant that ran to the end without a deopt. *)

let run t ~fuel =
  if fuel <= 0 then Normal
  else
    match t.obs with
    | Some _ ->
      (* Per-instruction milestones wanted: drive the traced engine. *)
      steps step t fuel
    | None ->
      let module M = Ptaint_mem.Memory in
      let d = decoded t in
      let regs = t.regs in
      let st = M.stats t.mem in
      let base = d.Block.base and n = d.Block.n in
      let ops = d.Block.ops and stops = d.Block.stops and insns = d.Block.insns in
      (* Superblock tier: per-entry hotness counters, translated
         chains, and an env the chains communicate exits through. *)
      let module SB = Superblock in
      let tier = tier_for t d in
      let sbs = tier.SB.t_sbs and counts = d.Block.counts in
      let env = sbenv_for t in
      env.SB.e_guards <- t.guard_ranges;
      env.SB.e_has_guards <- t.guard_ranges <> [];
      (* a non-tracking tier has no full variant: a dirty register
         file (fault injection) runs on [step_core] *)
      let tracks = t.policy.Policy.track in
      (* Driver: one iteration per basic block (or per superblock
         chain run, when the entry is translated and the whole block
         fits the remaining fuel — the tier refuses partial blocks so
         fuel slicing stays icount-exact on the [step_core] arm). *)
      let remaining = ref fuel in
      let result = ref Normal in
      let running = ref true in
      while !running do
        let pc0 = t.pc in
        let idx = Block.index_of ~base ~len:n pc0 in
        if idx < 0 then begin
          result := Fault (Bad_pc pc0);
          running := false
        end
        else begin
          let sb0 =
            let s = Array.unsafe_get sbs idx in
            if s != SB.dummy then s
            else if Array.unsafe_get stops idx < n then begin
              (* untranslated entry with an in-text terminator: warm
                 its counter, promote when it crosses the threshold *)
              let c = Array.unsafe_get counts idx + 1 in
              Array.unsafe_set counts idx c;
              if c >= SB.threshold then begin
                t.sb_promoted <- t.sb_promoted + 1;
                SB.translate tier idx
              end
              else SB.dummy
            end
            else SB.dummy
          in
          if sb0 != SB.dummy && !remaining >= sb0.SB.sb_len
             && (tracks || Regfile.is_clean regs)
          then begin
            (* --- translated arm: run the chain until it exits --- *)
            env.SB.e_fuel <- !remaining;
            env.SB.e_blocks <- 0;
            env.SB.e_cleans <- 0;
            env.SB.e_deopts <- 0;
            env.SB.e_mode <- -1;
            (try sb0.SB.sb_go env
             with M.Unmapped addr ->
               env.SB.e_ev <- SB.ev_unmapped;
               env.SB.e_a <- addr);
            t.blocks_run <- t.blocks_run + env.SB.e_blocks;
            t.clean_blocks <- t.clean_blocks + env.SB.e_cleans;
            t.sb_deopts <- t.sb_deopts + env.SB.e_deopts;
            if env.SB.e_blocks > 1 then
              t.chain_hits <- t.chain_hits + env.SB.e_blocks - 1;
            let code = env.SB.e_ev in
            let cur = env.SB.e_cur in
            let rel = env.SB.e_rel in
            (* Mid-body exits charged the chain for the whole current
               block up front; repay the unexecuted suffix (the event
               instruction itself counts, as in the per-step engine).
               Terminator-site and fuel exits have nothing to repay
               ([ev_jump_alert] parks [e_rel] on the terminator, so the
               formula is uniform). *)
            let repay =
              if code <= SB.ev_break then 0
              else (Array.unsafe_get sbs cur).SB.sb_len - rel - 1
            in
            env.SB.e_fuel <- env.SB.e_fuel + repay;
            t.icount <- t.icount + (!remaining - env.SB.e_fuel);
            remaining := env.SB.e_fuel;
            (* The block entry flushed its whole-body load/store
               counts up front; a mid-body exit must give back the
               unexecuted suffix, starting at the event instruction
               itself ([step_core] bumps only after a successful
               access, so a faulting/alerting access never counts). *)
            if code >= SB.ev_load_alert then begin
              let nl = ref 0 and ns = ref 0 in
              let last = cur + (Array.unsafe_get sbs cur).SB.sb_len - 2 in
              for q = cur + rel to last do
                match Array.unsafe_get ops q with
                | Block.Olb | Block.Olbu | Block.Olh | Block.Olhu | Block.Olw ->
                  incr nl
                | Block.Osb | Block.Osh | Block.Osw -> incr ns
                | _ -> ()
              done;
              if !nl > 0 then st.M.loads <- st.M.loads - !nl;
              if !ns > 0 then st.M.stores <- st.M.stores - !ns
            end;
            if code = SB.ev_none then begin
              (* chain miss: continue at the successor, whose entry
                 the next dispatch warms (or runs, if translated) *)
              t.chain_misses <- t.chain_misses + 1;
              t.pc <- env.SB.e_next_pc;
              if !remaining <= 0 then running := false
            end
            else if code = SB.ev_fuel then begin
              (* a chained successor no longer fits: park on it and
                 let the [step_core] arm run the partial block *)
              t.pc <- env.SB.e_next_pc;
              if !remaining <= 0 then running := false
            end
            else if code = SB.ev_syscall then begin
              t.pc <- env.SB.e_next_pc;
              result := Syscall;
              running := false
            end
            else if code = SB.ev_break then begin
              t.pc <- env.SB.e_next_pc;
              result := Break_trap env.SB.e_a;
              running := false
            end
            else begin
              let j = cur + rel in
              let jpc = base + (j lsl 2) in
              t.pc <- jpc;
              result :=
                (if code = SB.ev_jump_alert then
                   Alert
                     { alert_pc = jpc; alert_insn = Array.unsafe_get insns j;
                       kind = Jump_target; reg = env.SB.e_a;
                       reg_value = Regfile.get regs env.SB.e_a; ea = None;
                       stage = "ID/EX" }
                 else if code = SB.ev_load_alert || code = SB.ev_store_alert then
                   Alert
                     { alert_pc = jpc; alert_insn = Array.unsafe_get insns j;
                       kind =
                         (if code = SB.ev_load_alert then Load_address
                          else Store_address);
                       reg = env.SB.e_a; reg_value = Regfile.get regs env.SB.e_a;
                       ea = Some env.SB.e_b; stage = "EX/MEM" }
                 else if code = SB.ev_guard_alert then
                   Alert
                     { alert_pc = jpc; alert_insn = Array.unsafe_get insns j;
                       kind = Guarded_store; reg = env.SB.e_a;
                       reg_value = Regfile.get regs env.SB.e_a;
                       ea = Some env.SB.e_b; stage = "EX/MEM" }
                 else if code = SB.ev_misalign then
                   Fault (Misaligned { addr = env.SB.e_a; width = env.SB.e_b })
                 else
                   Fault
                     (Segfault
                        { addr = env.SB.e_a;
                          access =
                            (match Array.unsafe_get ops j with
                             | Block.Osb | Block.Osh | Block.Osw -> M.Store
                             | _ -> M.Load) }));
              running := false
            end
          end
          else begin
            (* --- cold arm: [step_core] through the block's
               terminator, or as far as the fuel reaches; falling off
               the end of the text segment reports Bad_pc like the
               per-step engine --- *)
            t.blocks_run <- t.blocks_run + 1;
            let entered_clean = Regfile.is_clean regs in
            let before = t.icount in
            let r = steps step_core t (min (Array.unsafe_get stops idx - idx + 1) !remaining) in
            if entered_clean && Regfile.is_clean regs then
              t.clean_blocks <- t.clean_blocks + 1;
            remaining := !remaining - (t.icount - before);
            match r with
            | Normal -> if !remaining <= 0 then running := false
            | r ->
              result := r;
              running := false
          end
        end
      done;
      !result
