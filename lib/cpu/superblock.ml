open Ptaint_taint
open Ptaint_isa
module M = Ptaint_mem.Memory

(* Superblock translation tier: hot basic blocks are compiled — at
   promotion time, from the pre-decoded {!Block.t} flat arrays — into
   one OCaml closure chain per block, in two specialized variants:

   - a {e clean} variant, sound while no register holds taint
     ({!Regfile.is_clean}), that elides every mask computation and
     policy check; its loads test the tag bits of the element they
     read and, when a load brings taint into a register, finish the
     block on the full variant;
   - a {e full} variant with the policy constants baked into the
     closures at translate time: no handler-table dispatch and no
     per-operand [Tword] packing, just straight-line packed-int
     arithmetic with a clean-operand fast path.

   Each opcode family has one builder, which returns both closures for
   its instruction: constants, ALU reg-reg and reg-imm, constant
   shifts, loads, stores, mult/div, HI/LO moves, branches and the other
   terminators.  The fused families each span two instructions the
   Mini-C compiler emits together — the push, the pop, the
   local-variable read and the [lui]/[ori] constant — matched by
   [translate]'s one shape matcher inside a block body and run as one
   closure per variant.  What an opcode computes is defined once, in a
   top-level [@inline] helper every closure that runs it calls
   directly; the clean closure is the full closure's clean-operand fast
   path without the tag test and without the register-bitmap write.
   The variant is chosen by building its closure at translate time,
   never by a branch inside one.  Only tracking policies run the
   full variant: without tracking the register file stays clean unless
   fault injection dirties it, and a block entered with a dirty
   register file under a non-tracking policy runs on
   [Machine.step_core] instead.

   Superblocks chain: a terminator tail-calls its successor superblock
   through a patchable slot, so straight-line guest code (loops
   included) never returns to the dispatcher.  Every call along the
   chain is an OCaml tail call, which is what makes the scheme sound:
   an event site simply writes its description into the {!env} fields
   and returns, and — the stack being flat — control lands straight
   back in {!Machine.run}'s driver.  Only {!M.Unmapped} exits by
   exception, and each memory closure parks its block-relative index
   in [e_rel] first so the driver can attribute the fault.

   Fuel is hoisted to one check per superblock: a block whose full
   length does not fit in the remaining fuel refuses to run (event
   {!ev_fuel}), and the driver runs the partial block on
   [Machine.step_core] — [Sim.run_until] and fault-injection slicing
   land on exact icounts.  Taint-state transitions are handled by
   re-selecting the variant at every block entry (that per-entry test
   {e is} the invalidation rule: a chain never commits to a stale
   variant), with transitions inside a chain counted as deopts — a
   clean load of tainted data switching mid-block included. *)

type env = {
  e_rf : Regfile.t;
  e_regs : int array;  (* Regfile.storage e_rf *)
  e_mem : M.t;
  e_st : M.stats;
  mutable e_fuel : int;
  mutable e_guards : (int * int) list;
  mutable e_has_guards : bool;
  mutable e_ev : int;
  mutable e_rel : int;
  mutable e_a : int;
  mutable e_b : int;
  mutable e_next_pc : int;
  mutable e_cur : int;
  mutable e_blocks : int;
  mutable e_cleans : int;
  mutable e_deopts : int;
  mutable e_mode : int;  (* -1 unknown, 0 clean, 1 full *)
}

type sb = {
  sb_pc : int;
  sb_idx : int;
  sb_len : int;
  sb_go : env -> unit;
  sb_slots : slots;
}

(* Direct-threaded successor links: a slot holds the code to run for
   that edge.  It starts as a translate-time "miss" thunk that probes
   the tier table and, once the successor is translated, overwrites
   the slot with the successor's entry closure — after which crossing
   the edge is one field load and a tail call, with no translated?
   test at all.  [s_jr] keeps the superblock record (not just code)
   because the monomorphic jr cache must validate the target pc. *)
and slots = {
  mutable s_taken : env -> unit;
  mutable s_fall : env -> unit;
  mutable s_jr : sb;
}

(* The dummy is the "untranslated" sentinel everywhere: it fills fresh
   tier tables.  Its pc of -1 can never equal a jump target, so the jr
   monomorphic cache needs no separate validity flag. *)
let rec dummy =
  { sb_pc = -1; sb_idx = -1; sb_len = 0; sb_go = (fun _ -> ()); sb_slots = dummy_slots }

and dummy_slots = { s_taken = (fun _ -> ()); s_fall = (fun _ -> ()); s_jr = dummy }

type tier = {
  t_blocks : Block.t;
  t_policy : Policy.t;
  t_sbs : sb array;
}

(* Exit protocol: [sb_go] returns with [e_ev] holding one of these.
   [ev_none] is a chain miss — the successor is not translated (yet)
   and [e_next_pc] says where execution continues.  Mid-body events
   carry the faulting instruction's block-relative index in [e_rel]
   so the driver can repay unexecuted fuel and park the pc. *)
let ev_none = 0
let ev_fuel = 1
let ev_syscall = 2
let ev_break = 3
let ev_jump_alert = 4
let ev_load_alert = 5
let ev_store_alert = 6
let ev_guard_alert = 7
let ev_misalign = 8
let ev_unmapped = 9  (* set by the driver when M.Unmapped escapes *)

(* Promotion threshold: dispatches of an entry index before it is
   translated.  Low enough that the differential tests' warm loops
   promote, high enough that one-shot startup code never pays for
   translation. *)
let threshold = 16

let make_env ~rf ~mem =
  { e_rf = rf; e_regs = Regfile.storage rf; e_mem = mem; e_st = M.stats mem; e_fuel = 0;
    e_guards = []; e_has_guards = false; e_ev = 0; e_rel = 0; e_a = 0; e_b = 0;
    e_next_pc = 0; e_cur = 0; e_blocks = 0; e_cleans = 0; e_deopts = 0; e_mode = -1 }

let create_tier blocks policy =
  { t_blocks = blocks; t_policy = policy;
    t_sbs = Array.make (max blocks.Block.n 1) dummy }

let rec guarded ranges ea w =
  match ranges with
  | [] -> false
  | (lo, len) :: tl -> (ea < lo + len && ea + w > lo) || guarded tl ea w

let m32 = 0xFFFFFFFF
let tag_bits = 0xF lsl 32

type code = env -> unit

(* --- exits, register writebacks, block entry --- *)

(* Every mid-body event (alerts, misalignment) and the indirect-jump
   alert.  The site returns right after: the flat stack takes control
   back to the driver. *)
let[@inline] event env ev rel a b =
  env.e_ev <- ev;
  env.e_rel <- rel;
  env.e_a <- a;
  env.e_b <- b

(* Chain misses, fuel refusals and traps: execution goes on at [pc]. *)
let[@inline] leave env ev pc =
  env.e_ev <- ev;
  env.e_next_pc <- pc

(* Full-variant writebacks of packed bits [w] and of a known-untainted
   value.  The clean variant writes the slot alone. *)
let[@inline] put env rd w =
  Array.unsafe_set env.e_regs rd w;
  Regfile.mark env.e_rf rd ~m:(w lsr 32)

let[@inline] put_clean env rd v =
  Array.unsafe_set env.e_regs rd v;
  Regfile.mark_clean env.e_rf rd

(* The compare-untaints rule on operand slots, given their masked
   values.  Branchless: slot 0 rewrites as 0 and its bitmap bit stays
   clear. *)
let[@inline] untaint env rs av =
  Array.unsafe_set env.e_regs rs av;
  Regfile.mark_clean env.e_rf rs

let[@inline] untaint2 env rs av rt bv =
  Array.unsafe_set env.e_regs rs av;
  Array.unsafe_set env.e_regs rt bv;
  Regfile.mark_clean2 env.e_rf rs rt

(* Charge a block entry: fuel, the current block, and the body's
   load/store counts.  Those are block constants, flushed up front; on
   the rare mid-block exit the driver subtracts the unexecuted
   suffix. *)
let[@inline] enter env idx len nl ns =
  env.e_fuel <- env.e_fuel - len;
  env.e_cur <- idx;
  env.e_blocks <- env.e_blocks + 1;
  if nl > 0 then env.e_st.M.loads <- env.e_st.M.loads + nl;
  if ns > 0 then env.e_st.M.stores <- env.e_st.M.stores + ns

(* --- SIMIPS value semantics, one definition per opcode ---

   Operands are raw 32-bit values.  Every builder below calls these
   with the opcode as a literal wherever the instruction is hot, so the
   match folds away at compile time; a closure shared by a few rare
   opcodes (the shifts, the narrow loads, mult/div) keeps a runtime
   match on its captured opcode.  The compiler (no flambda) folds an
   [if] on a literal but not a [match] it compiles to a jump table,
   which is why [load_elt] tests its two hot opcodes first. *)

let[@inline] shift_value (op : Block.opcode) a n =
  match op with
  | Osll | Osllv -> Word.sll a n
  | Osrl | Osrlv -> Word.srl a n
  | _ -> Word.sra a n

let[@inline] rr_value (op : Block.opcode) a b =
  match op with
  | Oadd -> (a + b) land m32
  | Osub -> (a - b) land m32
  | Oand -> a land b
  | Oor -> a lor b
  | Oxor -> a lxor b
  | Onor -> lnot (a lor b) land m32
  | Oslt -> if Word.lt_signed a b then 1 else 0
  | Osltu -> if a < b then 1 else 0
  | _ -> shift_value op a b

let[@inline] ri_value (op : Block.opcode) a imm =
  match op with
  | Oaddi -> (a + imm) land m32
  | Oandi -> a land imm
  | Oori -> a lor imm
  | Oxori -> a lxor imm
  | Oslti -> if Word.lt_signed a imm then 1 else 0
  | _ -> if a < imm then 1 else 0

(* HI/LO of a multiply or divide, written with taint mask [m]. *)
let[@inline] hi_lo env (op : Block.opcode) a b m =
  let hi, lo =
    match op with
    | Omult -> (Word.mul_hi_signed a b, Word.mul_lo a b)
    | Omultu -> (Word.mul_hi_unsigned a b, Word.mul_lo a b)
    | Odiv ->
      let q, r = Word.div_signed a b in
      (r, q)
    | _ ->
      let q, r = Word.div_unsigned a b in
      (r, q)
  in
  Array.unsafe_set env.e_regs 32 (hi lor (m lsl 32));
  Array.unsafe_set env.e_regs 33 (lo lor (m lsl 32))

(* The effective address of a load or store: base plus offset, the
   base's tag bits dropped. *)
let[@inline] ea_of base off = (base + off) land m32

(* The packed register image a load brings in: the element read,
   sign- or zero-extended, with its tag bits. *)
let[@inline] load_elt (op : Block.opcode) mem ea =
  if op = Block.Olw then Tword.to_bits (M.peek_word mem ea)
  else if op = Block.Olbu then Tword.to_bits (M.peek_byte mem ea)
  else
    match op with
    | Olhu -> Tword.to_bits (M.peek_half mem ea)
    | Olb ->
      let el = Tword.to_bits (M.peek_byte mem ea) in
      ((el lsr 32) lsl 32) lor Word.sign_extend ~bits:8 (el land 0xff)
    | _ ->
      let el = Tword.to_bits (M.peek_half mem ea) in
      ((el lsr 32) lsl 32) lor Word.sign_extend ~bits:16 (el land 0xffff)

(* A store of packed register bits; clean bits clear the tag bits they
   overwrite. *)
let[@inline] store_elt (op : Block.opcode) mem ea data =
  match op with
  | Osw -> M.poke_word mem ea (Tword.of_bits data)
  | Osh -> M.poke_half mem ea (data land m32) ~m:(data lsr 32)
  | _ -> M.poke_byte mem ea (data land 0xff) ~taint:(data land (1 lsl 32) <> 0)

let[@inline] branch_cond (op : Block.opcode) a b =
  match op with
  | Obeq -> a = b
  | Obne -> a <> b
  | Oblez -> Word.to_signed a <= 0
  | Obgtz -> Word.to_signed a > 0
  | Obltz -> Word.to_signed a < 0
  | _ -> Word.to_signed a >= 0

(* --- Table 1 taint rules, over packed operands at least one of which
   is tainted (the builders apply the compare rule) --- *)

let[@inline] rr_mask (op : Block.opcode) a b =
  match op with
  | Oand -> Prop.and_bytes ~v1:(a land m32) ~m1:(a lsr 32) ~v2:(b land m32) ~m2:(b lsr 32)
  | Osllv -> Prop.shift Prop.Left ~amount:(b land m32) ~amount_mask:(b lsr 32) (a lsr 32)
  | Osrlv | Osrav ->
    Prop.shift Prop.Right ~amount:(b land m32) ~amount_mask:(b lsr 32) (a lsr 32)
  | _ -> (a lsr 32) lor (b lsr 32)

let[@inline] ri_mask (op : Block.opcode) a imm =
  match op with
  | Oandi -> Prop.and_bytes ~v1:(a land m32) ~m1:(a lsr 32) ~v2:imm ~m2:0
  | _ -> a lsr 32

(* --- the two variants of each family, as closure bodies ---

   [f_clean] is [f_full]'s clean-operand path without the tag test and
   without the bitmap write.  Event sites return without calling a
   continuation. *)

let[@inline] rr_clean op env rd rs rt =
  let regs = env.e_regs in
  Array.unsafe_set regs rd (rr_value op (Array.unsafe_get regs rs) (Array.unsafe_get regs rt))

let[@inline] rr_full op env rd rs rt =
  let regs = env.e_regs in
  let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
  if (a lor b) land tag_bits = 0 then put_clean env rd (rr_value op a b)
  else put env rd (rr_value op (a land m32) (b land m32) lor (rr_mask op a b lsl 32))

let[@inline] ri_clean op env rd rs imm =
  let regs = env.e_regs in
  Array.unsafe_set regs rd (ri_value op (Array.unsafe_get regs rs) imm)

let[@inline] ri_full op env rd rs imm =
  let a = Array.unsafe_get env.e_regs rs in
  if a land tag_bits = 0 then put_clean env rd (ri_value op a imm)
  else put env rd (ri_value op (a land m32) imm lor (ri_mask op a imm lsl 32))

(* A clean-variant load that read a tainted element [w].  Under a
   tracking policy the taint reaches register [rd], so the block
   finishes on the full variant's continuation [fx]: one deopt, and
   the block no longer counts as run clean.  Otherwise the value lands
   masked and the clean chain goes on. *)
let clean_tainted_load ~track env rd w (nx : code) (fx : code) =
  env.e_st.M.tainted_loads <- env.e_st.M.tainted_loads + 1;
  if track && rd <> 0 then begin
    put env rd w;
    env.e_cleans <- env.e_cleans - 1;
    env.e_deopts <- env.e_deopts + 1;
    env.e_mode <- 1;
    fx env
  end
  else begin
    if rd <> 0 then Array.unsafe_set env.e_regs rd (w land m32);
    nx env
  end

(* Loads and stores fault on [ea land align <> 0] with width
   [align + 1]; [dd] is the policy's data-pointer detector. *)
let[@inline] load_clean op ~track env ~align rel rd ea (nx : code) (fx : code) =
  if ea land align <> 0 then event env ev_misalign rel ea (align + 1)
  else begin
    env.e_rel <- rel;
    let w = load_elt op env.e_mem ea in
    if w land tag_bits <> 0 then clean_tainted_load ~track env rd w nx fx
    else begin
      if rd <> 0 then Array.unsafe_set env.e_regs rd w;
      nx env
    end
  end

(* The full variant's writeback of a loaded element [w]. *)
let[@inline] put_loaded env rd w =
  if w land tag_bits <> 0 then begin
    env.e_st.M.tainted_loads <- env.e_st.M.tainted_loads + 1;
    if rd <> 0 then put env rd w
  end
  else if rd <> 0 then put_clean env rd w

let[@inline] load_full op ~dd env ~align rel rd breg off (nf : code) =
  let a = Array.unsafe_get env.e_regs breg in
  let ea = ea_of a off in
  if dd && a land tag_bits <> 0 then event env ev_load_alert rel breg ea
  else if ea land align <> 0 then event env ev_misalign rel ea (align + 1)
  else begin
    env.e_rel <- rel;
    put_loaded env rd (load_elt op env.e_mem ea);
    nf env
  end

let[@inline] store_clean op env ~align rel rt breg off (nx : code) =
  let regs = env.e_regs in
  let ea = ea_of (Array.unsafe_get regs breg) off in
  if ea land align <> 0 then event env ev_misalign rel ea (align + 1)
  else begin
    env.e_rel <- rel;
    store_elt op env.e_mem ea (Array.unsafe_get regs rt);
    nx env
  end

(* [dd] also arms the guarded-data check on tainted data.  The
   tainted-store counter tests the whole mask for [sw]/[sh] (parity
   with [Memory.store_half] under [step_core]) and the stored byte's
   bit for [sb]. *)
let[@inline] store_full op ~dd env ~align rel rt breg off (nf : code) =
  let regs = env.e_regs in
  let a = Array.unsafe_get regs breg in
  let ea = ea_of a off in
  if dd && a land tag_bits <> 0 then event env ev_store_alert rel breg ea
  else if ea land align <> 0 then event env ev_misalign rel ea (align + 1)
  else begin
    let data = Array.unsafe_get regs rt in
    if dd && data land tag_bits <> 0 && env.e_has_guards && guarded env.e_guards ea (align + 1)
    then event env ev_guard_alert rel rt ea
    else begin
      env.e_rel <- rel;
      store_elt op env.e_mem ea data;
      if data land (if op = Block.Osb then 1 lsl 32 else tag_bits) <> 0 then
        env.e_st.M.tainted_stores <- env.e_st.M.tainted_stores + 1;
      nf env
    end
  end

let[@inline] branch_clean op env slots rs rt =
  let regs = env.e_regs in
  if branch_cond op (Array.unsafe_get regs rs) (Array.unsafe_get regs rt)
  then slots.s_taken env
  else slots.s_fall env

let[@inline] branch_full op ~cmp env slots rs rt =
  let regs = env.e_regs in
  let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
  if (a lor b) land tag_bits = 0 then
    if branch_cond op a b then slots.s_taken env else slots.s_fall env
  else begin
    let av = a land m32 and bv = b land m32 in
    if cmp then untaint2 env rs av rt bv;
    if branch_cond op av bv then slots.s_taken env else slots.s_fall env
  end

(* --- one builder per opcode family ---

   Each returns [(clean, full)] for one instruction, given the clean
   and full continuations [nx] and [nf] after it. *)

(* [lui], and [xor r,r,r] (Table 1: constant untainted zero). *)
let const rd v (nx : code) (nf : code) =
  if rd = 0 then (nx, nf)
  else
    ( (fun env ->
        Array.unsafe_set env.e_regs rd v;
        nx env),
      fun env ->
        put_clean env rd v;
        nf env )

(* [cmp]: under the compare-untaints rule the full [slt]/[sltu] also
   untaint both operands and write an untainted result — operands
   included when the result goes to $zero. *)
let alu_rr ~cmp op rd rs rt (nx : code) (nf : code) =
  let compare = cmp && (op = Block.Oslt || op = Block.Osltu) in
  ( (if rd = 0 then nx
     else
       match op with
       | Block.Oadd -> fun env -> rr_clean Block.Oadd env rd rs rt; nx env
       | Block.Osub -> fun env -> rr_clean Block.Osub env rd rs rt; nx env
       | Block.Oand -> fun env -> rr_clean Block.Oand env rd rs rt; nx env
       | Block.Oor -> fun env -> rr_clean Block.Oor env rd rs rt; nx env
       | Block.Oxor -> fun env -> rr_clean Block.Oxor env rd rs rt; nx env
       | Block.Onor -> fun env -> rr_clean Block.Onor env rd rs rt; nx env
       | Block.Oslt -> fun env -> rr_clean Block.Oslt env rd rs rt; nx env
       | Block.Osltu -> fun env -> rr_clean Block.Osltu env rd rs rt; nx env
       | _ -> fun env -> rr_clean op env rd rs rt; nx env),
    if compare then fun env ->
      let regs = env.e_regs in
      let av = Array.unsafe_get regs rs land m32 and bv = Array.unsafe_get regs rt land m32 in
      let v = if op = Block.Oslt then rr_value Block.Oslt av bv else rr_value Block.Osltu av bv in
      untaint2 env rs av rt bv;
      if rd <> 0 then put_clean env rd v;
      nf env
    else if rd = 0 then nf
    else
      match op with
      | Block.Oadd -> fun env -> rr_full Block.Oadd env rd rs rt; nf env
      | Block.Osub -> fun env -> rr_full Block.Osub env rd rs rt; nf env
      | Block.Oand -> fun env -> rr_full Block.Oand env rd rs rt; nf env
      | Block.Oor -> fun env -> rr_full Block.Oor env rd rs rt; nf env
      | Block.Oxor -> fun env -> rr_full Block.Oxor env rd rs rt; nf env
      | Block.Onor -> fun env -> rr_full Block.Onor env rd rs rt; nf env
      | Block.Oslt -> fun env -> rr_full Block.Oslt env rd rs rt; nf env
      | Block.Osltu -> fun env -> rr_full Block.Osltu env rd rs rt; nf env
      | _ -> fun env -> rr_full op env rd rs rt; nf env )

let alu_ri ~cmp op rd rs imm (nx : code) (nf : code) =
  let compare = cmp && (op = Block.Oslti || op = Block.Osltiu) in
  ( (if rd = 0 then nx
     else
       match op with
       | Block.Oaddi -> fun env -> ri_clean Block.Oaddi env rd rs imm; nx env
       | Block.Oandi -> fun env -> ri_clean Block.Oandi env rd rs imm; nx env
       | Block.Oori -> fun env -> ri_clean Block.Oori env rd rs imm; nx env
       | Block.Oxori -> fun env -> ri_clean Block.Oxori env rd rs imm; nx env
       | Block.Oslti -> fun env -> ri_clean Block.Oslti env rd rs imm; nx env
       | _ -> fun env -> ri_clean Block.Osltiu env rd rs imm; nx env),
    if compare then fun env ->
      let av = Array.unsafe_get env.e_regs rs land m32 in
      let v = if op = Block.Oslti then ri_value Block.Oslti av imm else ri_value Block.Osltiu av imm in
      untaint env rs av;
      if rd <> 0 then put_clean env rd v;
      nf env
    else if rd = 0 then nf
    else
      match op with
      | Block.Oaddi -> fun env -> ri_full Block.Oaddi env rd rs imm; nf env
      | Block.Oandi -> fun env -> ri_full Block.Oandi env rd rs imm; nf env
      | Block.Oori -> fun env -> ri_full Block.Oori env rd rs imm; nf env
      | Block.Oxori -> fun env -> ri_full Block.Oxori env rd rs imm; nf env
      | Block.Oslti -> fun env -> ri_full Block.Oslti env rd rs imm; nf env
      | _ -> fun env -> ri_full Block.Osltiu env rd rs imm; nf env )

(* Constant-amount shifts: the whole-byte move and the fractional-byte
   smear of [Prop.shift] collapse to two baked shift counts ([fbit] is
   0 when the amount is a whole number of bytes, making the smear a
   no-op lor). *)
let shift op rd rs sh (nx : code) (nf : code) =
  if rd = 0 then (nx, nf)
  else begin
    let left = op = Block.Osll in
    let whole = (sh land 31) / 8 and fbit = if (sh land 31) mod 8 = 0 then 0 else 1 in
    ( (fun env ->
        let regs = env.e_regs in
        Array.unsafe_set regs rd (shift_value op (Array.unsafe_get regs rs) sh);
        nx env),
      fun env ->
        let a = Array.unsafe_get env.e_regs rs in
        if a land tag_bits = 0 then put_clean env rd (shift_value op a sh)
        else begin
          let ma = a lsr 32 in
          let mm = if left then ma lsl whole else ma lsr whole in
          let m = (mm lor (if left then mm lsl fbit else mm lsr fbit)) land 0xF in
          put env rd (shift_value op (a land m32) sh lor (m lsl 32))
        end;
        nf env )
  end

(* The full continuation [nf] is also the clean closure's deopt
   target. *)
let load ~track ~dd op rel rd breg off (nx : code) (nf : code) =
  match op with
  | Block.Olw ->
    ( (fun env ->
        let ea = ea_of (Array.unsafe_get env.e_regs breg) off in
        load_clean Block.Olw ~track env ~align:3 rel rd ea nx nf),
      fun env -> load_full Block.Olw ~dd env ~align:3 rel rd breg off nf )
  | _ ->
    let align = if op = Block.Olh || op = Block.Olhu then 1 else 0 in
    ( (fun env ->
        let ea = ea_of (Array.unsafe_get env.e_regs breg) off in
        load_clean op ~track env ~align rel rd ea nx nf),
      fun env -> load_full op ~dd env ~align rel rd breg off nf )

let store ~dd op rel rt breg off (nx : code) (nf : code) =
  match op with
  | Block.Osw ->
    ( (fun env -> store_clean Block.Osw env ~align:3 rel rt breg off nx),
      fun env -> store_full Block.Osw ~dd env ~align:3 rel rt breg off nf )
  | Block.Osh ->
    ( (fun env -> store_clean Block.Osh env ~align:1 rel rt breg off nx),
      fun env -> store_full Block.Osh ~dd env ~align:1 rel rt breg off nf )
  | _ ->
    ( (fun env -> store_clean Block.Osb env ~align:0 rel rt breg off nx),
      fun env -> store_full Block.Osb ~dd env ~align:0 rel rt breg off nf )

let muldiv op rs rt (nx : code) (nf : code) =
  ( (fun env ->
      let regs = env.e_regs in
      hi_lo env op (Array.unsafe_get regs rs) (Array.unsafe_get regs rt) 0;
      nx env),
    fun env ->
      let regs = env.e_regs in
      let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
      let m = (a lsr 32) lor (b lsr 32) in
      hi_lo env op (a land m32) (b land m32) m;
      Regfile.mark env.e_rf 32 ~m;
      Regfile.mark env.e_rf 33 ~m;
      nf env )

(* [mfhi]/[mflo]/[mthi]/[mtlo]: a slot-to-slot copy, taint included. *)
let move ~dst ~src (nx : code) (nf : code) =
  if dst = 0 then (nx, nf)
  else
    ( (fun env ->
        let regs = env.e_regs in
        Array.unsafe_set regs dst (Array.unsafe_get regs src);
        nx env),
      fun env ->
        put env dst (Array.unsafe_get env.e_regs src);
        nf env )

(* --- fused families: a few instructions cgen emits together, one
   step per variant ---

   Each family runs the helpers of its instructions in order, so every
   opcode is still defined once.  Events keep [step_core]'s order and
   are reported at the block-relative index [rel] of the instruction
   that raised them; registers written before that instruction stay
   written. *)

let sp = Reg.sp
let fp = Reg.fp
let push_delta = 0xFFFFFFFC (* -4, as decoded *)

(* The push ([addiu $sp,$sp,-4] then [sw rt,0($sp)]) writes $sp before
   its store can raise anything; with [rt] = $sp the store reads the
   decremented $sp, as run one at a time. *)
let push ~dd rel rt (nx : code) (nf : code) =
  ( (fun env ->
      ri_clean Block.Oaddi env sp sp push_delta;
      store_clean Block.Osw env ~align:3 rel rt sp 0 nx),
    fun env ->
      ri_full Block.Oaddi env sp sp push_delta;
      store_full Block.Osw ~dd env ~align:3 rel rt sp 0 nf )

(* The pop ([lw rd,0($sp)] then [addiu $sp,$sp,4]) raises before it
   moves $sp; with [rd] = $sp the increment applies to the loaded
   value, as run one at a time.  [(ax, af)] are the [addiu] half's own
   closures: a clean load of a tainted element finishes the pop through
   them, [af] being its deopt target. *)
let pop ~track ~dd rel rd (nx : code) (nf : code) ((ax, af) : code * code) =
  ( (fun env ->
      let regs = env.e_regs in
      let ea = ea_of (Array.unsafe_get regs sp) 0 in
      if ea land 3 <> 0 then event env ev_misalign rel ea 4
      else begin
        env.e_rel <- rel;
        let w = load_elt Block.Olw env.e_mem ea in
        if w land tag_bits <> 0 then clean_tainted_load ~track env rd w ax af
        else begin
          if rd <> 0 then Array.unsafe_set regs rd w;
          ri_clean Block.Oaddi env sp sp 4;
          nx env
        end
      end),
    fun env ->
      let a = Array.unsafe_get env.e_regs sp in
      let ea = ea_of a 0 in
      if dd && a land tag_bits <> 0 then event env ev_load_alert rel sp ea
      else if ea land 3 <> 0 then event env ev_misalign rel ea 4
      else begin
        env.e_rel <- rel;
        put_loaded env rd (load_elt Block.Olw env.e_mem ea);
        ri_full Block.Oaddi env sp sp 4;
        nf env
      end )

(* The local-variable read [addiu rX,$fp,k] then [lw|lbu rX,0(rX)]:
   rX is written before the load can raise, and a clean load of a
   tainted element deopts into [nf]. *)
let[@inline] local_clean op ~track env ~align rel rx k (nx : code) (nf : code) =
  let ea = ri_value Block.Oaddi (Array.unsafe_get env.e_regs fp) k in
  Array.unsafe_set env.e_regs rx ea;
  load_clean op ~track env ~align rel rx ea nx nf

let[@inline] local_full op ~dd env ~align rel rx k (nf : code) =
  ri_full Block.Oaddi env rx fp k;
  load_full op ~dd env ~align rel rx rx 0 nf

let local_load ~track ~dd op rel rx k (nx : code) (nf : code) =
  if op = Block.Olw then
    ( (fun env -> local_clean Block.Olw ~track env ~align:3 rel rx k nx nf),
      fun env -> local_full Block.Olw ~dd env ~align:3 rel rx k nf )
  else
    ( (fun env -> local_clean Block.Olbu ~track env ~align:0 rel rx k nx nf),
      fun env -> local_full Block.Olbu ~dd env ~align:0 rel rx k nf )

(* Conditional branches, through the terminator's successor [slots].
   The one-register forms pass slot 0 as [rt]: it reads 0, and
   untainting it is a no-op. *)
let branch ~cmp op rs rt slots : code * code =
  match op with
  | Block.Obeq ->
    ( (fun env -> branch_clean Block.Obeq env slots rs rt),
      fun env -> branch_full Block.Obeq ~cmp env slots rs rt )
  | Block.Obne ->
    ( (fun env -> branch_clean Block.Obne env slots rs rt),
      fun env -> branch_full Block.Obne ~cmp env slots rs rt )
  | Block.Oblez ->
    ( (fun env -> branch_clean Block.Oblez env slots rs 0),
      fun env -> branch_full Block.Oblez ~cmp env slots rs 0 )
  | Block.Obgtz ->
    ( (fun env -> branch_clean Block.Obgtz env slots rs 0),
      fun env -> branch_full Block.Obgtz ~cmp env slots rs 0 )
  | Block.Obltz ->
    ( (fun env -> branch_clean Block.Obltz env slots rs 0),
      fun env -> branch_full Block.Obltz ~cmp env slots rs 0 )
  | _ ->
    ( (fun env -> branch_clean Block.Obgez env slots rs 0),
      fun env -> branch_full Block.Obgez ~cmp env slots rs 0 )

(* The families [translate] fuses, named by shape, and how many
   instructions each spans. *)
type shape = Lone | Push | Pop | Local_load | Constant

let span = function Lone -> 1 | Push | Pop | Local_load | Constant -> 2

(* Translate the block entered at [idx] (which must have a terminator:
   [stops.(idx) < n]) and publish it in the tier table.  Publication
   is a plain pointer store: every [sb] field except the successor
   slots is immutable, so racy cross-domain publication is safe under
   the OCaml memory model, and a stale read simply re-translates or
   misses a chain link — both benign. *)
let translate tier idx =
  let d = tier.t_blocks and pol = tier.t_policy in
  let base = d.Block.base and n = d.Block.n in
  let ops = d.Block.ops and fa = d.Block.fa and fb = d.Block.fb and fc = d.Block.fc in
  let sbs = tier.t_sbs in
  let track = pol.Policy.track in
  (* the full variant's policy constants (it only runs when tracking) *)
  let cmp = pol.Policy.compare_untaints in
  let dd = Policy.detects_data_pointers pol in
  let dc = Policy.detects_control pol in
  let term = Array.unsafe_get d.Block.stops idx in
  let len = term - idx + 1 in
  let spc = base + (idx lsl 2) in
  let next = base + (term lsl 2) + 4 in
  let slots = { s_taken = (fun _ -> ()); s_fall = (fun _ -> ()); s_jr = dummy } in
  let nl = ref 0 and ns = ref 0 in
  for q = idx to term - 1 do
    match Array.unsafe_get ops q with
    | Block.Olb | Block.Olbu | Block.Olh | Block.Olhu | Block.Olw -> incr nl
    | Block.Osb | Block.Osh | Block.Osw -> incr ns
    | _ -> ()
  done;
  let nl = !nl and ns = !ns in
  (* Successor arms.  The taken/fallthrough slots are lazily
     self-patching miss thunks: the first execution that finds the
     successor translated [patch]es the slot with the successor's
     entry closure; until then each crossing does one table probe.  A
     chain miss ([ev_none]) hands the pc back to the driver, whose next
     dispatch bumps the successor's hotness counter — so misses are
     what eventually extend chains. *)
  let edge target patch : code =
    let ti = Block.index_of ~base ~len:n target in
    if ti < 0 then fun env -> leave env ev_none target
    else
      fun env ->
        let s = Array.unsafe_get sbs ti in
        if s != dummy then begin
          patch s.sb_go;
          s.sb_go env
        end
        else leave env ev_none target
  in
  (* Register-indirect jumps get a monomorphic inline cache validated
     by target pc; on miss, one pc→index lookup plus a table probe. *)
  let jr_go env target =
    let s = slots.s_jr in
    if s.sb_pc = target then s.sb_go env
    else begin
      let ti = Block.index_of ~base ~len:n target in
      let s = if ti >= 0 then Array.unsafe_get sbs ti else dummy in
      if s != dummy then begin
        slots.s_jr <- s;
        s.sb_go env
      end
      else leave env ev_none target
    end
  in
  (* Terminators.  Both variants share the successor slots: a slot
     holds the successor's [sb_go], which re-selects its own variant
     at entry.  The clean variant drops the compare untaints (no-ops on
     clean registers) and the indirect-jump alert (it cannot fire
     without live taint).  The alert consumes the whole block (the
     entry already flushed the batched stats) and records the
     terminator-relative index. *)
  let terminator : code * code =
    let op = Array.unsafe_get ops term in
    let f1 = Array.unsafe_get fa term and f2 = Array.unsafe_get fb term in
    match op with
    | Block.Obeq | Block.Obne | Block.Oblez | Block.Obgtz | Block.Obltz | Block.Obgez ->
      slots.s_taken <- edge (next + Array.unsafe_get fc term) (fun go -> slots.s_taken <- go);
      slots.s_fall <- edge next (fun go -> slots.s_fall <- go);
      branch ~cmp op f1 f2 slots
    | Block.Oj ->
      slots.s_taken <- edge f1 (fun go -> slots.s_taken <- go);
      let go env = slots.s_taken env in
      (go, go)
    | Block.Ojal ->
      slots.s_taken <- edge f1 (fun go -> slots.s_taken <- go);
      ( (fun env ->
          Array.unsafe_set env.e_regs 31 next;
          slots.s_taken env),
        fun env ->
          put_clean env 31 next;
          slots.s_taken env )
    | Block.Ojr | Block.Ojalr ->
      (* [jr rs] links nowhere, like [jalr $zero, rs]; the target is
         read before the link write, since rd may equal rs *)
      let rd, rs = if op = Block.Ojr then (0, f1) else (f1, f2) in
      ( (fun env ->
          let target = Array.unsafe_get env.e_regs rs in
          if rd <> 0 then Array.unsafe_set env.e_regs rd next;
          jr_go env target),
        fun env ->
          let a = Array.unsafe_get env.e_regs rs in
          (* no link-register write on an alert, like [step_core] *)
          if dc && a land tag_bits <> 0 then event env ev_jump_alert (len - 1) rs 0
          else begin
            if rd <> 0 then put_clean env rd next;
            jr_go env (a land m32)
          end )
    | Block.Osyscall ->
      let go env = leave env ev_syscall next in
      (go, go)
    | Block.Obreak ->
      let go env =
        env.e_a <- f1;
        leave env ev_break next
      in
      (go, go)
    | _ -> assert false
  in
  (* The straight-line instruction [i], given the continuations after
     it. *)
  let insn i nx nf =
    let rel = i - idx in
    let f1 = Array.unsafe_get fa i
    and f2 = Array.unsafe_get fb i
    and f3 = Array.unsafe_get fc i in
    match Array.unsafe_get ops i with
    | Block.Onop -> (nx, nf)
    | Block.Oxor when f2 = f3 -> const f1 0 nx nf
    | ( Block.Oadd | Block.Osub | Block.Oand | Block.Oor | Block.Oxor | Block.Onor
      | Block.Oslt | Block.Osltu | Block.Osllv | Block.Osrlv | Block.Osrav ) as op ->
      alu_rr ~cmp op f1 f2 f3 nx nf
    | (Block.Oaddi | Block.Oandi | Block.Oori | Block.Oxori | Block.Oslti | Block.Osltiu) as op
      ->
      alu_ri ~cmp op f1 f2 f3 nx nf
    | (Block.Osll | Block.Osrl | Block.Osra) as op -> shift op f1 f2 f3 nx nf
    | Block.Olui -> const f1 f3 nx nf
    | (Block.Olw | Block.Olb | Block.Olbu | Block.Olh | Block.Olhu) as op ->
      load ~track ~dd op rel f1 f2 f3 nx nf
    | (Block.Osw | Block.Osb | Block.Osh) as op -> store ~dd op rel f1 f2 f3 nx nf
    | (Block.Omult | Block.Omultu | Block.Odiv | Block.Odivu) as op -> muldiv op f1 f2 nx nf
    | Block.Omfhi -> move ~dst:f1 ~src:32 nx nf
    | Block.Omflo -> move ~dst:f1 ~src:33 nx nf
    | Block.Omthi -> move ~dst:32 ~src:f1 nx nf
    | Block.Omtlo -> move ~dst:33 ~src:f1 nx nf
    | Block.Obeq | Block.Obne | Block.Oblez | Block.Obgtz | Block.Obltz
    | Block.Obgez | Block.Oj | Block.Ojal | Block.Ojr | Block.Ojalr
    | Block.Osyscall | Block.Obreak ->
      assert false
  in
  (* The fused family ending at body index [i], when both its
     instructions are in this block: a branch into the second half of
     a family enters a block of its own, which runs that half alone. *)
  let shape i =
    let op k = ops.(i - k) and a k = fa.(i - k) and b k = fb.(i - k) and c k = fc.(i - k) in
    let pair = i > idx in
    match op 0 with
    | Block.Osw
      when pair && op 1 = Block.Oaddi && a 1 = sp && b 1 = sp && c 1 = push_delta
           && b 0 = sp && c 0 = 0 ->
      Push
    | Block.Oaddi
      when pair && a 0 = sp && b 0 = sp && c 0 = 4 && op 1 = Block.Olw && b 1 = sp
           && c 1 = 0 ->
      Pop
    | Block.Olw | Block.Olbu
      when pair && op 1 = Block.Oaddi && b 1 = fp && a 0 <> 0 && a 1 = a 0 && b 0 = a 0
           && c 0 = 0 ->
      Local_load
    | Block.Oori when pair && op 1 = Block.Olui && a 1 = a 0 && b 0 = a 0 -> Constant
    | _ -> Lone
  in
  (* Both closures of the family [s] ending at [i]. *)
  let family s i (nx, nf) =
    match s with
    | Lone -> insn i nx nf
    | Push -> push ~dd (i - idx) fa.(i) nx nf
    | Pop -> pop ~track ~dd (i - 1 - idx) fa.(i - 1) nx nf (insn i nx nf)
    | Local_load -> local_load ~track ~dd ops.(i) (i - idx) fa.(i) fc.(i - 1) nx nf
    | Constant -> const fa.(i) (fc.(i - 1) lor fc.(i)) nx nf
  in
  let clean_code, full_code =
    let rec build i k =
      if i < idx then k
      else
        let s = shape i in
        build (i - span s) (family s i k)
    in
    build (term - 1) terminator
  in
  (* Entry point: one fuel test for the whole superblock, one variant
     selection per entry (which doubles as the taint-transition
     invalidation rule), counters for the driver to flush.  Without
     tracking only the clean variant runs: a dirty register file (from
     fault injection) hands the block back to the driver, which runs it
     on [step_core]. *)
  let go =
    if track then fun env ->
      if env.e_fuel < len then leave env ev_fuel spc
      else begin
        enter env idx len nl ns;
        if Regfile.is_clean env.e_rf then begin
          env.e_cleans <- env.e_cleans + 1;
          if env.e_mode = 1 then env.e_deopts <- env.e_deopts + 1;
          env.e_mode <- 0;
          clean_code env
        end
        else begin
          if env.e_mode = 0 then env.e_deopts <- env.e_deopts + 1;
          env.e_mode <- 1;
          full_code env
        end
      end
    else fun env ->
      if env.e_fuel < len then leave env ev_fuel spc
      else if not (Regfile.is_clean env.e_rf) then leave env ev_none spc
      else begin
        enter env idx len nl ns;
        env.e_cleans <- env.e_cleans + 1;
        clean_code env
      end
  in
  let sb = { sb_pc = spc; sb_idx = idx; sb_len = len; sb_go = go; sb_slots = slots } in
  Array.unsafe_set sbs idx sb;
  sb
