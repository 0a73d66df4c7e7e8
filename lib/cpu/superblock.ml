open Ptaint_taint
open Ptaint_isa
module M = Ptaint_mem.Memory
module TS = Ptaint_mem.Tagged_store

(* Superblock translation tier: hot basic blocks are compiled — at
   promotion time, from the pre-decoded {!Block.t} flat arrays — into
   one OCaml closure chain per block, with two specialized variants:

   - a {e clean} variant, sound while no register holds taint
     ({!Regfile.is_clean}), that elides every mask computation and
     policy check; its loads test the tag bits of the element they
     read and, when a load brings taint into a register, finish the
     block on the full variant;
   - a {e full} variant with the policy constants baked into the
     closures at translate time: no per-opcode dispatch and no
     per-operand [Tword] packing, just straight-line packed-int
     arithmetic.

   Superblocks chain: a terminator tail-calls its successor superblock
   through a patchable slot, so straight-line guest code (loops
   included) never returns to the dispatcher.  Every call along the
   chain is an OCaml tail call, which is what makes the scheme sound:
   an event site simply writes its description into the {!env} fields
   and returns, and — the stack being flat — control lands straight
   back in {!Machine.run}'s driver.  Only {!TS.Unmapped} exits by
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
  e_ts : TS.t;
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
let ev_unmapped = 9  (* set by the driver when TS.Unmapped escapes *)

(* Promotion threshold: dispatches of an entry index before it is
   translated.  Low enough that the differential tests' warm loops
   promote, high enough that one-shot startup code never pays for
   translation. *)
let threshold = 16

let make_env ~rf ~ts ~st =
  { e_rf = rf; e_regs = Regfile.storage rf; e_ts = ts; e_st = st; e_fuel = 0;
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
  let cmp = track && pol.Policy.compare_untaints in
  let dd = Policy.detects_data_pointers pol && track in
  let dd_guard = Policy.detects_data_pointers pol in
  let dc = Policy.detects_control pol && track in
  let and_zero = pol.Policy.and_zero_untaints in
  let or_ones = pol.Policy.or_ones_untaints in
  let xor_idiom = pol.Policy.xor_idiom_untaints in
  let term = Array.unsafe_get d.Block.stops idx in
  let len = term - idx + 1 in
  let spc = base + (idx lsl 2) in
  let next = base + (term lsl 2) + 4 in
  let slots = { s_taken = (fun _ -> ()); s_fall = (fun _ -> ()); s_jr = dummy } in
  (* Batched access stats: the body's load/store counts are block
     constants, flushed once when the terminator is reached.  On a
     mid-body event the driver reconstructs the executed prefix from
     the opcode array instead. *)
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
     successor translated replaces the slot with the successor's
     entry closure; until then each crossing does one table probe.  A
     chain miss ([ev_none]) hands the pc back to the driver, whose next
     dispatch bumps the successor's hotness counter — so misses are
     what eventually extend chains. *)
  let mk_taken target : code =
    let ti = Block.index_of ~base ~len:n target in
    if ti < 0 then
      fun env ->
        env.e_ev <- ev_none;
        env.e_next_pc <- target
    else
      fun env ->
        let s = Array.unsafe_get sbs ti in
        if s != dummy then begin
          slots.s_taken <- s.sb_go;
          s.sb_go env
        end
        else begin
          env.e_ev <- ev_none;
          env.e_next_pc <- target
        end
  in
  let mk_fall () : code =
    let ti = Block.index_of ~base ~len:n next in
    if ti < 0 then
      fun env ->
        env.e_ev <- ev_none;
        env.e_next_pc <- next
    else
      fun env ->
        let s = Array.unsafe_get sbs ti in
        if s != dummy then begin
          slots.s_fall <- s.sb_go;
          s.sb_go env
        end
        else begin
          env.e_ev <- ev_none;
          env.e_next_pc <- next
        end
  in
  (* Register-indirect jumps get a monomorphic inline cache validated
     by target pc; on miss, one pc→index lookup plus a table probe. *)
  let jr_go env target =
    let s = slots.s_jr in
    if s.sb_pc = target then s.sb_go env
    else begin
      let ti = Block.index_of ~base ~len:n target in
      if ti >= 0 then begin
        let s = Array.unsafe_get sbs ti in
        if s != dummy then begin
          slots.s_jr <- s;
          s.sb_go env
        end
        else begin
          env.e_ev <- ev_none;
          env.e_next_pc <- target
        end
      end
      else begin
        env.e_ev <- ev_none;
        env.e_next_pc <- target
      end
    end
  in
  (* Seed the direct-threaded slots for the edges this terminator
     has.  Both variants share them: the slot holds the successor's
     [sb_go], which re-selects its own variant at entry. *)
  (match Array.unsafe_get ops term with
   | Block.Obeq | Block.Obne | Block.Oblez | Block.Obgtz | Block.Obltz | Block.Obgez ->
     slots.s_taken <- mk_taken (next + Array.unsafe_get fc term);
     slots.s_fall <- mk_fall ()
   | Block.Oj | Block.Ojal -> slots.s_taken <- mk_taken (Array.unsafe_get fa term)
   | _ -> ());
  (* --- terminators ---

     [clean:true] builds the clean variant's terminator: compare
     untaints of clean registers are no-ops and indirect-jump alerts
     cannot fire without live taint, so both are dropped.  Alert arms
     consume the whole block (the entry already flushed the batched
     stats) and record the terminator-relative index. *)
  let mk_term ~clean : code =
    match Array.unsafe_get ops term with
    | Block.Obeq | Block.Obne ->
      let rs = Array.unsafe_get fa term and rt = Array.unsafe_get fb term in
      let eq = Array.unsafe_get ops term = Block.Obeq in
      if clean then
        fun env ->
          let regs = env.e_regs in
          if (Array.unsafe_get regs rs = Array.unsafe_get regs rt) = eq
          then slots.s_taken env
          else slots.s_fall env
      else if cmp then
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
          if (a lor b) land tag_bits = 0 then
            (* both operands already clean: the untaints are identity *)
            if (a = b) = eq then slots.s_taken env else slots.s_fall env
          else begin
            let av = a land m32 and bv = b land m32 in
            Array.unsafe_set regs rs av;
            Array.unsafe_set regs rt bv;
            Regfile.mark_clean2 env.e_rf rs rt;
            if (av = bv) = eq then slots.s_taken env else slots.s_fall env
          end
      else
        fun env ->
          let regs = env.e_regs in
          if (Array.unsafe_get regs rs land m32 = Array.unsafe_get regs rt land m32) = eq
          then slots.s_taken env
          else slots.s_fall env
    | Block.Oblez | Block.Obgtz | Block.Obltz | Block.Obgez ->
      let rs = Array.unsafe_get fa term in
      let op = Array.unsafe_get ops term in
      let cond a =
        match op with
        | Block.Oblez -> a <= 0
        | Block.Obgtz -> a > 0
        | Block.Obltz -> a < 0
        | _ -> a >= 0
      in
      if clean then
        fun env ->
          if cond (Word.to_signed (Array.unsafe_get env.e_regs rs))
          then slots.s_taken env
          else slots.s_fall env
      else if cmp then
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs in
          if a land tag_bits = 0 then
            if cond (Word.to_signed a) then slots.s_taken env else slots.s_fall env
          else begin
            let av = a land m32 in
            Array.unsafe_set regs rs av;
            Regfile.mark_clean env.e_rf rs;
            if cond (Word.to_signed av) then slots.s_taken env else slots.s_fall env
          end
      else
        fun env ->
          if cond (Word.to_signed (Array.unsafe_get env.e_regs rs land m32))
          then slots.s_taken env
          else slots.s_fall env
    | Block.Oj ->
      fun env -> slots.s_taken env
    | Block.Ojal ->
      if clean then
        fun env ->
          Array.unsafe_set env.e_regs 31 next;
          slots.s_taken env
      else
        fun env ->
          Array.unsafe_set env.e_regs 31 next;
          Regfile.mark_clean env.e_rf 31;
          slots.s_taken env
    | Block.Ojr ->
      let rs = Array.unsafe_get fa term in
      if clean then
        fun env -> jr_go env (Array.unsafe_get env.e_regs rs)
      else if dc then
        fun env ->
          let a = Array.unsafe_get env.e_regs rs in
          if a land tag_bits <> 0 then begin
            env.e_ev <- ev_jump_alert;
            env.e_a <- rs;
            env.e_rel <- len - 1
          end
          else jr_go env (a land m32)
      else
        fun env -> jr_go env (Array.unsafe_get env.e_regs rs land m32)
    | Block.Ojalr ->
      let rd = Array.unsafe_get fa term and rs = Array.unsafe_get fb term in
      let rd_nz = rd <> 0 in
      if clean then
        fun env ->
          let regs = env.e_regs in
          (* read the target before the link write: rd may equal rs *)
          let target = Array.unsafe_get regs rs in
          if rd_nz then Array.unsafe_set regs rd next;
          jr_go env target
      else
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs in
          if dc && a land tag_bits <> 0 then begin
            (* no link-register write on an alert, like [step_core] *)
            env.e_ev <- ev_jump_alert;
            env.e_a <- rs;
            env.e_rel <- len - 1
          end
          else begin
            if rd_nz then begin
              Array.unsafe_set regs rd next;
              Regfile.mark_clean env.e_rf rd
            end;
            jr_go env (a land m32)
          end
    | Block.Osyscall ->
      fun env ->
        env.e_ev <- ev_syscall;
        env.e_next_pc <- next
    | Block.Obreak ->
      let code = Array.unsafe_get fa term in
      fun env ->
        env.e_ev <- ev_break;
        env.e_a <- code;
        env.e_next_pc <- next
    | _ -> assert false
  in
  (* --- full-variant straight-line instructions ---

     Policy constants are baked at translate time; the common
     clean-operand case of the hot ALU opcodes takes a branch that
     skips the mask algebra entirely.  Event sites write the env
     fields and return without calling [nx] — the flat (all-tail-call)
     stack takes control straight back to the driver. *)
  let mk_full i (nx : code) : code =
    let rel = i - idx in
    let f1 = Array.unsafe_get fa i
    and f2 = Array.unsafe_get fb i
    and f3 = Array.unsafe_get fc i in
    match Array.unsafe_get ops i with
    | Block.Onop -> nx
    | Block.Oadd | Block.Osub ->
      let rd = f1 and rs = f2 and rt = f3 in
      let add = Array.unsafe_get ops i = Block.Oadd in
      if rd = 0 then nx
      else if not track then
        fun env ->
          let regs = env.e_regs in
          let av = Array.unsafe_get regs rs land m32
          and bv = Array.unsafe_get regs rt land m32 in
          Array.unsafe_set regs rd ((if add then av + bv else av - bv) land m32);
          Regfile.mark_clean env.e_rf rd;
          nx env
      else
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
          if (a lor b) land tag_bits = 0 then begin
            Array.unsafe_set regs rd ((if add then a + b else a - b) land m32);
            Regfile.mark_clean env.e_rf rd
          end
          else begin
            let m = (a lsr 32) lor (b lsr 32) in
            let v = (if add then (a land m32) + (b land m32) else (a land m32) - (b land m32)) land m32 in
            Array.unsafe_set regs rd (v lor (m lsl 32));
            Regfile.mark env.e_rf rd ~m
          end;
          nx env
    | Block.Oand | Block.Oor ->
      let rd = f1 and rs = f2 and rt = f3 in
      let is_and = Array.unsafe_get ops i = Block.Oand in
      if rd = 0 then nx
      else if not track then
        fun env ->
          let regs = env.e_regs in
          let av = Array.unsafe_get regs rs land m32
          and bv = Array.unsafe_get regs rt land m32 in
          Array.unsafe_set regs rd (if is_and then av land bv else av lor bv);
          Regfile.mark_clean env.e_rf rd;
          nx env
      else
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
          if (a lor b) land tag_bits = 0 then begin
            Array.unsafe_set regs rd (if is_and then a land b else a lor b);
            Regfile.mark_clean env.e_rf rd
          end
          else begin
            let av = a land m32 and bv = b land m32 in
            let ma = a lsr 32 and mb = b lsr 32 in
            let m =
              if is_and then
                if and_zero then Prop.and_bytes ~v1:av ~m1:ma ~v2:bv ~m2:mb
                else ma lor mb
              else if or_ones then Prop.or_bytes ~v1:av ~m1:ma ~v2:bv ~m2:mb
              else ma lor mb
            in
            Array.unsafe_set regs rd
              ((if is_and then av land bv else av lor bv) lor (m lsl 32));
            Regfile.mark env.e_rf rd ~m
          end;
          nx env
    | Block.Oxor ->
      let rd = f1 and rs = f2 and rt = f3 in
      if rd = 0 then nx
      else if track && rs = rt && xor_idiom then
        fun env ->
          (* xor r,r: constant untainted zero under the idiom rule *)
          Array.unsafe_set env.e_regs rd 0;
          Regfile.mark_clean env.e_rf rd;
          nx env
      else if not track then
        fun env ->
          let regs = env.e_regs in
          let v =
            (Array.unsafe_get regs rs lxor Array.unsafe_get regs rt) land m32
          in
          Array.unsafe_set regs rd v;
          Regfile.mark_clean env.e_rf rd;
          nx env
      else
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
          if (a lor b) land tag_bits = 0 then begin
            Array.unsafe_set regs rd (a lxor b);
            Regfile.mark_clean env.e_rf rd
          end
          else begin
            let m = (a lsr 32) lor (b lsr 32) in
            Array.unsafe_set regs rd (((a lxor b) land m32) lor (m lsl 32));
            Regfile.mark env.e_rf rd ~m
          end;
          nx env
    | Block.Onor ->
      let rd = f1 and rs = f2 and rt = f3 in
      if rd = 0 then nx
      else if not track then
        fun env ->
          let regs = env.e_regs in
          let v =
            lnot (Array.unsafe_get regs rs lor Array.unsafe_get regs rt) land m32
          in
          Array.unsafe_set regs rd v;
          Regfile.mark_clean env.e_rf rd;
          nx env
      else
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
          let v = lnot (a lor b) land m32 in
          if (a lor b) land tag_bits = 0 then begin
            Array.unsafe_set regs rd v;
            Regfile.mark_clean env.e_rf rd
          end
          else begin
            let m = (a lsr 32) lor (b lsr 32) in
            Array.unsafe_set regs rd (v lor (m lsl 32));
            Regfile.mark env.e_rf rd ~m
          end;
          nx env
    | Block.Oslt | Block.Osltu ->
      let rd = f1 and rs = f2 and rt = f3 in
      let signed = Array.unsafe_get ops i = Block.Oslt in
      if cmp then
        fun env ->
          let regs = env.e_regs in
          let av = Array.unsafe_get regs rs land m32
          and bv = Array.unsafe_get regs rt land m32 in
          let v =
            if (if signed then Word.lt_signed av bv else av < bv) then 1 else 0
          in
          (* compare-untaints rule: both operands lose their taint,
             branchlessly (slot 0 rewrites as 0, bit 0 stays clear) *)
          Array.unsafe_set regs rs av;
          Array.unsafe_set regs rt bv;
          Regfile.mark_clean2 env.e_rf rs rt;
          if rd <> 0 then begin
            Array.unsafe_set regs rd v;
            Regfile.mark_clean env.e_rf rd
          end;
          nx env
      else if rd = 0 then nx
      else if not track then
        fun env ->
          let regs = env.e_regs in
          let av = Array.unsafe_get regs rs land m32
          and bv = Array.unsafe_get regs rt land m32 in
          Array.unsafe_set regs rd
            (if (if signed then Word.lt_signed av bv else av < bv) then 1 else 0);
          Regfile.mark_clean env.e_rf rd;
          nx env
      else
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
          let av = a land m32 and bv = b land m32 in
          let v =
            if (if signed then Word.lt_signed av bv else av < bv) then 1 else 0
          in
          let m = (a lsr 32) lor (b lsr 32) in
          Array.unsafe_set regs rd (v lor (m lsl 32));
          Regfile.mark env.e_rf rd ~m;
          nx env
    | Block.Osllv | Block.Osrlv | Block.Osrav ->
      let rd = f1 and rs = f2 and rt = f3 in
      let op = Array.unsafe_get ops i in
      let shv av n =
        match op with
        | Block.Osllv -> Word.sll av n
        | Block.Osrlv -> Word.srl av n
        | _ -> Word.sra av n
      in
      let dir = if op = Block.Osllv then Prop.Left else Prop.Right in
      if rd = 0 then nx
      else if not track then
        fun env ->
          let regs = env.e_regs in
          let av = Array.unsafe_get regs rs land m32
          and bv = Array.unsafe_get regs rt land m32 in
          Array.unsafe_set regs rd (shv av (bv land 31));
          Regfile.mark_clean env.e_rf rd;
          nx env
      else
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
          let av = a land m32 and bv = b land m32 in
          let v = shv av (bv land 31) in
          if (a lor b) land tag_bits = 0 then begin
            Array.unsafe_set regs rd v;
            Regfile.mark_clean env.e_rf rd
          end
          else begin
            let m = Prop.shift dir ~amount:bv ~amount_mask:(b lsr 32) (a lsr 32) in
            Array.unsafe_set regs rd (v lor (m lsl 32));
            Regfile.mark env.e_rf rd ~m
          end;
          nx env
    | Block.Oaddi ->
      let rd = f1 and rs = f2 and imm = f3 in
      if rd = 0 then nx
      else if not track then
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs rd ((Array.unsafe_get regs rs land m32) + imm land m32);
          Regfile.mark_clean env.e_rf rd;
          nx env
      else
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs in
          if a land tag_bits = 0 then begin
            Array.unsafe_set regs rd ((a + imm) land m32);
            Regfile.mark_clean env.e_rf rd
          end
          else begin
            let m = a lsr 32 in
            Array.unsafe_set regs rd ((((a land m32) + imm) land m32) lor (m lsl 32));
            Regfile.mark env.e_rf rd ~m
          end;
          nx env
    | Block.Oandi ->
      let rd = f1 and rs = f2 and imm = f3 in
      if rd = 0 then nx
      else if not track then
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs rd (Array.unsafe_get regs rs land imm);
          Regfile.mark_clean env.e_rf rd;
          nx env
      else
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs in
          if a land tag_bits = 0 then begin
            Array.unsafe_set regs rd (a land imm);
            Regfile.mark_clean env.e_rf rd
          end
          else begin
            let m =
              if and_zero then
                Prop.and_bytes ~v1:(a land m32) ~m1:(a lsr 32) ~v2:imm ~m2:0
              else a lsr 32
            in
            Array.unsafe_set regs rd ((a land imm land m32) lor (m lsl 32));
            Regfile.mark env.e_rf rd ~m
          end;
          nx env
    | Block.Oori | Block.Oxori ->
      let rd = f1 and rs = f2 and imm = f3 in
      let is_or = Array.unsafe_get ops i = Block.Oori in
      if rd = 0 then nx
      else if not track then
        fun env ->
          let regs = env.e_regs in
          let av = Array.unsafe_get regs rs land m32 in
          Array.unsafe_set regs rd (if is_or then av lor imm else av lxor imm);
          Regfile.mark_clean env.e_rf rd;
          nx env
      else
        (* imm < 2^16, so or/xor touch neither the tag nibble nor the
           upper value bytes: the packed result is one ALU op and the
           destination inherits the source's taint bit verbatim. *)
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs in
          Array.unsafe_set regs rd (if is_or then a lor imm else a lxor imm);
          Regfile.mark env.e_rf rd ~m:(a lsr 32);
          nx env
    | Block.Oslti | Block.Osltiu ->
      let rd = f1 and rs = f2 and imm = f3 in
      let signed = Array.unsafe_get ops i = Block.Oslti in
      if cmp then
        fun env ->
          let regs = env.e_regs in
          let av = Array.unsafe_get regs rs land m32 in
          let v =
            if (if signed then Word.lt_signed av imm else av < imm) then 1 else 0
          in
          Array.unsafe_set regs rs av;
          Regfile.mark_clean env.e_rf rs;
          if rd <> 0 then begin
            Array.unsafe_set regs rd v;
            Regfile.mark_clean env.e_rf rd
          end;
          nx env
      else if rd = 0 then nx
      else if not track then
        fun env ->
          let regs = env.e_regs in
          let av = Array.unsafe_get regs rs land m32 in
          Array.unsafe_set regs rd
            (if (if signed then Word.lt_signed av imm else av < imm) then 1 else 0);
          Regfile.mark_clean env.e_rf rd;
          nx env
      else
        fun env ->
          let regs = env.e_regs in
          let a = Array.unsafe_get regs rs in
          let av = a land m32 in
          let v =
            if (if signed then Word.lt_signed av imm else av < imm) then 1 else 0
          in
          let m = a lsr 32 in
          Array.unsafe_set regs rd (v lor (m lsl 32));
          Regfile.mark env.e_rf rd ~m;
          nx env
    | Block.Osll | Block.Osrl | Block.Osra ->
      let rd = f1 and rs = f2 and sh = f3 in
      let op = Array.unsafe_get ops i in
      if rd = 0 then nx
      else begin
        let left = op = Block.Osll in
        (* constant-amount shift: the whole-byte move and the
           fractional-byte smear of [Prop.shift] collapse to two baked
           shift counts ([fbit] is 0 when the amount is a whole number
           of bytes, making the smear a no-op lor) *)
        let whole = (sh land 31) / 8 and fbit = if (sh land 31) mod 8 = 0 then 0 else 1 in
        let shv av =
          match op with
          | Block.Osll -> Word.sll av sh
          | Block.Osrl -> Word.srl av sh
          | _ -> Word.sra av sh
        in
        if not track then
          fun env ->
            let regs = env.e_regs in
            Array.unsafe_set regs rd (shv (Array.unsafe_get regs rs land m32));
            Regfile.mark_clean env.e_rf rd;
            nx env
        else
          fun env ->
            let regs = env.e_regs in
            let a = Array.unsafe_get regs rs in
            let v = shv (a land m32) in
            if a land tag_bits = 0 then begin
              Array.unsafe_set regs rd v;
              Regfile.mark_clean env.e_rf rd
            end
            else begin
              let ma = a lsr 32 in
              let mm = if left then ma lsl whole else ma lsr whole in
              let m = (mm lor (if left then mm lsl fbit else mm lsr fbit)) land 0xF in
              Array.unsafe_set regs rd (v lor (m lsl 32));
              Regfile.mark env.e_rf rd ~m
            end;
            nx env
      end
    | Block.Olui ->
      let rd = f1 and imm = f3 in
      if rd = 0 then nx
      else
        fun env ->
          Array.unsafe_set env.e_regs rd imm;
          Regfile.mark_clean env.e_rf rd;
          nx env
    | Block.Olw | Block.Olb | Block.Olbu | Block.Olh | Block.Olhu ->
      let rd = f1 and breg = f2 and off = f3 in
      (* [lw] gets its own closure (it is the hot one and its loaded
         element is already the packed register image); the narrower
         loads share a shape with the extraction baked in per opcode.
         The address-detector check is baked in ([dd] requires
         tracking); the tag test on the loaded element stays inline. *)
      (match Array.unsafe_get ops i with
       | Block.Olw ->
         fun env ->
           let regs = env.e_regs in
           let a = Array.unsafe_get regs breg in
           let ea = (a + off) land m32 in
           if dd && a land tag_bits <> 0 then begin
             env.e_ev <- ev_load_alert;
             env.e_rel <- rel;
             env.e_a <- breg;
             env.e_b <- ea
           end
           else if ea land 3 <> 0 then begin
             env.e_ev <- ev_misalign;
             env.e_rel <- rel;
             env.e_a <- ea;
             env.e_b <- 4
           end
           else begin
             env.e_rel <- rel;
             let w = TS.load_word_elt env.e_ts ea in
             if w land tag_bits <> 0 then begin
               env.e_st.M.tainted_loads <- env.e_st.M.tainted_loads + 1;
               if rd <> 0 then
                 if track then begin
                   Array.unsafe_set regs rd w;
                   Regfile.mark env.e_rf rd ~m:(w lsr 32)
                 end
                 else begin
                   Array.unsafe_set regs rd (w land m32);
                   Regfile.mark_clean env.e_rf rd
                 end;
               nx env
             end
             else begin
               if rd <> 0 then begin
                 Array.unsafe_set regs rd w;
                 Regfile.mark_clean env.e_rf rd
               end;
               nx env
             end
           end
       | op ->
         let align = match op with Block.Olh | Block.Olhu -> 1 | _ -> 0 in
         let vmask = if align = 1 then 0xffff else 0xff in
         let sbits = match op with Block.Olb -> 8 | Block.Olh -> 16 | _ -> 0 in
         fun env ->
           let regs = env.e_regs in
           let a = Array.unsafe_get regs breg in
           let ea = (a + off) land m32 in
           if dd && a land tag_bits <> 0 then begin
             env.e_ev <- ev_load_alert;
             env.e_rel <- rel;
             env.e_a <- breg;
             env.e_b <- ea
           end
           else if ea land align <> 0 then begin
             env.e_ev <- ev_misalign;
             env.e_rel <- rel;
             env.e_a <- ea;
             env.e_b <- 2
           end
           else begin
             env.e_rel <- rel;
             let el =
               if align = 1 then Tword.to_bits (TS.load_half_even env.e_ts ea)
               else Tword.to_bits (TS.load_byte_tw env.e_ts ea)
             in
             let w =
               if sbits = 0 then el
               else ((el lsr 32) lsl 32) lor Word.sign_extend ~bits:sbits (el land vmask)
             in
             if w land tag_bits <> 0 then
               env.e_st.M.tainted_loads <- env.e_st.M.tainted_loads + 1;
             if rd <> 0 then
               if track then begin
                 Array.unsafe_set regs rd w;
                 Regfile.mark env.e_rf rd ~m:(w lsr 32)
               end
               else begin
                 Array.unsafe_set regs rd (w land m32);
                 Regfile.mark_clean env.e_rf rd
               end;
             nx env
           end)
    | Block.Osw ->
      let rt = f1 and breg = f2 and off = f3 in
      fun env ->
        let regs = env.e_regs in
        let a = Array.unsafe_get regs breg in
        let ea = (a + off) land m32 in
        if dd && a land tag_bits <> 0 then begin
          env.e_ev <- ev_store_alert;
          env.e_rel <- rel;
          env.e_a <- breg;
          env.e_b <- ea
        end
        else if ea land 3 <> 0 then begin
          env.e_ev <- ev_misalign;
          env.e_rel <- rel;
          env.e_a <- ea;
          env.e_b <- 4
        end
        else begin
          let data =
            if track then Array.unsafe_get regs rt
            else Array.unsafe_get regs rt land m32
          in
          if
            dd_guard && data land tag_bits <> 0 && env.e_has_guards
            && guarded env.e_guards ea 4
          then begin
            env.e_ev <- ev_guard_alert;
            env.e_rel <- rel;
            env.e_a <- rt;
            env.e_b <- ea
          end
          else begin
            env.e_rel <- rel;
            TS.store_word_aligned env.e_ts ea (Tword.of_bits data);
            if data land tag_bits <> 0 then
              env.e_st.M.tainted_stores <- env.e_st.M.tainted_stores + 1;
            nx env
          end
        end
    | Block.Osb ->
      let rt = f1 and breg = f2 and off = f3 in
      fun env ->
        let regs = env.e_regs in
        let a = Array.unsafe_get regs breg in
        let ea = (a + off) land m32 in
        if dd && a land tag_bits <> 0 then begin
          env.e_ev <- ev_store_alert;
          env.e_rel <- rel;
          env.e_a <- breg;
          env.e_b <- ea
        end
        else begin
          let data =
            if track then Array.unsafe_get regs rt
            else Array.unsafe_get regs rt land m32
          in
          if
            dd_guard && data land tag_bits <> 0 && env.e_has_guards
            && guarded env.e_guards ea 1
          then begin
            env.e_ev <- ev_guard_alert;
            env.e_rel <- rel;
            env.e_a <- rt;
            env.e_b <- ea
          end
          else begin
            env.e_rel <- rel;
            let taint = data land (1 lsl 32) <> 0 in
            TS.store_byte env.e_ts ea (data land 0xff) ~taint;
            if taint then
              env.e_st.M.tainted_stores <- env.e_st.M.tainted_stores + 1;
            nx env
          end
        end
    | Block.Osh ->
      let rt = f1 and breg = f2 and off = f3 in
      fun env ->
        let regs = env.e_regs in
        let a = Array.unsafe_get regs breg in
        let ea = (a + off) land m32 in
        if dd && a land tag_bits <> 0 then begin
          env.e_ev <- ev_store_alert;
          env.e_rel <- rel;
          env.e_a <- breg;
          env.e_b <- ea
        end
        else if ea land 1 <> 0 then begin
          env.e_ev <- ev_misalign;
          env.e_rel <- rel;
          env.e_a <- ea;
          env.e_b <- 2
        end
        else begin
          let data =
            if track then Array.unsafe_get regs rt
            else Array.unsafe_get regs rt land m32
          in
          if
            dd_guard && data land tag_bits <> 0 && env.e_has_guards
            && guarded env.e_guards ea 2
          then begin
            env.e_ev <- ev_guard_alert;
            env.e_rel <- rel;
            env.e_a <- rt;
            env.e_b <- ea
          end
          else begin
            env.e_rel <- rel;
            let m = data lsr 32 in
            TS.store_half_even env.e_ts ea (data land m32) ~m;
            (* parity with [Memory.store_half] under [step_core]: the
               tainted-store counter tests the full 4-byte mask, not
               the stored pair *)
            if m <> 0 then
              env.e_st.M.tainted_stores <- env.e_st.M.tainted_stores + 1;
            nx env
          end
        end
    | Block.Omult | Block.Omultu | Block.Odiv | Block.Odivu ->
      let rs = f1 and rt = f2 in
      let op = Array.unsafe_get ops i in
      let hi_lo av bv =
        match op with
        | Block.Omult -> (Word.mul_hi_signed av bv, Word.mul_lo av bv)
        | Block.Omultu -> (Word.mul_hi_unsigned av bv, Word.mul_lo av bv)
        | Block.Odiv ->
          let q, r = Word.div_signed av bv in
          (r, q)
        | _ ->
          let q, r = Word.div_unsigned av bv in
          (r, q)
      in
      fun env ->
        let regs = env.e_regs in
        let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
        let hi, lo = hi_lo (a land m32) (b land m32) in
        let m = if track then (a lsr 32) lor (b lsr 32) else 0 in
        Array.unsafe_set regs 32 (hi lor (m lsl 32));
        Array.unsafe_set regs 33 (lo lor (m lsl 32));
        Regfile.mark env.e_rf 32 ~m;
        Regfile.mark env.e_rf 33 ~m;
        nx env
    | Block.Omfhi | Block.Omflo ->
      let rd = f1 in
      let src = if Array.unsafe_get ops i = Block.Omfhi then 32 else 33 in
      if rd = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          let w = Array.unsafe_get regs src in
          Array.unsafe_set regs rd w;
          Regfile.mark env.e_rf rd ~m:(w lsr 32);
          nx env
    | Block.Omthi | Block.Omtlo ->
      let rs = f1 in
      let dst = if Array.unsafe_get ops i = Block.Omthi then 32 else 33 in
      fun env ->
        let regs = env.e_regs in
        let w = Array.unsafe_get regs rs in
        Array.unsafe_set regs dst w;
        Regfile.mark env.e_rf dst ~m:(w lsr 32);
        nx env
    | Block.Obeq | Block.Obne | Block.Oblez | Block.Obgtz | Block.Obltz
    | Block.Obgez | Block.Oj | Block.Ojal | Block.Ojr | Block.Ojalr
    | Block.Osyscall | Block.Obreak ->
      assert false
  in
  (* A clean-variant load that read a tainted element [w] (already
     extended to the packed register image).  Under a tracking policy
     the taint reaches register [rd], so the block finishes on the full
     variant's continuation [fx]: one deopt, and the block no longer
     counts as run clean.  Otherwise the value lands masked and the
     clean chain goes on. *)
  let clean_tainted_load env rd w (nx : code) (fx : code) =
    env.e_st.M.tainted_loads <- env.e_st.M.tainted_loads + 1;
    if track && rd <> 0 then begin
      Array.unsafe_set env.e_regs rd w;
      Regfile.mark env.e_rf rd ~m:(w lsr 32);
      env.e_cleans <- env.e_cleans - 1;
      env.e_deopts <- env.e_deopts + 1;
      env.e_mode <- 1;
      fx env
    end
    else begin
      if rd <> 0 then Array.unsafe_set env.e_regs rd (w land m32);
      nx env
    end
  in
  (* --- clean-variant straight-line instructions ---

     Pure value semantics on the raw slot array.  While no register
     holds taint, no address, jump target or stored datum can be
     tainted, so no detector can fire and no ALU instruction can
     create taint: there is no mask algebra, no bitmap maintenance
     (every write keeps the invariant [tmap = 0]) and no guard walk.
     Memory may still hold taint, so loads test the tag bits of the
     element they read; [clean_tainted_load] handles the rare tainted
     one.  [fx] is the full variant's continuation after instruction
     [i].  Misalignment and unmapped faults behave exactly like the
     full variant. *)
  let mk_clean i (nx : code) (fx : code) : code =
    let rel = i - idx in
    let f1 = Array.unsafe_get fa i
    and f2 = Array.unsafe_get fb i
    and f3 = Array.unsafe_get fc i in
    match Array.unsafe_get ops i with
    | Block.Onop -> nx
    | Block.Oadd ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1
            ((Array.unsafe_get regs f2 + Array.unsafe_get regs f3) land m32);
          nx env
    | Block.Osub ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1
            ((Array.unsafe_get regs f2 - Array.unsafe_get regs f3) land m32);
          nx env
    | Block.Oand ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1
            (Array.unsafe_get regs f2 land Array.unsafe_get regs f3);
          nx env
    | Block.Oor ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1
            (Array.unsafe_get regs f2 lor Array.unsafe_get regs f3);
          nx env
    | Block.Oxor ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1
            (Array.unsafe_get regs f2 lxor Array.unsafe_get regs f3);
          nx env
    | Block.Onor ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1
            (lnot (Array.unsafe_get regs f2 lor Array.unsafe_get regs f3) land m32);
          nx env
    | Block.Oslt ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1
            (if Word.lt_signed (Array.unsafe_get regs f2) (Array.unsafe_get regs f3)
             then 1
             else 0);
          nx env
    | Block.Osltu ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1
            (if Array.unsafe_get regs f2 < Array.unsafe_get regs f3 then 1 else 0);
          nx env
    | Block.Osllv | Block.Osrlv | Block.Osrav ->
      let op = Array.unsafe_get ops i in
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          let av = Array.unsafe_get regs f2 and n = Array.unsafe_get regs f3 in
          Array.unsafe_set regs f1
            (match op with
             | Block.Osllv -> Word.sll av n
             | Block.Osrlv -> Word.srl av n
             | _ -> Word.sra av n);
          nx env
    | Block.Oaddi ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1 ((Array.unsafe_get regs f2 + f3) land m32);
          nx env
    | Block.Oandi ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1 (Array.unsafe_get regs f2 land f3);
          nx env
    | Block.Oori ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1 (Array.unsafe_get regs f2 lor f3);
          nx env
    | Block.Oxori ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1 (Array.unsafe_get regs f2 lxor f3);
          nx env
    | Block.Oslti ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1
            (if Word.lt_signed (Array.unsafe_get regs f2) f3 then 1 else 0);
          nx env
    | Block.Osltiu ->
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1 (if Array.unsafe_get regs f2 < f3 then 1 else 0);
          nx env
    | Block.Osll | Block.Osrl | Block.Osra ->
      let op = Array.unsafe_get ops i in
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          let av = Array.unsafe_get regs f2 in
          Array.unsafe_set regs f1
            (match op with
             | Block.Osll -> Word.sll av f3
             | Block.Osrl -> Word.srl av f3
             | _ -> Word.sra av f3);
          nx env
    | Block.Olui ->
      if f1 = 0 then nx
      else
        fun env ->
          Array.unsafe_set env.e_regs f1 f3;
          nx env
    | Block.Olw ->
      fun env ->
        let regs = env.e_regs in
        let ea = (Array.unsafe_get regs f2 + f3) land m32 in
        if ea land 3 <> 0 then begin
          env.e_ev <- ev_misalign;
          env.e_rel <- rel;
          env.e_a <- ea;
          env.e_b <- 4
        end
        else begin
          env.e_rel <- rel;
          let w = TS.load_word_elt env.e_ts ea in
          if w land tag_bits <> 0 then clean_tainted_load env f1 w nx fx
          else begin
            if f1 <> 0 then Array.unsafe_set regs f1 w;
            nx env
          end
        end
    | (Block.Olb | Block.Olbu | Block.Olh | Block.Olhu) as op ->
      (* the narrower loads share one shape, like the full variant's *)
      let half = match op with Block.Olh | Block.Olhu -> true | _ -> false in
      let vmask = if half then 0xffff else 0xff in
      let sbits = match op with Block.Olb -> 8 | Block.Olh -> 16 | _ -> 0 in
      fun env ->
        let regs = env.e_regs in
        let ea = (Array.unsafe_get regs f2 + f3) land m32 in
        if half && ea land 1 <> 0 then begin
          env.e_ev <- ev_misalign;
          env.e_rel <- rel;
          env.e_a <- ea;
          env.e_b <- 2
        end
        else begin
          env.e_rel <- rel;
          let el =
            if half then Tword.to_bits (TS.load_half_even env.e_ts ea)
            else Tword.to_bits (TS.load_byte_tw env.e_ts ea)
          in
          let w =
            if sbits = 0 then el
            else ((el lsr 32) lsl 32) lor Word.sign_extend ~bits:sbits (el land vmask)
          in
          if el land tag_bits <> 0 then clean_tainted_load env f1 w nx fx
          else begin
            if f1 <> 0 then Array.unsafe_set regs f1 w;
            nx env
          end
        end
    (* Clean stores write untainted data, which also clears the tag
       bits of whatever (possibly tainted) bytes they overwrite. *)
    | Block.Osw ->
      fun env ->
        let regs = env.e_regs in
        let ea = (Array.unsafe_get regs f2 + f3) land m32 in
        if ea land 3 <> 0 then begin
          env.e_ev <- ev_misalign;
          env.e_rel <- rel;
          env.e_a <- ea;
          env.e_b <- 4
        end
        else begin
          env.e_rel <- rel;
          TS.store_word_aligned env.e_ts ea (Tword.of_bits (Array.unsafe_get regs f1));
          nx env
        end
    | Block.Osb ->
      fun env ->
        let regs = env.e_regs in
        let ea = (Array.unsafe_get regs f2 + f3) land m32 in
        env.e_rel <- rel;
        TS.store_byte env.e_ts ea (Array.unsafe_get regs f1 land 0xff) ~taint:false;
        nx env
    | Block.Osh ->
      fun env ->
        let regs = env.e_regs in
        let ea = (Array.unsafe_get regs f2 + f3) land m32 in
        if ea land 1 <> 0 then begin
          env.e_ev <- ev_misalign;
          env.e_rel <- rel;
          env.e_a <- ea;
          env.e_b <- 2
        end
        else begin
          env.e_rel <- rel;
          TS.store_half_even env.e_ts ea (Array.unsafe_get regs f1) ~m:0;
          nx env
        end
    | Block.Omult | Block.Omultu | Block.Odiv | Block.Odivu ->
      let op = Array.unsafe_get ops i in
      fun env ->
        let regs = env.e_regs in
        let av = Array.unsafe_get regs f1 and bv = Array.unsafe_get regs f2 in
        let hi, lo =
          match op with
          | Block.Omult -> (Word.mul_hi_signed av bv, Word.mul_lo av bv)
          | Block.Omultu -> (Word.mul_hi_unsigned av bv, Word.mul_lo av bv)
          | Block.Odiv ->
            let q, r = Word.div_signed av bv in
            (r, q)
          | _ ->
            let q, r = Word.div_unsigned av bv in
            (r, q)
        in
        Array.unsafe_set regs 32 hi;
        Array.unsafe_set regs 33 lo;
        nx env
    | Block.Omfhi | Block.Omflo ->
      let src = if Array.unsafe_get ops i = Block.Omfhi then 32 else 33 in
      if f1 = 0 then nx
      else
        fun env ->
          let regs = env.e_regs in
          Array.unsafe_set regs f1 (Array.unsafe_get regs src);
          nx env
    | Block.Omthi | Block.Omtlo ->
      let dst = if Array.unsafe_get ops i = Block.Omthi then 32 else 33 in
      fun env ->
        let regs = env.e_regs in
        Array.unsafe_set regs dst (Array.unsafe_get regs f1);
        nx env
    | Block.Obeq | Block.Obne | Block.Oblez | Block.Obgtz | Block.Obltz
    | Block.Obgez | Block.Oj | Block.Ojal | Block.Ojr | Block.Ojalr
    | Block.Osyscall | Block.Obreak ->
      assert false
  in
  let fullc = ref (mk_term ~clean:false) in
  let cleanc = ref (mk_term ~clean:true) in
  for i = term - 1 downto idx do
    cleanc := mk_clean i !cleanc !fullc;
    fullc := mk_full i !fullc
  done;
  let full_code = !fullc and clean_code = !cleanc in
  (* Entry point: one fuel test for the whole superblock, one variant
     selection per entry (which doubles as the taint-transition
     invalidation rule), counters for the driver to flush.  The
     block-constant load/store stats are flushed here, up front — on
     the rare mid-block exit the driver subtracts the unexecuted
     suffix, so the common case pays no per-access counting and no
     separate flush closure. *)
  let go env =
    if env.e_fuel < len then begin
      env.e_ev <- ev_fuel;
      env.e_next_pc <- spc
    end
    else begin
      env.e_fuel <- env.e_fuel - len;
      env.e_cur <- idx;
      env.e_blocks <- env.e_blocks + 1;
      if nl > 0 then env.e_st.M.loads <- env.e_st.M.loads + nl;
      if ns > 0 then env.e_st.M.stores <- env.e_st.M.stores + ns;
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
  in
  let sb = { sb_pc = spc; sb_idx = idx; sb_len = len; sb_go = go; sb_slots = slots } in
  Array.unsafe_set sbs idx sb;
  sb
