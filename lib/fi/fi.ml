open Ptaint_cpu
module Memory = Ptaint_mem.Memory
module Sim = Ptaint_sim.Sim

(* --- fault models ---

   Each constructor is one hardware fault from the paper's threat
   model, aimed at the taintedness architecture itself: data
   corruption (the attacks the detector should catch), taint-bit loss
   (the detector silently disarmed — the false-negative direction),
   and spurious taint (the detector over-armed — the false-positive
   direction). *)

type fault =
  | Flip_data of { addr : int; bit : int }
  | Flip_reg of { slot : int; bit : int }
  | Taint_loss of { addr : int; len : int }
  | Spurious_taint of { addr : int; len : int }
  | Reg_taint_loss of { slot : int }
  | Reg_spurious_taint of { slot : int }
  | Taint_wipe
  | Stuck_clean of { addr : int; len : int }

type injection = { at : int; fault : fault }
type applied = { injection : injection; ok : bool }
type report = { result : Sim.result; applied : applied list }

(* Stable model slugs, as the trace events and reports name them. *)
let model_name = function
  | Flip_data _ -> "data-flip"
  | Flip_reg _ -> "reg-flip"
  | Taint_loss _ -> "taint-loss"
  | Spurious_taint _ -> "spurious-taint"
  | Reg_taint_loss _ -> "reg-taint-loss"
  | Reg_spurious_taint _ -> "reg-spurious-taint"
  | Taint_wipe -> "taint-wipe"
  | Stuck_clean _ -> "stuck-clean"

let target_name = function
  | Flip_data { addr; bit } -> Printf.sprintf "mem[0x%08x] bit %d" addr (bit land 7)
  | Flip_reg { slot; bit } -> Printf.sprintf "%s bit %d" (Regfile.slot_name slot) (bit land 31)
  | Taint_loss { addr; len } | Spurious_taint { addr; len } | Stuck_clean { addr; len } ->
    Printf.sprintf "mem[0x%08x..+%d]" addr len
  | Reg_taint_loss { slot } | Reg_spurious_taint { slot } -> Regfile.slot_name slot
  | Taint_wipe -> "all taint state"

let pp_injection ppf i =
  Format.fprintf ppf "%s@@%d into %s" (model_name i.fault) i.at (target_name i.fault)

(* Mutate the machine through the injection entry points (the
   register file's keep its live taint bitmap exact).  [false] means the fault landed in unmapped memory (the
   flip hit nothing) — reported, never raised, so one wild address in
   a random plan does not kill the trial. *)
let apply (m : Machine.t) fault =
  let regs = m.Machine.regs and mem = m.Machine.mem in
  let ok =
    try
      (match fault with
       | Flip_data { addr; bit } -> Memory.inject_flip_data mem addr ~bit
       | Flip_reg { slot; bit } -> Regfile.inject_flip_value regs slot ~bit
       | Taint_loss { addr; len } -> Memory.inject_set_taint_range mem addr len ~tainted:false
       | Spurious_taint { addr; len } ->
         Memory.inject_set_taint_range mem addr len ~tainted:true
       | Reg_taint_loss { slot } -> Regfile.inject_set_taint regs slot ~tainted:false
       | Reg_spurious_taint { slot } -> Regfile.inject_set_taint regs slot ~tainted:true
       | Taint_wipe ->
         for r = 1 to Regfile.slots - 1 do
           Regfile.inject_set_taint regs r ~tainted:false
         done;
         Memory.inject_wipe_taint mem
       | Stuck_clean { addr; len } -> Memory.inject_set_taint_range mem addr len ~tainted:false);
      true
    with Memory.Unmapped _ -> false
  in
  if ok then Machine.note_injection m ~model:(model_name fault) ~target:(target_name fault);
  if !Memory.debug_asserts then Memory.check_invariants mem;
  ok

(* --- scheduled plans ---

   Injections are scheduled at guest instruction counts and applied by
   fuel-slicing: run the engine to icount [at], mutate while paused,
   resume.  [Stuck_clean] regions additionally re-clear at every
   subsequent slice boundary — taint written into the region survives
   at most one slice.  The default injection slice is finer than
   {!Sim.default_slice} so stuck regions are honoured with reasonable
   granularity without giving up block execution. *)

let default_slice = 4096

let finish_plan ?deadline ?(slice = default_slice) ~plan s =
  let m = s.Sim.s_machine in
  let plan = List.stable_sort (fun a b -> compare a.at b.at) plan in
  let stuck = ref [] in
  let reassert () =
    List.iter
      (fun (addr, len) ->
        try Memory.inject_set_taint_range m.Machine.mem addr len ~tainted:false
        with Memory.Unmapped _ -> ())
      !stuck
  in
  let on_slice _ = reassert () in
  let applied = ref [] in
  let note injection ok = applied := { injection; ok } :: !applied in
  let rec go remaining =
    match remaining with
    | [] ->
      (* Tail of the run: slice boundaries only while a stuck region
         needs re-clearing, so the zero-injection plan without a
         deadline costs exactly one unsliced [finish]. *)
      Sim.finish ?deadline ~slice ?on_slice:(if !stuck = [] then None else Some on_slice) s
    | inj :: rest -> (
      match Sim.run_until ?deadline ~slice ~on_slice s ~icount:inj.at with
      | Sim.Running ->
        let ok = apply m inj.fault in
        (match inj.fault with
         | Stuck_clean { addr; len } when ok -> stuck := (addr, len) :: !stuck
         | _ -> ());
        note inj ok;
        go rest
      | Sim.Finished outcome ->
        (* The guest stopped before this injection point; the rest of
           the plan never fires. *)
        List.iter (fun i -> note i false) remaining;
        Sim.result_of s outcome)
  in
  let result = go plan in
  { result; applied = List.rev !applied }

let run_plan ?config ?deadline ?slice ~plan program =
  finish_plan ?deadline ?slice ~plan (Sim.boot ?config program)

(* --- deterministic RNG ---

   xorshift over the 63-bit native int: plans must be a pure function
   of the seed (identical across domains, runs and machines), so
   neither [Random] (global state) nor anything wall-clock derived is
   usable here. *)

module Rng = struct
  type t = { mutable s : int }

  let create seed =
    let s = seed land max_int in
    { s = (if s = 0 then 0x2545F4914F6CDD1D land max_int else s) }

  let next t =
    let x = t.s in
    let x = x lxor (x lsl 13) land max_int in
    let x = x lxor (x lsr 29) in
    let x = x lxor (x lsl 17) land max_int in
    t.s <- x;
    x

  let int t n = if n <= 0 then 0 else next t mod n
end

(* --- CLI specs --- *)

let parse_int s =
  match int_of_string_opt s with Some n -> Some n | None -> None

let parse spec =
  let fail () =
    Error
      (Printf.sprintf
         "bad injection spec %S (expected MODEL@ICOUNT[:TARGET], e.g. \
          data-flip@1000:0x10000000.3, reg-flip@500:4.7, taint-loss@2000:0x10000000+64, \
          reg-taint-loss@100:29, taint-wipe@1500)"
         spec)
  in
  let ( let* ) o f = match o with Some v -> f v | None -> fail () in
  match String.index_opt spec '@' with
  | None -> fail ()
  | Some i -> (
    let model = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    let at_s, target =
      match String.index_opt rest ':' with
      | None -> (rest, None)
      | Some j ->
        (String.sub rest 0 j, Some (String.sub rest (j + 1) (String.length rest - j - 1)))
    in
    let* at = parse_int at_s in
    let addr_bit t =
      match String.rindex_opt t '.' with
      | None -> None
      | Some j -> (
        match
          ( parse_int (String.sub t 0 j),
            parse_int (String.sub t (j + 1) (String.length t - j - 1)) )
        with
        | Some a, Some b -> Some (a, b)
        | _ -> None)
    in
    let addr_len t =
      match String.index_opt t '+' with
      | None -> None
      | Some j -> (
        match
          ( parse_int (String.sub t 0 j),
            parse_int (String.sub t (j + 1) (String.length t - j - 1)) )
        with
        | Some a, Some l when l > 0 -> Some (a, l)
        | _ -> None)
    in
    match (model, target) with
    | "data-flip", Some t ->
      let* addr, bit = addr_bit t in
      Ok { at; fault = Flip_data { addr; bit } }
    | "reg-flip", Some t ->
      let* slot, bit = addr_bit t in
      Ok { at; fault = Flip_reg { slot; bit } }
    | "taint-loss", Some t ->
      let* addr, len = addr_len t in
      Ok { at; fault = Taint_loss { addr; len } }
    | "spurious-taint", Some t ->
      let* addr, len = addr_len t in
      Ok { at; fault = Spurious_taint { addr; len } }
    | "stuck-clean", Some t ->
      let* addr, len = addr_len t in
      Ok { at; fault = Stuck_clean { addr; len } }
    | "reg-taint-loss", Some t ->
      let* slot = parse_int t in
      Ok { at; fault = Reg_taint_loss { slot } }
    | "reg-spurious-taint", Some t ->
      let* slot = parse_int t in
      Ok { at; fault = Reg_spurious_taint { slot } }
    | "taint-wipe", None -> Ok { at; fault = Taint_wipe }
    | _ -> fail ())
