open Ptaint_cpu
open Ptaint_os

type config = {
  policy : Policy.t;
  sources : Sources.t;
  argv : string list;
  env : (string * string) list;
  stdin : string;
  sessions : string list list;
  fs_init : (string * string) list;
  uid : int;
  max_instructions : int;
  timing : bool;
  obs : bool;
  on_step : (Machine.t -> Ptaint_isa.Insn.t -> unit) option;
}

let default_config =
  { policy = Policy.default;
    sources = Sources.all;
    argv = [ "prog" ];
    env = [];
    stdin = "";
    sessions = [];
    fs_init = [];
    uid = 1000;
    max_instructions = 200_000_000;
    timing = false;
    obs = false;
    on_step = None }

let policy_labels =
  [ ("full", Policy.default);
    ("control-only", Policy.control_only);
    ("none", Policy.unprotected);
    ("baseline", Policy.baseline_no_tracking) ]

let policy_of_label = function
  | "full" | "pointer-taintedness" -> Ok Policy.default
  | "control-only" | "minos" -> Ok Policy.control_only
  | "none" | "unprotected" -> Ok Policy.unprotected
  | "baseline" | "no-tracking" -> Ok Policy.baseline_no_tracking
  | s ->
    Error
      (Printf.sprintf "unknown policy %S (%s)" s
         (String.concat " | " (List.map fst policy_labels)))

type outcome =
  | Exited of int
  | Alert of Machine.alert
  | Fault of Machine.fault
  | Trap of int
  | Out_of_fuel

type result = {
  outcome : outcome;
  stdout : string;
  net_sent : string list;
  execs : string list;
  final_uid : int;
  instructions : int;
  input_bytes : int;
  syscalls : int;
  cycles : int option;
  pipeline : Pipeline.stats option;
  kernel : Kernel.t;
  machine : Machine.t;
  image : Ptaint_asm.Loader.image;
}

let pp_outcome ppf = function
  | Exited c -> Format.fprintf ppf "exited with status %d" c
  | Alert a -> Format.fprintf ppf "SECURITY ALERT: %a" Machine.pp_alert a
  | Fault f -> Format.fprintf ppf "fault: %a" Machine.pp_fault f
  | Trap c -> Format.fprintf ppf "break trap %d" c
  | Out_of_fuel -> Format.pp_print_string ppf "instruction budget exhausted"

let detected r = match r.outcome with Alert _ -> true | _ -> false

let exit_code = function
  | Exited c -> c land 0xff
  | Alert _ -> 3
  | Fault _ | Trap _ | Out_of_fuel -> 4

type session = {
  s_machine : Machine.t;
  s_kernel : Kernel.t;
  s_image : Ptaint_asm.Loader.image;
  s_config : config;
  s_pipeline : Pipeline.t option;
}

type progress = Running | Finished of outcome

(* The guest's OS side of a boot: a fresh file system seeded from
   [fs_init] and a kernel over the image's memory and heap bounds. *)
let boot_kernel ?trace config (image : Ptaint_asm.Loader.image) =
  let fs = Fs.create () in
  List.iter (fun (path, contents) -> Fs.add fs ~path contents) config.fs_init;
  Kernel.create ~sources:config.sources ~fs ~stdin:config.stdin ~sessions:config.sessions
    ~uid:config.uid ?trace ~heap_base:image.Ptaint_asm.Loader.heap_base
    ~heap_limit:image.Ptaint_asm.Loader.heap_limit ~mem:image.Ptaint_asm.Loader.mem ()

let boot_image ?decoded ?tier config (image : Ptaint_asm.Loader.image) =
  let machine =
    Machine.create ~policy:config.policy ?decoded ?tier ~code:image.Ptaint_asm.Loader.code
      ~mem:image.Ptaint_asm.Loader.mem ~entry:image.Ptaint_asm.Loader.entry ()
  in
  Regfile.set machine.Machine.regs Ptaint_isa.Reg.sp
    (Ptaint_taint.Tword.untainted image.Ptaint_asm.Loader.initial_sp);
  (* Each session owns a fresh trace: configs are shared across
     campaign jobs running on different domains, so the mutable bus
     must be per-boot, never part of the config. *)
  let trace =
    if config.obs then begin
      let tr = Ptaint_obs.Trace.create () in
      Machine.attach_obs machine tr;
      Some tr
    end
    else None
  in
  let pipe = if config.timing then Some (Pipeline.create machine) else None in
  { s_machine = machine; s_kernel = boot_kernel ?trace config image; s_image = image;
    s_config = config; s_pipeline = pipe }

let boot ?(config = default_config) program =
  boot_image config
    (Ptaint_asm.Loader.load ~argv:config.argv ~env:config.env ~sources:config.sources program)

(* --- boot images (snapshot templates) ---

   Loading a guest image writes every data/stack/argument byte into
   guest memory, and decoding its text into block tables is the
   other per-boot cost worth paying once.  An {!Image.t} does both up
   front: load, snapshot the memory, pre-decode the text.  Every
   subsequent boot restores the snapshot copy-on-write and reuses the
   decoded blocks by reference — safe concurrently from many domains
   because snapshot pages and block tables are immutable after
   creation (memory writers clone their page first). *)

module Image = struct
  type t = {
    i_image : Ptaint_asm.Loader.image;
    i_blocks : Block.t;  (* pre-decoded text, shared by every boot *)
    i_snapshot : Ptaint_mem.Memory.snapshot;
    i_argv : string list;
    i_env : (string * string) list;
    i_sources : Sources.t;
    i_tiers : (Policy.t * Superblock.tier) list Atomic.t;
        (* superblock translation tables, one per policy the image has
           run under.  Translated closures bake policy constants, so a
           tier is only valid for the exact policy it was built with;
           campaigns replay the same few policies, so a small assoc
           list found by structural equality suffices.  Push-only CAS
           list: losing a race re-reads and retries, and a duplicate
           tier (two domains creating one concurrently) costs only the
           warm-up repeating. *)
  }

  let program t = t.i_image.Ptaint_asm.Loader.program
  let blocks t = t.i_blocks

  (* The image's tier for [policy], created on first request: every
     boot of the image under that policy shares it, so superblocks one
     job translated (on any domain) are reused by the next — the
     translation analogue of the copy-on-write snapshot. *)
  let rec tier_for t policy =
    let tiers = Atomic.get t.i_tiers in
    match List.find_opt (fun (p, _) -> p = policy) tiers with
    | Some (_, tier) -> tier
    | None ->
      let tier = Superblock.create_tier t.i_blocks policy in
      if Atomic.compare_and_set t.i_tiers tiers ((policy, tier) :: tiers) then tier
      else tier_for t policy
end

type template = Image.t

let prepare ?(config = default_config) program =
  let image =
    Ptaint_asm.Loader.load ~argv:config.argv ~env:config.env ~sources:config.sources program
  in
  let code = image.Ptaint_asm.Loader.code in
  { Image.i_image = image;
    i_blocks = Block.analyze ~base:code.Machine.base code.Machine.insns;
    i_snapshot = Ptaint_mem.Memory.snapshot image.Ptaint_asm.Loader.mem;
    i_argv = config.argv;
    i_env = config.env;
    i_sources = config.sources;
    i_tiers = Atomic.make [] }

let check_template_config who (config : config) (tpl : template) =
  if not
       (config.argv = tpl.Image.i_argv && config.env = tpl.Image.i_env
        && config.sources = tpl.Image.i_sources)
  then invalid_arg (who ^ ": argv/env/sources differ from the template image")

let boot_template ?(config = default_config) tpl =
  check_template_config "Sim.boot_template" config tpl;
  let mem = Ptaint_mem.Memory.restore tpl.Image.i_snapshot in
  let s =
    boot_image ~decoded:tpl.Image.i_blocks ~tier:(Image.tier_for tpl config.policy) config
      { tpl.Image.i_image with Ptaint_asm.Loader.mem }
  in
  (match Machine.trace s.s_machine with
   | Some tr -> Ptaint_obs.Trace.emit tr (Ptaint_obs.Event.Restore { cycle = 0 })
   | None -> ());
  s

(* --- arena boots ---

   [boot_template] still allocates a machine, a register file, a
   memory wrapper and a page table per job.  The arena path recycles
   all of those: each domain keeps one machine ([Domain.DLS]) whose
   memory is rewound in place from the image's snapshot and whose
   machine state is [Machine.reset] at the image's entry — possibly a
   different image each boot.  In the steady state a boot allocates
   only the kernel and session records.

   The contract is strictly weaker than [boot_template]: the returned
   session (and any {!result} taken from it) aliases the domain's
   arena and is only valid until the next arena boot on that domain.
   Streaming campaign workers, which extract counters from a result
   before touching the next job, satisfy this; anything that keeps
   results must use the fresh-boot path.  Configs that need
   observation machinery (timing model, on_step, obs trace) fall back
   to a fresh boot — those sessions are kept and inspected. *)

let arena_key : Machine.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let boot_template_arena ?(config = default_config) tpl =
  if config.timing || config.obs || config.on_step <> None then boot_template ~config tpl
  else begin
    check_template_config "Sim.boot_template_arena" config tpl;
    let cell = Domain.DLS.get arena_key in
    match !cell with
    | None ->
      (* first boot on this domain seeds the arena with an ordinary
         fresh boot *)
      let s = boot_template ~config tpl in
      cell := Some s.s_machine;
      s
    | Some machine ->
      let image = tpl.Image.i_image in
      Ptaint_mem.Memory.reset_from_snapshot machine.Machine.mem tpl.Image.i_snapshot;
      Machine.reset ~policy:config.policy ~decoded:tpl.Image.i_blocks
        ~tier:(Image.tier_for tpl config.policy) machine
        ~code:image.Ptaint_asm.Loader.code ~entry:image.Ptaint_asm.Loader.entry;
      Regfile.set machine.Machine.regs Ptaint_isa.Reg.sp
        (Ptaint_taint.Tword.untainted image.Ptaint_asm.Loader.initial_sp);
      let image = { image with Ptaint_asm.Loader.mem = machine.Machine.mem } in
      { s_machine = machine;
        s_kernel = boot_kernel config image;
        s_image = image;
        s_config = config;
        s_pipeline = None }
  end

let session_step s =
  let machine = s.s_machine in
  if machine.Machine.icount >= s.s_config.max_instructions then Finished Out_of_fuel
  else begin
    (match s.s_config.on_step with
     | Some hook -> (
       match Machine.fetch machine machine.Machine.pc with
       | Some insn -> hook machine insn
       | None -> ())
     | None -> ());
    match
      (match s.s_pipeline with Some p -> Pipeline.step p | None -> Machine.step machine)
    with
    | Machine.Normal -> Running
    | Machine.Syscall -> (
      match Kernel.handle s.s_kernel machine with
      | `Continue -> Running
      | `Exit code -> Finished (Exited code))
    | Machine.Alert a -> Finished (Alert a)
    | Machine.Fault f -> Finished (Fault f)
    | Machine.Break_trap c -> Finished (Trap c)
  end

let result_of s outcome =
  { outcome;
    stdout = Kernel.stdout_contents s.s_kernel;
    net_sent = Socket.sent (Kernel.net s.s_kernel);
    execs = Kernel.execs s.s_kernel;
    final_uid = Kernel.uid s.s_kernel;
    instructions = s.s_machine.Machine.icount;
    input_bytes = Kernel.input_bytes s.s_kernel;
    syscalls = Kernel.syscall_count s.s_kernel;
    cycles = Option.map (fun p -> (Pipeline.stats p).Pipeline.cycles) s.s_pipeline;
    pipeline = Option.map Pipeline.stats s.s_pipeline;
    kernel = s.s_kernel;
    machine = s.s_machine;
    image = s.s_image }

let finish_per_step s =
  let rec loop () =
    match session_step s with Running -> loop () | Finished outcome -> outcome
  in
  result_of s (loop ())

(* --- the driver ---

   One driver runs every session to completion or to an icount target.
   Sessions with a pipeline timing model or an [on_step] hook take
   [session_step]; everything else takes [Machine.run], which dispatches
   whole blocks and drives the traced per-instruction engine itself
   when an obs trace is attached.  Fuel is re-derived from [icount]
   around each syscall, so [Out_of_fuel] lands on exactly the same
   instruction as the per-step loop.

   Slicing caps each dispatch at [slice] instructions and runs
   [boundary] between slices (and around every syscall).  Because
   [Machine.run] returns [Normal] exactly when its fuel ran out,
   slice boundaries are observationally invisible: a sliced run is
   byte-identical to an unsliced one.  The boundary is where the
   cooperative watchdog checks its wall-clock deadline and where the
   fault injector re-asserts stuck-at-clean regions; with neither a
   deadline nor an [on_slice] hook nothing is sliced and each dispatch
   gets all the remaining fuel. *)

exception Timeout of { instructions : int }

let default_slice = 65536

let boundary ?deadline ?on_slice s =
  (match deadline with
   | Some d when Unix.gettimeofday () > d ->
     raise (Timeout { instructions = s.s_machine.Machine.icount })
   | _ -> ());
  match on_slice with Some f -> f s | None -> ()

(* The two arms of the driver, top-level so a run allocates no
   closure; [slice = max_int] means unsliced. *)
let rec drive_bulk s ~deadline ~on_slice ~slice ~target first =
  let machine = s.s_machine in
  if machine.Machine.icount >= target then Running
  else
    let fuel = s.s_config.max_instructions - machine.Machine.icount in
    if fuel <= 0 then Finished Out_of_fuel
    else begin
      if slice < max_int && not first then boundary ?deadline ?on_slice s;
      match Machine.run machine ~fuel:(min (min fuel slice) (target - machine.Machine.icount)) with
      | Machine.Normal -> drive_bulk s ~deadline ~on_slice ~slice ~target false
      | Machine.Syscall -> (
        match Kernel.handle s.s_kernel machine with
        | `Continue -> drive_bulk s ~deadline ~on_slice ~slice ~target false
        | `Exit code -> Finished (Exited code))
      | Machine.Alert a -> Finished (Alert a)
      | Machine.Fault f -> Finished (Fault f)
      | Machine.Break_trap c -> Finished (Trap c)
    end

let rec drive_stepped s ~deadline ~on_slice ~slice ~target next =
  let icount = s.s_machine.Machine.icount in
  if icount >= target then Running
  else begin
    let next =
      if icount >= next then begin
        boundary ?deadline ?on_slice s;
        icount + slice
      end
      else next
    in
    match session_step s with
    | Running -> drive_stepped s ~deadline ~on_slice ~slice ~target next
    | Finished _ as f -> f
  end

let drive ?deadline ?(slice = default_slice) ?on_slice s ~target =
  let slice = if Option.is_none deadline && Option.is_none on_slice then max_int else max 1 slice in
  match (s.s_pipeline, s.s_config.on_step) with
  | None, None -> drive_bulk s ~deadline ~on_slice ~slice ~target true
  | _ ->
    let next = if slice = max_int then max_int else s.s_machine.Machine.icount + slice in
    drive_stepped s ~deadline ~on_slice ~slice ~target next

let finish ?deadline ?slice ?on_slice s =
  match drive ?deadline ?slice ?on_slice s ~target:max_int with
  | Finished outcome -> result_of s outcome
  | Running -> assert false (* no session reaches [max_int] instructions *)

let run_until ?deadline ?slice ?on_slice s ~icount =
  drive ?deadline ?slice ?on_slice s ~target:icount

let run ?deadline ?slice ?config program = finish ?deadline ?slice (boot ?config program)

let run_template ?deadline ?slice ?config tpl =
  finish ?deadline ?slice (boot_template ?config tpl)

let run_template_arena ?deadline ?slice ?config tpl =
  finish ?deadline ?slice (boot_template_arena ?config tpl)

(* --- observation accessors --- *)

let trace s = Machine.trace s.s_machine

let events r =
  match Machine.trace r.machine with
  | Some tr -> Ptaint_obs.Trace.events tr
  | None -> []

let insn_window r = Machine.ring_window r.machine
