(* The traced run's job loop.

   Drives each job through the same public entry points the streaming
   campaign uses — Job.program (cc), Sim.prepare, Sim.boot_template_arena,
   a loop over Machine.run (cpu) and Kernel.handle (os), Sim.result_of —
   on the calling domain, timing every call from this side of the
   layer boundary.  The image-cache lookup the campaign engine makes
   per job and the benchmark's own result check are timed too, so what
   is left unattributed is loop glue.  Each call is also a span nested
   in its job's span; spans are kept in arrays and turned into Chrome
   events only when the run is over.  Layer spans never overlap, so a
   layer's self time is the sum of its spans. *)

module Sim = Ptaint_sim.Sim
module Job = Ptaint_campaign.Job
module Machine = Ptaint_cpu.Machine
module Memory = Ptaint_mem.Memory
module Kernel = Ptaint_os.Kernel

type layer = { lname : string; mutable calls : int; mutable ns : int }

(* Spans beyond this many are counted but not kept, which bounds the
   Chrome file at a few megabytes. *)
let max_spans = 60_000

type t = {
  cc : layer;
  prepare : layer;
  boot : layer;
  cpu : layer;
  os : layer;
  result : layer;
  image : layer;  (** Job.image_key and the cache lookup *)
  check : layer;  (** the benchmark's own result check *)
  images : (string, Sim.template) Hashtbl.t;
  mutable jobs : int;
  mutable instructions : int;
  mutable blocks : int;
  mutable clean_blocks : int;
  mutable interp_blocks : int;
  mutable promoted : int;
  mutable chain_hits : int;
  mutable chain_misses : int;
  mutable deopts : int;
  mutable loads : int;
  mutable stores : int;
  mutable tainted_loads : int;
  mutable spans : int;
  span_name : string array;
  span_t0 : int array;
  span_t1 : int array;
  span_job : int array;
  span_is_job : bool array;
}

let layer lname = { lname; calls = 0; ns = 0 }

let create () =
  { cc = layer "cc.compile"; prepare = layer "sim.prepare"; boot = layer "sim.boot";
    cpu = layer "cpu.run"; os = layer "os.syscall"; result = layer "sim.result";
    image = layer "campaign.image"; check = layer "bench.check"; images = Hashtbl.create 64;
    jobs = 0; instructions = 0; blocks = 0; clean_blocks = 0; interp_blocks = 0; promoted = 0;
    chain_hits = 0; chain_misses = 0; deopts = 0; loads = 0; stores = 0; tainted_loads = 0;
    spans = 0; span_name = Array.make max_spans ""; span_t0 = Array.make max_spans 0;
    span_t1 = Array.make max_spans 0; span_job = Array.make max_spans 0;
    span_is_job = Array.make max_spans false }

let secs l = float_of_int l.ns *. 1e-9

(* Self time of the library layers, then of everything timed. *)
let library_secs t = List.fold_left (fun acc l -> acc +. secs l) 0. [ t.cc; t.prepare; t.boot; t.cpu; t.os; t.result ]
let timed_secs t = library_secs t +. secs t.image +. secs t.check

let span ?(is_job = false) t name ~job t0 t1 =
  let i = t.spans in
  if i < max_spans then begin
    t.span_name.(i) <- name;
    t.span_is_job.(i) <- is_job;
    t.span_t0.(i) <- t0;
    t.span_t1.(i) <- t1;
    t.span_job.(i) <- job;
    t.spans <- i + 1
  end

let timed t l ~job f =
  let t0 = Clock.ns () in
  let r = f () in
  let t1 = Clock.ns () in
  l.calls <- l.calls + 1;
  l.ns <- l.ns + (t1 - t0);
  span t l.lname ~job t0 t1;
  r

(* The kept spans as Chrome events on the benchmark's track (pid 1). *)
let to_chrome t chrome =
  for i = 0 to t.spans - 1 do
    let t0 = float_of_int t.span_t0.(i) *. 1e-9 and t1 = float_of_int t.span_t1.(i) *. 1e-9 in
    Ptaint_obs.Chrome.complete chrome ~name:t.span_name.(i)
      ~cat:(if t.span_is_job.(i) then "job" else "layer")
      ~pid:1 ~tid:0 ~ts_us:(Clock.epoch_us t0) ~dur_us:((t1 -. t0) *. 1e6)
      ~args:[ ("job", string_of_int t.span_job.(i)) ] ()
  done

(* One job; [check] judges its result.  The loop is [Sim.finish]'s
   bulk driver with a timer around each call. *)
let run_job t ~job ~check (j : Job.t) =
  let t0 = Clock.ns () in
  let config = j.Job.config in
  let image =
    match timed t t.image ~job (fun () -> Hashtbl.find_opt t.images (Job.image_key j)) with
    | Some i -> i
    | None ->
      let p = timed t t.cc ~job (fun () -> Job.program j) in
      let i = timed t t.prepare ~job (fun () -> Sim.prepare ~config p) in
      Hashtbl.replace t.images (Job.image_key j) i;
      i
  in
  let s = timed t t.boot ~job (fun () -> Sim.boot_template_arena ~config image) in
  let m = s.Sim.s_machine in
  let st = Memory.stats m.Machine.mem in
  let loads0 = st.Memory.loads and stores0 = st.Memory.stores in
  let tainted0 = st.Memory.tainted_loads in
  let rec loop () =
    let fuel = config.Sim.max_instructions - m.Machine.icount in
    if fuel <= 0 then Sim.Out_of_fuel
    else
      match timed t t.cpu ~job (fun () -> Machine.run m ~fuel) with
      | Machine.Normal -> Sim.Out_of_fuel
      | Machine.Syscall -> (
        match timed t t.os ~job (fun () -> Kernel.handle s.Sim.s_kernel m) with
        | `Continue -> loop ()
        | `Exit code -> Sim.Exited code)
      | Machine.Alert a -> Sim.Alert a
      | Machine.Fault f -> Sim.Fault f
      | Machine.Break_trap c -> Sim.Trap c
  in
  let outcome = loop () in
  let r = timed t t.result ~job (fun () -> Sim.result_of s outcome) in
  t.jobs <- t.jobs + 1;
  t.instructions <- t.instructions + m.Machine.icount;
  t.blocks <- t.blocks + m.Machine.blocks_run;
  t.clean_blocks <- t.clean_blocks + m.Machine.clean_blocks;
  (* Every translated-arm run executes chain_hits + 1 blocks and all
     but the last end in a chain miss or a Machine.run exit, so this
     over-counts interpreted blocks by at most one per Machine.run call. *)
  t.interp_blocks <-
    t.interp_blocks + max 0 (m.Machine.blocks_run - m.Machine.chain_hits - m.Machine.chain_misses);
  t.promoted <- t.promoted + m.Machine.sb_promoted;
  t.chain_hits <- t.chain_hits + m.Machine.chain_hits;
  t.chain_misses <- t.chain_misses + m.Machine.chain_misses;
  t.deopts <- t.deopts + m.Machine.sb_deopts;
  t.loads <- t.loads + st.Memory.loads - loads0;
  t.stores <- t.stores + st.Memory.stores - stores0;
  t.tainted_loads <- t.tainted_loads + st.Memory.tainted_loads - tainted0;
  timed t t.check ~job (fun () -> check (Jobs.reference_of r));
  span ~is_job:true t j.Job.tag ~job t0 (Clock.ns ())
