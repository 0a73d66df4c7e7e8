type t = {
  name : string;
  description : string;
  source : string;
  input : unit -> string;
}

let bzip2 =
  { name = "BZIP2";
    description = "block compressor: Burrows-Wheeler + move-to-front + run-length, self-verifying";
    source = Wl_bzip.source;
    input = (fun () -> Wl_bzip.input ()) }

let gcc =
  { name = "GCC";
    description = "expression compiler: recursive-descent parse, stack-VM codegen, constant folding";
    source = Wl_gcc.source;
    input = (fun () -> Wl_gcc.input ()) }

let gzip =
  { name = "GZIP";
    description = "LZ77 sliding-window compressor with in-guest decompression check";
    source = Wl_gzip.source;
    input = (fun () -> Wl_gzip.input ()) }

let mcf =
  { name = "MCF";
    description = "network optimisation: Bellman-Ford shortest paths with fixpoint verification";
    source = Wl_mcf.source;
    input = (fun () -> Wl_mcf.input ()) }

let parser =
  { name = "PARSER";
    description = "text analysis: tokenizer, hashed dictionary, sentence statistics";
    source = Wl_parser.source;
    input = (fun () -> Wl_parser.input ()) }

let vpr =
  { name = "VPR";
    description = "placement: simulated-annealing swap optimisation of netlist wirelength";
    source = Wl_vpr.source;
    input = (fun () -> Wl_vpr.input ()) }

let all = [ bzip2; gcc; gzip; mcf; parser; vpr ]

type row = {
  workload : t;
  program_bytes : int;
  input_bytes : int;
  instructions : int;
  alerts : int;
  outcome : Ptaint_sim.Sim.outcome;
  stdout : string;
}

(* compile results are shared across batch jobs, so the cache must be
   safe to hit from concurrent domains *)
let cache : (string * bool, Ptaint_asm.Program.t) Hashtbl.t = Hashtbl.create 12
let cache_lock = Mutex.create ()

let program_with ~untaint_writeback w =
  let cached () = Hashtbl.find_opt cache (w.name, untaint_writeback) in
  match Mutex.protect cache_lock cached with
  | Some p -> p
  | None ->
    let p = Ptaint_runtime.Runtime.compile ~untaint_writeback w.source in
    Mutex.protect cache_lock (fun () ->
        match cached () with
        | Some p -> p (* another domain compiled it first; keep one copy *)
        | None ->
          Hashtbl.replace cache (w.name, untaint_writeback) p;
          p)

let program w = program_with ~untaint_writeback:true w

let config_for w =
  { Ptaint_sim.Sim.default_config with
    Ptaint_sim.Sim.stdin = w.input ();
    argv = [ w.name ] }

(* one loaded image per workload; runs restore the snapshot
   copy-on-write instead of re-loading (policy/stdin may vary freely,
   only argv/env/sources are baked into the image) *)
let template_cache : (string, Ptaint_sim.Sim.template) Hashtbl.t = Hashtbl.create 12

let template w =
  let cached () = Hashtbl.find_opt template_cache w.name in
  match Mutex.protect cache_lock cached with
  | Some t -> t
  | None ->
    let t = Ptaint_sim.Sim.prepare ~config:(config_for w) (program w) in
    Mutex.protect cache_lock (fun () ->
        match cached () with
        | Some t -> t
        | None ->
          Hashtbl.replace template_cache w.name t;
          t)

let row_of w p (result : Ptaint_sim.Sim.result) =
  { workload = w;
    program_bytes = Ptaint_asm.Program.text_bytes p + Ptaint_asm.Program.data_bytes p;
    input_bytes = result.Ptaint_sim.Sim.input_bytes;
    instructions = result.Ptaint_sim.Sim.instructions;
    alerts = (match result.Ptaint_sim.Sim.outcome with Ptaint_sim.Sim.Alert _ -> 1 | _ -> 0);
    outcome = result.Ptaint_sim.Sim.outcome;
    stdout = result.Ptaint_sim.Sim.stdout }

let run ?(policy = Ptaint_cpu.Policy.default) ?(untaint_writeback = true) w =
  let config = { (config_for w) with Ptaint_sim.Sim.policy } in
  if untaint_writeback then
    row_of w (program w) (Ptaint_sim.Sim.run_template ~config (template w))
  else
    let p = program_with ~untaint_writeback w in
    row_of w p (Ptaint_sim.Sim.run ~config p)
