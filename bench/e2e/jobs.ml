(* Workload inputs and the checks every result must pass.

   Every input is built from the seed before timing starts: the six
   Table 3 guests (fixed inputs, seeded round order) and pools of
   generated jobs.  The program under test only ever receives these
   pre-built jobs.  A reference result for each pooled job is computed
   locally on the calling domain, and every timed result — from the
   streaming campaign, the in-process daemon or the isolated daemon —
   must match it exactly. *)

module Sim = Ptaint_sim.Sim
module Job = Ptaint_campaign.Job
module Campaign = Ptaint_campaign.Campaign
module Gen = Ptaint_gen.Gen
module Proto = Ptaint_daemon.Proto
module Workload = Ptaint_workloads.Workload

let policy label =
  match Sim.policy_of_label label with Ok p -> p | Error e -> invalid_arg e

(* --- outcomes --- *)

let short_outcome = function
  | Sim.Exited _ -> "exited"
  | Sim.Alert _ -> "alert"
  | Sim.Fault _ -> "fault"
  | Sim.Trap _ -> "trap"
  | Sim.Out_of_fuel -> "out-of-fuel"

type reference = {
  r_render : string;  (** {!Sim.pp_outcome}, as the daemon streams it *)
  r_short : string;  (** {!Campaign.outcome_name}, as run_stream folds it *)
  r_alert_pc : int option;
  r_instructions : int;
  r_syscalls : int;
  r_stdout : string;
}

let reference_of (r : Sim.result) =
  { r_render = Format.asprintf "%a" Sim.pp_outcome r.Sim.outcome;
    r_short = short_outcome r.Sim.outcome;
    r_alert_pc =
      (match r.Sim.outcome with Sim.Alert a -> Some a.Ptaint_cpu.Machine.alert_pc | _ -> None);
    r_instructions = r.Sim.instructions;
    r_syscalls = r.Sim.syscalls;
    r_stdout = r.Sim.stdout }

let mismatch what expected got =
  Some (Printf.sprintf "%s: expected %s, got %s" what expected got)

let check_result (r : reference) (got : reference) =
  if got.r_render <> r.r_render then mismatch "outcome" r.r_render got.r_render
  else if got.r_instructions <> r.r_instructions then
    mismatch "instructions" (string_of_int r.r_instructions) (string_of_int got.r_instructions)
  else if got.r_syscalls <> r.r_syscalls then
    mismatch "syscalls" (string_of_int r.r_syscalls) (string_of_int got.r_syscalls)
  else if got.r_stdout <> r.r_stdout then Some "stdout differs"
  else None

let check_summary (r : reference) (s : Campaign.job_summary) =
  if s.Campaign.s_failed then Some ("job failed: " ^ s.Campaign.s_outcome)
  else if s.Campaign.s_outcome <> r.r_short then mismatch "outcome" r.r_short s.Campaign.s_outcome
  else if s.Campaign.s_alert_pc <> r.r_alert_pc then Some "alert pc differs"
  else if s.Campaign.s_instructions <> r.r_instructions then
    mismatch "instructions" (string_of_int r.r_instructions)
      (string_of_int s.Campaign.s_instructions)
  else if s.Campaign.s_syscalls <> r.r_syscalls then
    mismatch "syscalls" (string_of_int r.r_syscalls) (string_of_int s.Campaign.s_syscalls)
  else None

let check_event (r : reference) = function
  | Proto.Finished f ->
    if f.outcome <> r.r_render then mismatch "outcome" r.r_render f.outcome
    else if f.instructions <> r.r_instructions then
      mismatch "instructions" (string_of_int r.r_instructions) (string_of_int f.instructions)
    else if f.syscalls <> r.r_syscalls then
      mismatch "syscalls" (string_of_int r.r_syscalls) (string_of_int f.syscalls)
    else if f.stdout <> r.r_stdout then Some "stdout differs"
    else None
  | Proto.Job_failed f -> Some (Printf.sprintf "job failed: %s: %s" f.kind f.message)
  | Proto.Started _ -> Some "not a terminal event"

(* --- Table 3 guests --- *)

(* Guest, self-check line, and instruction count as committed in the
   Table 3 section of experiments_output.txt (44,642,933 per round,
   66 syscalls). *)
let table3 =
  [ ("BZIP2", "verify OK", 12_144_794);
    ("GCC", "statements", 1_480_913);
    ("GZIP", "verify OK", 8_265_853);
    ("MCF", "reachable", 1_440_619);
    ("PARSER", "words", 1_344_292);
    ("VPR", "wirelength", 19_966_462) ]

let table3_syscalls = 66

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The Table 3 contract for one guest result: a clean exit (so no
   alert), the committed instruction count and, where the result
   carries stdout, the guest's self-check line. *)
let check_guest name ~exited ~instructions ~stdout =
  match List.find_opt (fun (n, _, _) -> n = name) table3 with
  | None -> Some (name ^ ": not a Table 3 guest")
  | Some (_, needle, icount) ->
    if not exited then Some (name ^ ": did not exit with status 0")
    else if instructions <> icount then
      mismatch (name ^ " instructions") (string_of_int icount) (string_of_int instructions)
    else
      match stdout with
      | Some out when not (contains out needle) ->
        Some (Printf.sprintf "%s: self-check %S missing from stdout" name needle)
      | _ -> None

let guest_job label (w : Workload.t) =
  let config = { (Workload.config_for w) with Sim.policy = policy label } in
  Job.make ~tag:w.Workload.name ~config (Job.C_source w.Workload.source)

(* --- generated pools --- *)

type pool = {
  jobs : Job.t array;
  labels : string array;  (** policy label of each job, for wire specs *)
}

(* [jobs] jobs of [spec], job [i] being generator job [index i]. *)
let pool_of spec ~jobs index =
  (* Gen rebuilds the variant's source text for every job; share one
     copy per distinct text so a large pool costs its payloads only. *)
  let sources = Hashtbl.create 64 in
  let intern s =
    match Hashtbl.find_opt sources s with
    | Some s -> s
    | None -> Hashtbl.replace sources s s; s
  in
  let job i =
    let j = Gen.job spec (index i) in
    match j.Job.payload with
    | Job.C_source s -> { j with Job.payload = Job.C_source (intern s) }
    | _ -> j
  in
  { jobs = Array.init jobs job; labels = Array.init jobs (fun i -> Gen.policy_label spec (index i)) }

let buffer_size source =
  let key = "char buf[" in
  let rec find i =
    if i + String.length key > String.length source then 0
    else if String.sub source i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let s = find 0 in
  match String.index_from_opt source s ']' with
  | Some e -> Option.value ~default:0 (int_of_string_opt (String.sub source s (e - s)))
  | None -> 0

(* [variants] programs, each run on an equal share of the cases, one
   per band of the handler's buffer size.  A job's instruction count
   follows its buffer (gets and the checksum loop walk it), so a plain
   draw of a dozen programs made a pool's mean job size differ by ±12%
   between seeds; banded, every seed's pool has the same size profile
   (within 2%), while the seed still picks the programs, their helpers
   and every payload.  The programs are taken by rank of buffer size
   among [16 * variants] candidates. *)
let warm_pool ~seed ~variants ~jobs =
  let candidates = 16 * variants in
  let np = List.length Gen.default_policy_labels in
  let per_program = (((jobs + np - 1) / np) + variants - 1) / variants in
  let spec = Gen.spec ~seed ~variants:candidates ~jobs:(np * candidates * per_program) () in
  let by_size =
    Array.of_list
      (List.sort compare
         (List.init candidates (fun v -> (buffer_size (Gen.source spec v), v))))
  in
  let chosen = Array.init variants (fun b -> snd by_size.(((2 * b) + 1) * candidates / (2 * variants))) in
  (* Gen runs case c on variant c mod candidates, so the k-th case of
     chosen program v is case v + k * candidates *)
  pool_of spec ~jobs (fun i ->
      let case = i / np in
      let v = chosen.(case mod variants) in
      (np * (v + (case / variants * candidates))) + (i mod np))

let guest_pool label =
  { jobs = Array.of_list (List.map (guest_job label) Workload.all);
    labels = Array.make (List.length Workload.all) label }

let size p = Array.length p.jobs
let job p k = p.jobs.(k mod size p)

let wire_spec p k =
  let i = k mod size p in
  match Proto.spec_of_job ~policy:p.labels.(i) p.jobs.(i) with
  | Ok s -> s
  | Error e -> invalid_arg e

(* What the generator promises about a case, from its tag
   ([gen/cNNNNN/vNN/ATTACK/POLICY]): a benign line exits under every
   policy, and a return-address clobber is caught by both protecting
   policies. *)
let gen_violation ~tag ~short =
  match String.split_on_char '/' tag with
  | [ "gen"; _; _; "benign"; _ ] when short <> "exited" ->
    Some (tag ^ ": benign payload did not exit (" ^ short ^ ")")
  | [ "gen"; _; _; "ra-clobber"; ("control-only" | "full") ] when short <> "alert" ->
    Some (tag ^ ": return-address clobber not detected (" ^ short ^ ")")
  | _ -> None

(* control-only and full must agree on every generated case: outcome
   and instruction count (a return-address clobber is control data;
   every other case is benign or faults identically).  A daemon
   completes jobs out of order, so a case's first protecting result
   waits, keyed by case, for the other. *)
type agreement = (string, string * string * int) Hashtbl.t

let agreement () : agreement = Hashtbl.create 64

let agree (a : agreement) ~tag ~short ~instructions =
  match String.split_on_char '/' tag with
  | [ "gen"; case; _; _; (("control-only" | "full") as policy) ] -> (
    match Hashtbl.find_opt a case with
    | Some (p, s, i) when p <> policy ->
      Hashtbl.remove a case;
      if s = short && i = instructions then None
      else
        Some (Printf.sprintf "%s: %s gave %s/%d, %s %s/%d" tag p s i policy short instructions)
    | _ ->
      Hashtbl.replace a case (policy, short, instructions);
      None)
  | _ -> None

(* --- local reference runs --- *)

(* Every pooled job run once on the calling domain, each distinct image
   prepared once, keyed like the campaign engine's image cache. *)
let references p =
  let images = Hashtbl.create 16 in
  Array.map
    (fun (j : Job.t) ->
      let key = Job.image_key j in
      let image =
        match Hashtbl.find_opt images key with
        | Some i -> i
        | None ->
          let i = Sim.prepare ~config:j.Job.config (Job.program j) in
          Hashtbl.replace images key i;
          i
      in
      reference_of (Sim.run_template_arena ~config:j.Job.config image))
    p.jobs
