(* Arena boots through ptaintd, shared by the in-process and the
   isolated daemon tests.  Daemon workers boot every job through their
   arena, rewinding one recycled memory from image to image.  Jobs over
   three images in interleaved order, one of them a Mini-C guest whose
   mallocs map heap pages beyond its snapshot, must produce the same
   terminal events as a local [Campaign.run_stream] of the same jobs,
   and the same full results (exit code and stdout included) as a
   fresh-boot [Campaign.run_job] of each. *)

module Proto = Ptaint_daemon.Proto
module Client = Ptaint_daemon.Client
module Campaign = Ptaint_campaign.Campaign

let exit_asm = ".text\nmain: li $v0, 1\n li $a0, 0\n syscall\n"

let heap_c =
  {|int main(void) {
  char buf[8];
  int n = read(0, buf, 8);
  int total = n;
  int i;
  for (i = 0; i < 3; i = i + 1) {
    char *p = malloc(6000);
    p[0] = buf[i];
    p[5999] = 'z';
    total = total + p[0] + p[5999];
  }
  printf("total %d\n", total);
  return total - 1000;
}|}

let deref_c =
  {|int main(void) {
  char buf[8];
  read(0, buf, 4);
  int *p = *(int **)buf;
  return *p;
}|}

(* Runs of one image and switches between images, so every reset
   path is taken. *)
let specs =
  let exit tag = Proto.job_spec ~tag (Proto.Wire_asm exit_asm) in
  let heap i stdin =
    Proto.job_spec ~tag:(Printf.sprintf "heap-%d" i) ~stdin (Proto.Wire_c heap_c)
  in
  let deref i policy stdin =
    Proto.job_spec ~tag:(Printf.sprintf "deref-%d" i) ~policy ~stdin (Proto.Wire_c deref_c)
  in
  [ heap 0 "abcdefgh"; exit "exit-0"; deref 0 "full" "aaaa"; deref 1 "none" "aaaa";
    heap 1 "ABCDEFGH"; heap 2 "zzzzzzzz"; exit "exit-1"; deref 2 "full" "\x00\x10\x00\x10";
    heap 3 ""; exit "exit-2"; heap 4 "01234567"; deref 3 "control-only" "aaaa" ]

(* Submit [specs] over a fresh connection to the daemon at [path] and
   return the terminal events in submission order. *)
let submit path =
  let c = Client.connect ~client:"arena" path in
  let events =
    List.map
      (function
        | Client.Done ev -> ev
        | Client.Refused reason -> Alcotest.fail ("refused: " ^ reason))
      (Client.run_batch c specs)
  in
  Client.close c;
  events

let check events =
  let jobs =
    List.map
      (fun spec ->
        match Proto.job_of_spec spec with
        | Ok job -> job
        | Error m -> Alcotest.fail ("job_of_spec: " ^ m))
      specs
  in
  let summaries = ref [] in
  ignore
    (Campaign.run_stream ~domains:1
       ~on_result:(fun s -> summaries := s :: !summaries)
       (List.to_seq jobs));
  Alcotest.(check int) "one event per job" (List.length jobs) (List.length events);
  List.iteri
    (fun i ((job, ev), (s : Campaign.job_summary)) ->
      let ctx what = Printf.sprintf "%s #%d: %s" job.Ptaint_campaign.Job.tag i what in
      let tag, label, counters =
        match ev with
        | Proto.Finished f -> (f.tag, f.policy_label, f.counters)
        | Proto.Job_failed f -> (f.tag, f.policy_label, f.counters)
        | Proto.Started _ -> Alcotest.fail (ctx "Started is not terminal")
      in
      Alcotest.(check string) (ctx "tag") s.s_name tag;
      Alcotest.(check string) (ctx "policy label") s.s_label label;
      Alcotest.(check string) (ctx "outcome") s.s_outcome
        (Ptaint_daemon.Worker.outcome_of_event ev);
      Alcotest.(check (list (pair string int))) (ctx "counters") s.s_counters counters;
      match ev with
      | Proto.Finished f ->
        Alcotest.(check int) (ctx "instructions") s.s_instructions f.instructions;
        Alcotest.(check int) (ctx "syscalls") s.s_syscalls f.syscalls;
        (* the fresh-boot reference: [run_template] on a cold image,
           no arena, so a reset bug on the daemon side cannot hide *)
        let r = fst (Campaign.run_job ~keep:true (Campaign.Images.create ~capacity:1) job) in
        Alcotest.(check (list (pair string int))) (ctx "fresh counters")
          (Campaign.job_counters r) f.counters;
        (match r.Campaign.status with
         | Campaign.Finished res ->
           let module Sim = Ptaint_sim.Sim in
           Alcotest.(check string) (ctx "fresh outcome")
             (Format.asprintf "%a" Sim.pp_outcome res.Sim.outcome) f.outcome;
           Alcotest.(check int) (ctx "fresh exit code") (Sim.exit_code res.Sim.outcome)
             f.exit_code;
           Alcotest.(check string) (ctx "fresh stdout") res.Sim.stdout f.stdout;
           Alcotest.(check int) (ctx "fresh instructions") res.Sim.instructions f.instructions;
           Alcotest.(check int) (ctx "fresh syscalls") res.Sim.syscalls f.syscalls;
           Alcotest.(check (option int)) (ctx "fresh alert pc")
             (match res.Sim.outcome with
              | Sim.Alert a -> Some a.Ptaint_cpu.Machine.alert_pc
              | _ -> None)
             f.alert_pc
         | Campaign.Failed _ -> Alcotest.fail (ctx "fresh boot failed"))
      | _ -> Alcotest.(check bool) (ctx "failed") true s.s_failed)
    (List.combine (List.combine jobs events) (List.rev !summaries))
