(* Post-mortem diagnostics: symbolization and frame-chain backtraces
   recovered from the guest at detection time. *)

open Ptaint_attacks

let contains haystack needle =
  let rec go i =
    i + String.length needle <= String.length haystack
    && (String.sub haystack i (String.length needle) = needle || go (i + 1))
  in
  go 0

let test_symbolize () =
  let p =
    Ptaint_asm.Assembler.assemble_exn
      ".text\nmain:   nop\n        nop\nhelper: nop\n        jr $ra\n"
  in
  Alcotest.(check string) "exact" "main" (Ptaint_sim.Diagnostics.symbolize p 0x400000);
  Alcotest.(check string) "offset" "main+0x4" (Ptaint_sim.Diagnostics.symbolize p 0x400004);
  Alcotest.(check string) "second symbol" "helper" (Ptaint_sim.Diagnostics.symbolize p 0x400008);
  Alcotest.(check string) "outside text" "0x10000000"
    (Ptaint_sim.Diagnostics.symbolize p 0x10000000);
  Alcotest.(check string) "nearest below" "helper+0x4" (Ptaint_sim.Diagnostics.symbolize p 0x40000c)

let test_backtrace_format_attack () =
  let _, result = Scenario.run Catalog.exp3_format in
  let p = result.Ptaint_sim.Sim.image.Ptaint_asm.Loader.program in
  let frames = Ptaint_sim.Diagnostics.backtrace p result.Ptaint_sim.Sim.machine in
  let locations = List.map (fun f -> f.Ptaint_sim.Diagnostics.location) frames in
  let has name = List.exists (fun l -> contains l name) locations in
  Alcotest.(check bool) (Printf.sprintf "vformat in %s" (String.concat "," locations)) true
    (has "vformat");
  Alcotest.(check bool) "printf frame" true (has "printf");
  Alcotest.(check bool) "exp3 frame" true (has "exp3");
  Alcotest.(check bool) "main frame" true (has "main");
  (* innermost first *)
  match locations with
  | first :: _ -> Alcotest.(check bool) "vformat innermost" true (contains first "vformat")
  | [] -> Alcotest.fail "empty backtrace"

let test_report_contents () =
  let _, result = Scenario.run Catalog.wuftpd_format_uid in
  let report = Ptaint_sim.Diagnostics.report result in
  Alcotest.(check bool) "alert line" true (contains report "security alert");
  Alcotest.(check bool) "backtrace section" true (contains report "guest backtrace:");
  Alcotest.(check bool) "handler frame" true (contains report "do_site_exec");
  Alcotest.(check bool) "session loop frame" true (contains report "handle_session");
  Alcotest.(check bool) "tainted registers listed" true (contains report "tainted registers:")

let test_tainted_registers () =
  let _, result = Scenario.run Catalog.exp1_stack_smash in
  let tainted = Ptaint_sim.Diagnostics.tainted_registers result.Ptaint_sim.Sim.machine in
  Alcotest.(check bool) "ra tainted" true
    (List.exists
       (fun (name, w) -> name = "ra" && Ptaint_taint.Tword.value w = 0x61616161)
       tainted)

let test_tainted_hi_lo () =
  (* MULT with one tainted operand taints HI and LO; both slots must
     show up in the diagnostics, which once stopped at the 32 GPRs. *)
  let open Ptaint_isa in
  let mem = Ptaint_mem.Memory.create () in
  let machine =
    Ptaint_cpu.Machine.create
      ~code:{ Ptaint_cpu.Machine.base = Ptaint_mem.Layout.text_base;
              insns = [| Insn.Muldiv (MULT, 2, 3) |] }
      ~mem ~entry:Ptaint_mem.Layout.text_base ()
  in
  Ptaint_cpu.Regfile.set machine.Ptaint_cpu.Machine.regs 2
    (Ptaint_taint.Tword.tainted 0x10001);
  Ptaint_cpu.Regfile.set machine.Ptaint_cpu.Machine.regs 3
    (Ptaint_taint.Tword.untainted 7);
  (match Ptaint_cpu.Machine.step machine with
   | Ptaint_cpu.Machine.Normal -> ()
   | _ -> Alcotest.fail "mult step");
  let names = List.map fst (Ptaint_sim.Diagnostics.tainted_registers machine) in
  Alcotest.(check bool) "hi listed" true (List.mem "hi" names);
  Alcotest.(check bool) "lo listed" true (List.mem "lo" names)

let test_provenance_report () =
  (* the GHTTPD attack arrives over the network: the report must name
     the introducing syscall and show the instruction window *)
  let _, result = Scenario.run Catalog.ghttpd_url_pointer in
  let report = Ptaint_sim.Diagnostics.report result in
  Alcotest.(check bool) "provenance section" true (contains report "taint provenance:");
  Alcotest.(check bool) "network source" true (contains report "recv(network)");
  Alcotest.(check bool) "instruction window" true
    (contains report "instructions before detection:");
  (* stdin-fed attack names read(stdin) *)
  let _, result = Scenario.run Catalog.exp1_stack_smash in
  let report = Ptaint_sim.Diagnostics.report result in
  Alcotest.(check bool) "stdin source" true (contains report "read(stdin)")

(* 70,000 zero-length writes fill the 65,536-event recorder before the
   tainted read and the alert: the report must say that events were
   dropped, and a run under the limit must not. *)
let test_report_notes_dropped_events () =
  let source n =
    Printf.sprintf
      {|int main(void) {
  char buf[8];
  int i;
  for (i = 0; i < %d; i = i + 1) write(1, buf, 0);
  read(0, buf, 4);
  int *p = *(int **)buf;
  return *p;
}|}
      n
  in
  let report n =
    let program = Ptaint_runtime.Runtime.compile (source n) in
    let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = "aaaa"; obs = true } in
    let result = Ptaint_sim.Sim.run ~config program in
    (match result.Ptaint_sim.Sim.outcome with
     | Ptaint_sim.Sim.Alert _ -> ()
     | _ -> Alcotest.fail "expected the tainted-pointer alert");
    Ptaint_sim.Diagnostics.report result
  in
  let full = report 70_000 in
  Alcotest.(check bool) ("dropped events reported:\n" ^ full) true
    (contains full "later events dropped after the first 65536");
  Alcotest.(check bool) "no drop line under the limit" false
    (contains (report 10) "events dropped")

let test_insn_window_ends_at_alert () =
  let _, result = Scenario.run Catalog.exp1_stack_smash in
  (match result.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Alert a ->
     (match List.rev (Ptaint_sim.Sim.insn_window result) with
      | (pc, _) :: _ ->
        Alcotest.(check int) "window ends at the alerting pc"
          a.Ptaint_cpu.Machine.alert_pc pc
      | [] -> Alcotest.fail "empty instruction window")
   | _ -> Alcotest.fail "expected an alert")

let test_backtrace_survives_smashed_frame () =
  (* after exp1's overflow the frame chain is corrupt; the walk must
     stop cleanly rather than loop or crash *)
  let _, result = Scenario.run Catalog.exp1_stack_smash in
  let p = result.Ptaint_sim.Sim.image.Ptaint_asm.Loader.program in
  let frames = Ptaint_sim.Diagnostics.backtrace p result.Ptaint_sim.Sim.machine in
  Alcotest.(check bool) "bounded" true (List.length frames <= 32 && List.length frames >= 1)

(* A word read needs an aligned address, so the walk must stop at a
   corrupt odd $fp instead of reading the word that holds it: here that
   word starts the real frame, which the walk would otherwise show. *)
let test_backtrace_odd_fp () =
  let _, result = Scenario.run Catalog.exp3_format in
  let p = result.Ptaint_sim.Sim.image.Ptaint_asm.Loader.program in
  let m = result.Ptaint_sim.Sim.machine in
  let whole = Ptaint_sim.Diagnostics.backtrace p m in
  Alcotest.(check bool) "a chain to corrupt" true (List.length whole >= 2);
  let regs = m.Ptaint_cpu.Machine.regs and fp = Ptaint_isa.Reg.fp in
  let saved = Ptaint_cpu.Regfile.get regs fp in
  Ptaint_cpu.Regfile.set regs fp
    (Ptaint_taint.Tword.untainted (Ptaint_taint.Tword.value saved + 1));
  let frames = Ptaint_sim.Diagnostics.backtrace p m in
  Ptaint_cpu.Regfile.set regs fp saved;
  Alcotest.(check (list int)) "only the pc frame" [ m.Ptaint_cpu.Machine.pc ]
    (List.map (fun f -> f.Ptaint_sim.Diagnostics.pc) frames)

(* The report walks guest memory, but an inspection read is not a
   guest access: the run's load/store counts must not move. *)
let test_report_leaves_stats () =
  let _, result = Scenario.run Catalog.exp3_format in
  (match result.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Alert _ -> ()
   | _ -> Alcotest.fail "expected the exp3 alert");
  let st = Ptaint_mem.Memory.stats result.Ptaint_sim.Sim.machine.Ptaint_cpu.Machine.mem in
  let counts () =
    Ptaint_mem.Memory.
      [ st.loads; st.stores; st.tainted_loads; st.tainted_stores; st.mapped_bytes ]
  in
  let before = counts () in
  ignore (Ptaint_sim.Diagnostics.report result);
  Alcotest.(check (list int)) "stats unchanged" before (counts ())

let () =
  Alcotest.run "diagnostics"
    [ ( "symbolize",
        [ Alcotest.test_case "nearest symbol" `Quick test_symbolize ] );
      ( "backtrace",
        [ Alcotest.test_case "format attack chain" `Quick test_backtrace_format_attack;
          Alcotest.test_case "incident report" `Quick test_report_contents;
          Alcotest.test_case "tainted registers" `Quick test_tainted_registers;
          Alcotest.test_case "tainted hi/lo" `Quick test_tainted_hi_lo;
          Alcotest.test_case "corrupt frame chain" `Quick test_backtrace_survives_smashed_frame;
          Alcotest.test_case "odd frame pointer" `Quick test_backtrace_odd_fp;
          Alcotest.test_case "report leaves memory stats" `Quick test_report_leaves_stats ] );
      ( "observability",
        [ Alcotest.test_case "provenance in report" `Quick test_provenance_report;
          Alcotest.test_case "window ends at alert" `Quick test_insn_window_ends_at_alert;
          Alcotest.test_case "dropped events reported" `Quick test_report_notes_dropped_events ] ) ]
