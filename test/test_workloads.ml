(* Table 3: the six SPEC-like workloads must run to a verified clean
   exit with every input byte tainted and zero alerts — and the
   ablation must show why. *)

open Ptaint_workloads

let expect_clean name (row : Workload.row) =
  (match row.Workload.outcome with
   | Ptaint_sim.Sim.Exited 0 -> ()
   | o ->
     Alcotest.failf "%s: expected clean exit, got %a (stdout: %s)" name
       Ptaint_sim.Sim.pp_outcome o (String.escaped row.Workload.stdout));
  Alcotest.(check int) (name ^ ": alerts") 0 row.Workload.alerts;
  Alcotest.(check bool) (name ^ ": consumed input") true (row.Workload.input_bytes > 0);
  Alcotest.(check bool) (name ^ ": executed work") true (row.Workload.instructions > 100_000)

let self_check name (row : Workload.row) needle =
  let rec has i =
    i + String.length needle <= String.length row.Workload.stdout
    && (String.sub row.Workload.stdout i (String.length needle) = needle || has (i + 1))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: stdout contains %S (got %S)" name needle row.Workload.stdout)
    true (has 0)

let test_workload w needle () =
  let row = Workload.run w in
  expect_clean w.Workload.name row;
  self_check w.Workload.name row needle

let test_deterministic () =
  let a = Workload.run Workload.parser in
  let b = Workload.run Workload.parser in
  Alcotest.(check string) "same stdout" a.Workload.stdout b.Workload.stdout;
  Alcotest.(check int) "same instruction count" a.Workload.instructions b.Workload.instructions

let test_ablation_compare_rule () =
  (* Without the compare-untaint rule most workloads false-positive:
     validated sizes/indices stay tainted and reach addresses. *)
  let policy = { Ptaint_cpu.Policy.default with Ptaint_cpu.Policy.compare_untaints = false } in
  let fps =
    List.length
      (List.filter
         (fun w -> (Workload.run ~policy w).Workload.alerts > 0)
         Workload.all)
  in
  Alcotest.(check bool)
    (Printf.sprintf "several false positives without rule 4 (got %d)" fps)
    true (fps >= 3)

let test_sources_policy () =
  (* With input channels marked trusted there is no taint at all, so
     even the rule-4-less configuration is silent. *)
  let w = Workload.gcc in
  let p = Workload.program w in
  let policy = { Ptaint_cpu.Policy.default with Ptaint_cpu.Policy.compare_untaints = false } in
  let config =
    { Ptaint_sim.Sim.default_config with
      Ptaint_sim.Sim.policy;
      sources = Ptaint_os.Sources.none;
      stdin = w.Workload.input () }
  in
  let r = Ptaint_sim.Sim.run ~config p in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited 0 -> ()
  | o -> Alcotest.failf "expected clean run, got %a" Ptaint_sim.Sim.pp_outcome o

let () =
  Alcotest.run "workloads"
    [ ( "table 3",
        [ Alcotest.test_case "BZIP2" `Quick (test_workload Workload.bzip2 "verify OK");
          Alcotest.test_case "GCC" `Quick (test_workload Workload.gcc "statements");
          Alcotest.test_case "GZIP" `Quick (test_workload Workload.gzip "verify OK");
          Alcotest.test_case "MCF" `Quick (test_workload Workload.mcf "reachable");
          Alcotest.test_case "PARSER" `Quick (test_workload Workload.parser "words");
          Alcotest.test_case "VPR" `Quick (test_workload Workload.vpr "wirelength") ] );
      ( "properties",
        [ Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "rule-4 ablation shows FPs" `Quick test_ablation_compare_rule;
          Alcotest.test_case "trusted sources are silent" `Quick test_sources_policy ] ) ]
