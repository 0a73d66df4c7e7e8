(* Table 4: the documented false-negative scenarios — attacks that
   succeed WITHOUT raising an alert — and the contrast cases where
   detection resumes. *)

open Ptaint_attacks

let run ?(policy = Ptaint_cpu.Policy.default) ?(stdin = "") ?(sessions = []) source =
  let program = Ptaint_runtime.Runtime.compile source in
  let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.policy; stdin; sessions } in
  Ptaint_sim.Sim.run ~config program

let contains haystack needle =
  let rec go i =
    i + String.length needle <= String.length haystack
    && (String.sub haystack i (String.length needle) = needle || go (i + 1))
  in
  go 0

let expect_exit name (r : Ptaint_sim.Sim.result) =
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited _ -> ()
  | o -> Alcotest.failf "%s: expected clean-looking exit, got %a" name Ptaint_sim.Sim.pp_outcome o

(* (A) integer overflow *)

let test_integer_overflow_fn () =
  let r =
    run Ptaint_apps.Synthetic.fn_integer_overflow
      ~stdin:(Payload.le_word (Ptaint_isa.Word.of_signed (-1)))
  in
  expect_exit "A" r;
  Alcotest.(check bool) "index accepted" true (contains r.Ptaint_sim.Sim.stdout "index stored");
  Alcotest.(check bool) "admin corrupted, undetected" true
    (contains r.Ptaint_sim.Sim.stdout "ADMIN MODE ENABLED")

let test_integer_overflow_benign () =
  let r = run Ptaint_apps.Synthetic.fn_integer_overflow ~stdin:(Payload.le_word 5) in
  expect_exit "A benign" r;
  Alcotest.(check bool) "no admin" false (contains r.Ptaint_sim.Sim.stdout "ADMIN MODE");
  let r = run Ptaint_apps.Synthetic.fn_integer_overflow ~stdin:(Payload.le_word 200) in
  Alcotest.(check bool) "large index rejected" true
    (contains r.Ptaint_sim.Sim.stdout "index rejected")

let test_integer_overflow_detected_without_rule4 () =
  (* The FN exists *because* of the compare-untaint rule: disabling it
     turns the same attack into a detection. *)
  let policy = { Ptaint_cpu.Policy.default with Ptaint_cpu.Policy.compare_untaints = false } in
  let r =
    run ~policy Ptaint_apps.Synthetic.fn_integer_overflow
      ~stdin:(Payload.le_word (Ptaint_isa.Word.of_signed (-1)))
  in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Alert _ -> ()
  | o -> Alcotest.failf "expected alert without rule 4, got %a" Ptaint_sim.Sim.pp_outcome o

(* (B) auth flag *)

let test_auth_flag_fn () =
  let r = run Ptaint_apps.Synthetic.fn_auth_flag ~stdin:(Payload.fill 16 ^ "\x01\n") in
  expect_exit "B" r;
  Alcotest.(check bool) "access granted without password" true
    (contains r.Ptaint_sim.Sim.stdout "ACCESS GRANTED")

let test_auth_flag_guarded_detects () =
  (* the section 5.3 annotation extension converts the FN into a
     detection *)
  let r = run Ptaint_apps.Synthetic.fn_auth_flag_guarded ~stdin:(Payload.fill 16 ^ "\x01\n") in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Alert a ->
    Alcotest.(check bool) "guard detector" true
      (a.Ptaint_cpu.Machine.kind = Ptaint_cpu.Machine.Guarded_store)
  | o -> Alcotest.failf "expected guarded-store alert, got %a" Ptaint_sim.Sim.pp_outcome o

let test_auth_flag_guarded_benign () =
  let r = run Ptaint_apps.Synthetic.fn_auth_flag_guarded ~stdin:"secret\n" in
  expect_exit "B guarded benign" r;
  Alcotest.(check bool) "honest login still works" true
    (contains r.Ptaint_sim.Sim.stdout "ACCESS GRANTED");
  let r = run Ptaint_apps.Synthetic.fn_auth_flag_guarded ~stdin:"nope\n" in
  Alcotest.(check bool) "wrong password denied" true
    (contains r.Ptaint_sim.Sim.stdout "ACCESS DENIED")

let test_auth_flag_normal () =
  let r = run Ptaint_apps.Synthetic.fn_auth_flag ~stdin:"secret\n" in
  Alcotest.(check bool) "correct password works" true
    (contains r.Ptaint_sim.Sim.stdout "ACCESS GRANTED");
  let r = run Ptaint_apps.Synthetic.fn_auth_flag ~stdin:"wrong\n" in
  Alcotest.(check bool) "wrong password denied" true
    (contains r.Ptaint_sim.Sim.stdout "ACCESS DENIED")

(* (C) info leak *)

let test_info_leak_fn () =
  let r = run Ptaint_apps.Synthetic.fn_info_leak ~sessions:[ [ "%x%x%x%x" ] ] in
  expect_exit "C" r;
  let leaked = List.exists (fun m -> contains m "12345678") r.Ptaint_sim.Sim.net_sent in
  Alcotest.(check bool) "secret leaked without alert" true leaked

let test_info_leak_write_detected () =
  let r = run Ptaint_apps.Synthetic.fn_info_leak ~sessions:[ [ "abcd%x%x%x%n" ] ] in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Alert a ->
    Alcotest.(check bool) "store detector" true
      (a.Ptaint_cpu.Machine.kind = Ptaint_cpu.Machine.Store_address)
  | o -> Alcotest.failf "expected alert on %%n, got %a" Ptaint_sim.Sim.pp_outcome o

let test_info_leak_benign () =
  let r = run Ptaint_apps.Synthetic.fn_info_leak ~sessions:[ [ "just a greeting" ] ] in
  expect_exit "C benign" r

let () =
  Alcotest.run "false negatives (Table 4)"
    [ ( "A: integer overflow",
        [ Alcotest.test_case "attack missed (FN)" `Quick test_integer_overflow_fn;
          Alcotest.test_case "benign indexing" `Quick test_integer_overflow_benign;
          Alcotest.test_case "detected without rule 4" `Quick
            test_integer_overflow_detected_without_rule4 ] );
      ( "B: auth flag",
        [ Alcotest.test_case "attack missed (FN)" `Quick test_auth_flag_fn;
          Alcotest.test_case "normal auth" `Quick test_auth_flag_normal;
          Alcotest.test_case "5.3 guard converts FN to detection" `Quick
            test_auth_flag_guarded_detects;
          Alcotest.test_case "guard silent on honest login" `Quick
            test_auth_flag_guarded_benign ] );
      ( "C: info leak",
        [ Alcotest.test_case "leak missed (FN)" `Quick test_info_leak_fn;
          Alcotest.test_case "%n write detected" `Quick test_info_leak_write_detected;
          Alcotest.test_case "benign client" `Quick test_info_leak_benign ] ) ]
