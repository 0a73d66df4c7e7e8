(* The security-coverage matrix (section 5.1): every attack under all
   three protection policies, plus benign-traffic false-positive
   checks. *)

open Ptaint_attacks

let pt = Ptaint_cpu.Policy.default
let co = Ptaint_cpu.Policy.control_only
let np = Ptaint_cpu.Policy.unprotected

(* Catalogue entries that only [Catalog.all] lists. *)
let scenario name = List.find (fun s -> s.Scenario.name = name) Catalog.all
let exp1_ret2libc = scenario "exp1 return-to-libc"
let exp4_fnptr = scenario "exp4 function-pointer overwrite"
let env_login = scenario "login $HOME overflow (environment source)"
let logd_config = scenario "logd poisoned config (file source)"

let show (v, (r : Ptaint_sim.Sim.result)) =
  Format.asprintf "%a [stdout: %s] [outcome: %a]" Scenario.pp_verdict v
    (String.escaped (String.sub r.Ptaint_sim.Sim.stdout 0
                       (min 120 (String.length r.Ptaint_sim.Sim.stdout))))
    Ptaint_sim.Sim.pp_outcome r.Ptaint_sim.Sim.outcome

let expect_detected ?kind ?value name scenario policy =
  let v, r = Scenario.run ~policy scenario in
  match v with
  | Scenario.Detected a ->
    (match kind with
     | Some k ->
       if k <> a.Ptaint_cpu.Machine.kind then
         Alcotest.failf "%s: detector kind: %a" name Ptaint_cpu.Machine.pp_alert a
     | None -> ());
    (match value with
     | Some expected ->
       Alcotest.(check int)
         (name ^ ": tainted pointer value")
         expected
         (Ptaint_taint.Tword.value a.Ptaint_cpu.Machine.reg_value)
     | None -> ())
  | _ -> Alcotest.failf "%s: expected detection, got %s" name (show (v, r))

let expect_compromised name scenario policy =
  let v, r = Scenario.run ~policy scenario in
  match v with
  | Scenario.Compromised _ -> ()
  | _ -> Alcotest.failf "%s: expected compromise, got %s" name (show (v, r))

let expect_crashed name scenario policy =
  let v, r = Scenario.run ~policy scenario in
  match v with
  | Scenario.Crashed _ -> ()
  | _ -> Alcotest.failf "%s: expected crash, got %s" name (show (v, r))

let expect_benign_survives name scenario =
  List.iter
    (fun (pname, policy) ->
      let v, r = Scenario.run_benign ~policy scenario in
      match v with
      | Scenario.Survived -> ()
      | _ -> Alcotest.failf "%s (benign, %s): %s" name pname (show (v, r)))
    Scenario.coverage_policies

(* --- synthetic --- *)

let test_exp1 () =
  expect_detected "exp1/pt" ~kind:Ptaint_cpu.Machine.Jump_target ~value:0x61616161
    Catalog.exp1_stack_smash pt;
  expect_detected "exp1/co" ~kind:Ptaint_cpu.Machine.Jump_target Catalog.exp1_stack_smash co;
  expect_crashed "exp1/none" Catalog.exp1_stack_smash np

let test_exp1_ret2libc () =
  expect_detected "ret2libc/pt" ~kind:Ptaint_cpu.Machine.Jump_target exp1_ret2libc pt;
  expect_detected "ret2libc/co" ~kind:Ptaint_cpu.Machine.Jump_target exp1_ret2libc co;
  expect_compromised "ret2libc/none" exp1_ret2libc np

let test_exp2 () =
  (* the alert fires at unlink's FD->bk store: the base register holds
     FD + 8 = 0x61616161 + 8 *)
  expect_detected "exp2/pt" ~value:0x61616169 Catalog.exp2_heap pt;
  expect_crashed "exp2/co" Catalog.exp2_heap co;
  expect_crashed "exp2/none" Catalog.exp2_heap np

let test_exp3 () =
  expect_detected "exp3/pt" ~kind:Ptaint_cpu.Machine.Store_address ~value:0x64636261
    Catalog.exp3_format pt;
  expect_crashed "exp3/co" Catalog.exp3_format co;
  expect_crashed "exp3/none" Catalog.exp3_format np

let test_exp4 () =
  expect_detected "exp4/pt" ~kind:Ptaint_cpu.Machine.Jump_target exp4_fnptr pt;
  expect_detected "exp4/co" ~kind:Ptaint_cpu.Machine.Jump_target exp4_fnptr co;
  expect_compromised "exp4/none" exp4_fnptr np

(* --- real-world, the paper's headline: non-control-data attacks are
   invisible to control-data protection but caught by pointer
   taintedness --- *)

let test_wuftpd () =
  let program = Catalog.wuftpd_format_uid.Scenario.build () in
  let uid_addr = Ptaint_asm.Program.symbol_exn program Ptaint_apps.Wuftpd.uid_symbol in
  expect_detected "wuftpd/pt" ~kind:Ptaint_cpu.Machine.Store_address ~value:uid_addr
    Catalog.wuftpd_format_uid pt;
  expect_compromised "wuftpd/co" Catalog.wuftpd_format_uid co;
  expect_compromised "wuftpd/none" Catalog.wuftpd_format_uid np

let test_nullhttpd () =
  expect_detected "nullhttpd/pt" ~kind:Ptaint_cpu.Machine.Store_address
    Catalog.nullhttpd_cgi_root pt;
  expect_compromised "nullhttpd/co" Catalog.nullhttpd_cgi_root co;
  expect_compromised "nullhttpd/none" Catalog.nullhttpd_cgi_root np

let test_ghttpd () =
  expect_detected "ghttpd/pt" ~kind:Ptaint_cpu.Machine.Load_address
    Catalog.ghttpd_url_pointer pt;
  expect_compromised "ghttpd/co" Catalog.ghttpd_url_pointer co;
  expect_compromised "ghttpd/none" Catalog.ghttpd_url_pointer np

let test_traceroute () =
  expect_detected "traceroute/pt" Catalog.traceroute_double_free pt;
  expect_crashed "traceroute/co" Catalog.traceroute_double_free co;
  expect_crashed "traceroute/none" Catalog.traceroute_double_free np

(* --- remaining taint sources: environment and files --- *)

let test_env_login () =
  expect_detected "login/pt" ~kind:Ptaint_cpu.Machine.Jump_target env_login pt;
  expect_detected "login/co" ~kind:Ptaint_cpu.Machine.Jump_target env_login co;
  expect_compromised "login/none" env_login np

let test_logd_config () =
  expect_detected "logd/pt" ~kind:Ptaint_cpu.Machine.Store_address ~value:0x41414141
    logd_config pt;
  expect_crashed "logd/co" logd_config co;
  expect_crashed "logd/none" logd_config np;
  (* trusting the file system (sources policy) blinds the detector *)
  let program = logd_config.Scenario.build () in
  let config = Scenario.attack_config logd_config program in
  let config =
    { config with
      Ptaint_sim.Sim.sources = { Ptaint_os.Sources.all with Ptaint_os.Sources.file = false } }
  in
  let r = Ptaint_sim.Sim.run ~config program in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Alert _ -> Alcotest.fail "trusted file input should not alert"
  | _ -> ()

(* --- false positives: benign traffic must survive every policy --- *)

let test_benign () =
  List.iter
    (fun s -> expect_benign_survives s.Scenario.name s)
    Catalog.all

(* --- payload builder unit tests --- *)

let test_le_word () =
  Alcotest.(check string) "le" "\x20\xbc\x02\x10" (Payload.le_word 0x1002bc20)

let test_normalize () =
  Alcotest.(check string) "dotdot" "/bin/sh"
    (Payload.normalize_path "/usr/local/ghttpd/cgi-bin/../../../../bin/sh");
  Alcotest.(check string) "plain" "/usr/bin/x" (Payload.normalize_path "/usr/bin/x");
  Alcotest.(check string) "root escape clamps" "/etc" (Payload.normalize_path "/../../etc")

let test_fake_chunk () =
  let s = Payload.fake_chunk ~size:0x40 ~fd:0x61616161 ~bk:0x62626262 in
  Alcotest.(check int) "length" 12 (String.length s);
  Alcotest.(check char) "size byte" '\x40' s.[0];
  Alcotest.(check char) "fd byte" 'a' s.[4]

let test_format_write_shape () =
  let p = Payload.format_write_word ~ap_skip_words:0 ~target:0x10001000 ~value:0 in
  (* must contain four %hhn and the four target addresses at the end *)
  let count_sub sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length p then acc
      else go (i + 1) (if String.sub p i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "four %hhn" 4 (count_sub "%hhn");
  let tail = String.sub p (String.length p - 32) 32 in
  List.iter
    (fun i ->
      Alcotest.(check string) (Printf.sprintf "addr %d" i)
        (Payload.le_word (0x10001000 + i)) (String.sub tail ((8 * i) + 4) 4))
    [ 0; 1; 2; 3 ]

let () =
  Alcotest.run "attacks"
    [ ( "payloads",
        [ Alcotest.test_case "le_word" `Quick test_le_word;
          Alcotest.test_case "normalize_path" `Quick test_normalize;
          Alcotest.test_case "fake chunk" `Quick test_fake_chunk;
          Alcotest.test_case "format write shape" `Quick test_format_write_shape ] );
      ( "synthetic",
        [ Alcotest.test_case "exp1 stack smash" `Quick test_exp1;
          Alcotest.test_case "exp1 ret2libc" `Quick test_exp1_ret2libc;
          Alcotest.test_case "exp2 heap" `Quick test_exp2;
          Alcotest.test_case "exp3 format" `Quick test_exp3;
          Alcotest.test_case "exp4 fnptr" `Quick test_exp4 ] );
      ( "real world",
        [ Alcotest.test_case "wuftpd" `Quick test_wuftpd;
          Alcotest.test_case "nullhttpd" `Quick test_nullhttpd;
          Alcotest.test_case "ghttpd" `Quick test_ghttpd;
          Alcotest.test_case "traceroute" `Quick test_traceroute ] );
      ( "other sources",
        [ Alcotest.test_case "env: login $HOME" `Quick test_env_login;
          Alcotest.test_case "file: logd config" `Quick test_logd_config ] );
      ("false positives", [ Alcotest.test_case "benign traffic" `Quick test_benign ]) ]
