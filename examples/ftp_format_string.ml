(* The Table 2 attack, end to end: a WU-FTPD-style server with the
   SITE EXEC format-string bug, attacked over the scripted network to
   overwrite the logged-in user's uid word — a non-control-data
   attack.  We build the exploit payload the way a real attacker
   would, then run the session under each protection policy.

   Run with: dune exec examples/ftp_format_string.exe *)

open Ptaint_attacks

let () =
  let program = Ptaint_runtime.Runtime.compile Ptaint_apps.Wuftpd.source in
  let uid_addr = Ptaint_asm.Program.symbol_exn program Ptaint_apps.Wuftpd.uid_symbol in
  Format.printf "Target: the session uid word at 0x%08x (the paper's 0x1002bc20).@." uid_addr;
  let payload = Payload.format_write_word ~ap_skip_words:0 ~target:uid_addr ~value:0 in
  Format.printf "Payload (%d bytes): width-steered %%x directives, four %%hhn writes,@."
    (String.length payload);
  Format.printf "and the four target addresses planted after the format text:@.  %S@.@."
    (String.sub payload 0 (min 80 (String.length payload)) ^ "...");
  let session =
    Ptaint_apps.Wuftpd.login_session
    @ [ Ptaint_apps.Wuftpd.site_exec payload; Ptaint_apps.Wuftpd.stor_passwd; "quit\n" ]
  in
  let run policy label =
    let config =
      { Ptaint_sim.Sim.default_config with
        Ptaint_sim.Sim.policy;
        sessions = [ session ];
        fs_init = [ (Ptaint_apps.Wuftpd.passwd_path, "root:x:0:0:root:/root:/bin/bash\n") ] }
    in
    let r = Ptaint_sim.Sim.run ~config program in
    Format.printf "--- %s ---@." label;
    (match r.Ptaint_sim.Sim.outcome with
     | Ptaint_sim.Sim.Alert a ->
       Format.printf "ALERT: %a@." Ptaint_cpu.Machine.pp_alert a;
       Format.printf "The server is stopped before the uid word is written.@."
     | o -> Format.printf "no alert; run ended with: %a@." Ptaint_sim.Sim.pp_outcome o);
    (match
       Ptaint_os.Fs.read (Ptaint_os.Kernel.fs r.Ptaint_sim.Sim.kernel)
         ~path:Ptaint_apps.Wuftpd.passwd_path
     with
     | Some contents -> Format.printf "/etc/passwd: %s@.@." (String.trim contents)
     | None -> Format.printf "/etc/passwd: missing@.@.")
  in
  run Ptaint_cpu.Policy.unprotected "no protection (the attack succeeds)";
  run Ptaint_cpu.Policy.control_only "control-data-only protection (Minos-style: blind to it)";
  run Ptaint_cpu.Policy.default "pointer taintedness (the paper's architecture)"
