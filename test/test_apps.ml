(* Protocol-level behaviour of the guest applications with benign
   clients: the servers must be *working programs*, not just attack
   targets. *)

let run ?(stdin = "") ?(sessions = []) ?(argv = [ "app" ]) ?(fs_init = []) source =
  let program = Ptaint_runtime.Runtime.compile source in
  let config = { Ptaint_sim.Sim.default_config with
                 Ptaint_sim.Sim.stdin;
                 sessions;
                 argv;
                 fs_init } in
  Ptaint_sim.Sim.run ~config program

let contains haystack needle =
  let rec go i =
    i + String.length needle <= String.length haystack
    && (String.sub haystack i (String.length needle) = needle || go (i + 1))
  in
  go 0

let reply_containing (r : Ptaint_sim.Sim.result) needle =
  List.exists (fun m -> contains m needle) r.Ptaint_sim.Sim.net_sent

let expect_clean name (r : Ptaint_sim.Sim.result) =
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited _ -> ()
  | o -> Alcotest.failf "%s: %a" name Ptaint_sim.Sim.pp_outcome o

(* --- WU-FTPD --- *)

let ftp_session msgs = [ msgs ]

let test_ftp_login_flow () =
  let r =
    run Ptaint_apps.Wuftpd.source
      ~sessions:(ftp_session [ "user user1\n"; "pass xxxxxxx\n"; "quit\n" ])
  in
  expect_clean "ftp" r;
  Alcotest.(check bool) "banner" true (reply_containing r "220 FTP server (Version wu-2.6.0(60)");
  Alcotest.(check bool) "password prompt" true (reply_containing r "331 Password required for user1");
  Alcotest.(check bool) "logged in" true (reply_containing r "230 User user1 logged in");
  Alcotest.(check bool) "goodbye" true (reply_containing r "221 Goodbye")

let test_ftp_bad_password () =
  let r =
    run Ptaint_apps.Wuftpd.source
      ~sessions:(ftp_session [ "user user1\n"; "pass wrong\n"; "quit\n" ])
  in
  expect_clean "ftp" r;
  Alcotest.(check bool) "rejected" true (reply_containing r "530 Login incorrect")

let test_ftp_stor_denied_without_root () =
  let r =
    run Ptaint_apps.Wuftpd.source
      ~fs_init:[ ("/etc/passwd", "root:x:0:0\n") ]
      ~sessions:
        (ftp_session
           [ "user user1\n"; "pass xxxxxxx\n"; "stor /etc/passwd evil\n"; "quit\n" ])
  in
  expect_clean "ftp" r;
  Alcotest.(check bool) "permission denied" true (reply_containing r "550");
  Alcotest.(check (option string)) "file untouched" (Some "root:x:0:0\n")
    (Ptaint_os.Fs.read (Ptaint_os.Kernel.fs r.Ptaint_sim.Sim.kernel) ~path:"/etc/passwd")

let test_ftp_site_exec_requires_login () =
  let r =
    run Ptaint_apps.Wuftpd.source ~sessions:(ftp_session [ "site exec hello\n"; "quit\n" ])
  in
  expect_clean "ftp" r;
  Alcotest.(check bool) "must login first" true (reply_containing r "530 Please login")

let test_ftp_unknown_command () =
  let r =
    run Ptaint_apps.Wuftpd.source ~sessions:(ftp_session [ "frobnicate\n"; "quit\n" ])
  in
  expect_clean "ftp" r;
  Alcotest.(check bool) "500" true (reply_containing r "500 Unknown command")

(* --- NULL HTTPD --- *)

let test_httpd_get_static () =
  let r =
    run Ptaint_apps.Nullhttpd.source ~sessions:[ [ "GET /index.html HTTP/1.0\n" ] ]
  in
  expect_clean "httpd" r;
  Alcotest.(check bool) "200" true (reply_containing r "200 OK")

let test_httpd_get_cgi_uses_configured_root () =
  let r = run Ptaint_apps.Nullhttpd.source ~sessions:[ [ Ptaint_apps.Nullhttpd.get_cgi "status" ] ] in
  expect_clean "httpd" r;
  Alcotest.(check (list string)) "cgi path from config"
    [ "/usr/local/httpd/cgi-bin/status" ]
    r.Ptaint_sim.Sim.execs

let test_httpd_benign_post () =
  let r =
    run Ptaint_apps.Nullhttpd.source
      ~sessions:[ Ptaint_apps.Nullhttpd.post_request ~content_length:11 ~body:"hello world" ]
  in
  expect_clean "httpd" r;
  Alcotest.(check bool) "received" true (reply_containing r "received 11 bytes")

let test_httpd_bad_request () =
  let r = run Ptaint_apps.Nullhttpd.source ~sessions:[ [ "BREW /coffee HTCPCP/1.0\n" ] ] in
  expect_clean "httpd" r;
  Alcotest.(check bool) "400" true (reply_containing r "400 Bad Request")

(* --- GHTTPD --- *)

let test_ghttpd_static () =
  let r = run Ptaint_apps.Ghttpd.source ~sessions:[ [ "GET /page.html\n\n" ] ] in
  expect_clean "ghttpd" r;
  Alcotest.(check bool) "200" true (reply_containing r "200 OK")

let test_ghttpd_policy_blocks_dotdot () =
  let r = run Ptaint_apps.Ghttpd.source ~sessions:[ [ "GET /cgi-bin/../../etc/passwd\n\n" ] ] in
  expect_clean "ghttpd" r;
  Alcotest.(check bool) "403" true (reply_containing r "403 Forbidden");
  Alcotest.(check (list string)) "nothing executed" [] r.Ptaint_sim.Sim.execs

let test_ghttpd_cgi () =
  let r = run Ptaint_apps.Ghttpd.source ~sessions:[ [ "GET /cgi-bin/hello\n\n" ] ] in
  expect_clean "ghttpd" r;
  Alcotest.(check (list string)) "cgi under document root"
    [ "/usr/local/ghttpd/cgi-bin/hello" ]
    r.Ptaint_sim.Sim.execs

let test_ghttpd_bad_method () =
  let r = run Ptaint_apps.Ghttpd.source ~sessions:[ [ "PUT /x\n\n" ] ] in
  expect_clean "ghttpd" r;
  Alcotest.(check bool) "400" true (reply_containing r "400 Bad Request")

(* --- traceroute --- *)

let test_traceroute_benign () =
  let r = run Ptaint_apps.Traceroute.source ~argv:Ptaint_apps.Traceroute.benign_argv in
  expect_clean "traceroute" r;
  Alcotest.(check bool) "banner" true
    (contains r.Ptaint_sim.Sim.stdout "traceroute to 10.0.0.1, 30 hops max")

let test_traceroute_single_gateway () =
  (* one -g is fine: only the second free() of an interior pointer is
     the bug *)
  let r =
    run Ptaint_apps.Traceroute.source ~argv:[ "traceroute"; "-g"; "9.9.9.9"; "10.0.0.1" ]
  in
  expect_clean "traceroute single -g" r;
  Alcotest.(check bool) "gateway listed" true
    (contains r.Ptaint_sim.Sim.stdout "gateway 1: 9.9.9.9")

(* --- exp programs behave when not attacked --- *)

let test_exp_programs_benign () =
  let r = run Ptaint_apps.Synthetic.exp1 ~stdin:"short\n" in
  expect_clean "exp1" r;
  Alcotest.(check bool) "returned" true (contains r.Ptaint_sim.Sim.stdout "exp1 returned normally");
  let r = run Ptaint_apps.Synthetic.exp2 ~stdin:"tiny\n" in
  expect_clean "exp2" r;
  Alcotest.(check bool) "done" true (contains r.Ptaint_sim.Sim.stdout "exp2 done");
  let r = run Ptaint_apps.Synthetic.exp4_fnptr ~stdin:"hey\n" in
  expect_clean "exp4" r;
  Alcotest.(check bool) "handler ran" true
    (contains r.Ptaint_sim.Sim.stdout "hello from the configured handler")

let () =
  Alcotest.run "apps"
    [ ( "wuftpd",
        [ Alcotest.test_case "login flow" `Quick test_ftp_login_flow;
          Alcotest.test_case "bad password" `Quick test_ftp_bad_password;
          Alcotest.test_case "stor denied" `Quick test_ftp_stor_denied_without_root;
          Alcotest.test_case "site exec requires login" `Quick test_ftp_site_exec_requires_login;
          Alcotest.test_case "unknown command" `Quick test_ftp_unknown_command ] );
      ( "nullhttpd",
        [ Alcotest.test_case "static GET" `Quick test_httpd_get_static;
          Alcotest.test_case "cgi root respected" `Quick test_httpd_get_cgi_uses_configured_root;
          Alcotest.test_case "benign POST" `Quick test_httpd_benign_post;
          Alcotest.test_case "bad request" `Quick test_httpd_bad_request ] );
      ( "ghttpd",
        [ Alcotest.test_case "static" `Quick test_ghttpd_static;
          Alcotest.test_case "/.. policy" `Quick test_ghttpd_policy_blocks_dotdot;
          Alcotest.test_case "cgi" `Quick test_ghttpd_cgi;
          Alcotest.test_case "bad method" `Quick test_ghttpd_bad_method ] );
      ( "traceroute",
        [ Alcotest.test_case "benign run" `Quick test_traceroute_benign;
          Alcotest.test_case "single gateway" `Quick test_traceroute_single_gateway ] );
      ("synthetic", [ Alcotest.test_case "benign inputs" `Quick test_exp_programs_benign ]) ]
