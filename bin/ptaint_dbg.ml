(* Interactive debugger for guest programs on the pointer-taintedness
   architecture.

   Example:
     ptaint-dbg victim.c --stdin-data "$(printf 'aaaa')"
     (ptaint) b main
     (ptaint) c
     (ptaint) s 10
     (ptaint) taint
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run path policy_name stdin_data sessions args =
  match Ptaint_sim.Sim.policy_of_label policy_name with
  | Error e ->
    prerr_endline e;
    2
  | Ok policy -> (
    try
      let source = read_file path in
      let program =
        if Filename.check_suffix path ".s" then Ptaint_asm.Assembler.assemble_exn source
        else Ptaint_runtime.Runtime.compile source
      in
      let config =
        { Ptaint_sim.Sim.default_config with
          Ptaint_sim.Sim.policy;
          stdin = stdin_data;
          sessions = List.map (fun s -> [ s ]) sessions;
          argv = Filename.basename path :: args }
      in
      let dbg = Ptaint_sim.Debugger.create (Ptaint_sim.Sim.boot ~config program) in
      print_endline "ptaint debugger — 'help' for commands";
      let rec repl () =
        print_string "(ptaint) ";
        flush stdout;
        match In_channel.input_line stdin with
        | None -> 0
        | Some line -> (
          let output, next = Ptaint_sim.Debugger.exec dbg line in
          print_string output;
          match next with `Quit -> 0 | `Continue -> repl ())
      in
      repl ()
    with
    | Ptaint_cc.Cc.Error { line; message; phase } ->
      Printf.eprintf "%s:%d: %s error: %s\n" path line phase message;
      2
    | Sys_error e ->
      prerr_endline e;
      2)

let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM")

let policy_arg =
  Arg.(value & opt string "full" & info [ "policy"; "p" ] ~docv:"POLICY"
         ~doc:"Protection policy: full, control-only, none, or baseline.")

let stdin_arg =
  Arg.(value & opt string "" & info [ "stdin-data" ] ~docv:"DATA" ~doc:"Guest standard input.")

let session_arg =
  Arg.(value & opt_all string [] & info [ "session" ] ~docv:"MSG"
         ~doc:"Scripted network session (repeatable).")

let args_arg =
  Arg.(value & opt_all string [] & info [ "arg" ] ~docv:"ARG" ~doc:"Guest argv entry (repeatable).")

let cmd =
  let doc = "interactively debug a guest program on the pointer-taintedness architecture" in
  Cmd.v (Cmd.info "ptaint-dbg" ~doc)
    Term.(const run $ path_arg $ policy_arg $ stdin_arg $ session_arg $ args_arg)

let () = exit (Cmd.eval' cmd)
