(* Scripted sessions against the debugger command interpreter. *)

let contains haystack needle =
  let rec go i =
    i + String.length needle <= String.length haystack
    && (String.sub haystack i (String.length needle) = needle || go (i + 1))
  in
  go 0

let victim =
  {| char secret[8] = "hunter2";
     int helper(int x) { return x * 2; }
     int main(void) {
       char buf[8];
       read(0, buf, 4);
       int v = helper(3);
       int *p = *(int **)buf;
       return *p + v;
     } |}

let boot () =
  let program = Ptaint_runtime.Runtime.compile victim in
  let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = "aaaa" } in
  Ptaint_sim.Debugger.create (Ptaint_sim.Sim.boot ~config program)

let exec dbg line =
  let out, _ = Ptaint_sim.Debugger.exec dbg line in
  out

let test_breakpoint_and_continue () =
  let dbg = boot () in
  let out = exec dbg "b helper" in
  Alcotest.(check bool) "set" true (contains out "breakpoint at");
  let out = exec dbg "c" in
  Alcotest.(check bool) ("hit: " ^ out) true (contains out "breakpoint hit: helper");
  (* we are stopped at helper's first instruction *)
  let out = exec dbg "info" in
  Alcotest.(check bool) "in helper" true (contains out "<helper>");
  (* continuing again runs to the alert *)
  let out = exec dbg "c" in
  Alcotest.(check bool) ("alert: " ^ out) true (contains out "SECURITY ALERT");
  let out = exec dbg "c" in
  Alcotest.(check bool) "already finished" true (contains out "already finished")

let test_step_lists_instructions () =
  let dbg = boot () in
  let out = exec dbg "s 3" in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  Alcotest.(check bool) "symbolized" true (contains out "<_start");
  let out = exec dbg "info" in
  Alcotest.(check bool) "3 executed" true (contains out "instructions executed: 3")

let test_registers_and_taint () =
  let dbg = boot () in
  ignore (exec dbg "c");
  let out = exec dbg "regs" in
  Alcotest.(check bool) "sp listed" true (contains out "$sp");
  Alcotest.(check bool) "pc listed" true (contains out "pc");
  let out = exec dbg "taint" in
  Alcotest.(check bool) "tainted pointer register" true (contains out "0x61616161[t:1111]")

let test_memory_dump () =
  let dbg = boot () in
  ignore (exec dbg "c");
  let out = exec dbg "mem secret 16" in
  Alcotest.(check bool) ("ascii: " ^ out) true (contains out "hunter2");
  Alcotest.(check bool) "untainted globals unmarked" false (contains out "68*");
  let out = exec dbg "mem 0x123 16" in
  Alcotest.(check bool) "unmapped shown" true (contains out "--")

let test_disassemble () =
  let dbg = boot () in
  let out = exec dbg "dis main 4" in
  Alcotest.(check bool) "shows main" true (contains out "<main");
  Alcotest.(check bool) "four rows" true
    (List.length (List.filter (fun l -> contains l "004") (String.split_on_char '\n' out)) >= 4)

let test_backtrace_cmd () =
  let dbg = boot () in
  ignore (exec dbg "b helper");
  ignore (exec dbg "c");
  (* step past helper's prologue so its frame is linked *)
  ignore (exec dbg "s 4");
  let out = exec dbg "bt" in
  Alcotest.(check bool) "helper frame" true (contains out "helper");
  Alcotest.(check bool) "main frame" true (contains out "main")

let test_bad_input () =
  let dbg = boot () in
  Alcotest.(check bool) "unknown command" true (contains (exec dbg "frobnicate") "unknown command");
  Alcotest.(check bool) "unknown location" true (contains (exec dbg "b nowhere") "unknown location");
  Alcotest.(check bool) "help" true (contains (exec dbg "help") "breakpoint");
  let _, quit = Ptaint_sim.Debugger.exec dbg "q" in
  Alcotest.(check bool) "quit" true (quit = `Quit)

let () =
  Alcotest.run "debugger"
    [ ( "commands",
        [ Alcotest.test_case "breakpoint/continue" `Quick test_breakpoint_and_continue;
          Alcotest.test_case "step" `Quick test_step_lists_instructions;
          Alcotest.test_case "regs/taint" `Quick test_registers_and_taint;
          Alcotest.test_case "memory dump" `Quick test_memory_dump;
          Alcotest.test_case "disassemble" `Quick test_disassemble;
          Alcotest.test_case "backtrace" `Quick test_backtrace_cmd;
          Alcotest.test_case "bad input" `Quick test_bad_input ] ) ]
