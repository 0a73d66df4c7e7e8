(* Quickstart: compile a small C program onto the simulated
   pointer-taintedness architecture, feed it malicious input, and
   watch the detector catch the tainted dereference.

   Run with: dune exec examples/quickstart.exe *)

let victim =
  {|
/* A one-line pointer-taintedness bug: the program reads 4 bytes from
   its caller and uses them as an address. */
int main(void) {
  char buf[8];
  read(0, buf, 4);
  int *p = *(int **)buf;   /* p is built from external input */
  printf("stored value: %d\n", *p);
  return 0;
}
|}

let run ~policy ~label input =
  let program = Ptaint_runtime.Runtime.compile victim in
  let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.policy; stdin = input } in
  let result = Ptaint_sim.Sim.run ~config program in
  Format.printf "%-22s -> %a@." label Ptaint_sim.Sim.pp_outcome result.Ptaint_sim.Sim.outcome

let () =
  print_endline "The attacker sends \"aaaa\", hoping the program dereferences 0x61616161:\n";
  run ~policy:Ptaint_cpu.Policy.default ~label:"pointer taintedness" "aaaa";
  run ~policy:Ptaint_cpu.Policy.control_only ~label:"control-data only" "aaaa";
  run ~policy:Ptaint_cpu.Policy.unprotected ~label:"no protection" "aaaa";
  print_endline "\nEvery byte read from outside carries a taint bit; ALU instructions";
  print_endline "propagate it (Table 1 of the paper); loads, stores and indirect jumps";
  print_endline "check it.  The alert above names the instruction, the register and the";
  print_endline "tainted pointer value, exactly like the paper's Table 2.";
  print_endline "\nWell-behaved programs are untouched — taint flows through their data";
  print_endline "without ever reaching a pointer:\n";
  let greeter =
    {| int main(void) {
         char name[64];
         gets(name);
         printf("hello, %s!\n", name);
         return 0;
       } |}
  in
  let program = Ptaint_runtime.Runtime.compile greeter in
  let config =
    { Ptaint_sim.Sim.default_config with
      Ptaint_sim.Sim.policy = Ptaint_cpu.Policy.default;
      stdin = "world\n" }
  in
  let result = Ptaint_sim.Sim.run ~config program in
  Format.printf "greeter                -> %a; stdout: %s@."
    Ptaint_sim.Sim.pp_outcome result.Ptaint_sim.Sim.outcome
    (String.trim result.Ptaint_sim.Sim.stdout)
