(* End-to-end taint-transport properties: whatever chain of libc
   copies input bytes travel through, their taint bits must arrive
   with them — and bytes that never came from input must stay clean.
   This is the paper's memory-model invariant (section 4.1) exercised
   through real guest code. *)

let run ~stdin src =
  let program = Ptaint_runtime.Runtime.compile src in
  let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin } in
  Ptaint_sim.Sim.run ~config program

let tainted_bytes (r : Ptaint_sim.Sim.result) symbol len =
  let mem = r.Ptaint_sim.Sim.image.Ptaint_asm.Loader.mem in
  let addr = Ptaint_asm.Program.symbol_exn r.Ptaint_sim.Sim.image.Ptaint_asm.Loader.program symbol in
  Ptaint_mem.Memory.tainted_in_range mem addr len

(* A chain of transports parameterised by qcheck: read n bytes, then
   strcpy / memcpy / byte-loop / strcat them around, ending in `sink`. *)
type transport = Strcpy | Memcpy | Byteloop | Strcat_onto_clean

let transport_code = function
  | Strcpy -> "strcpy(stage2, stage1);"
  | Memcpy -> "memcpy(stage2, stage1, n + 1);"
  | Byteloop -> "{ int k; for (k = 0; k <= n; k++) stage2[k] = stage1[k]; }"
  | Strcat_onto_clean -> "stage2[0] = 0; strcat(stage2, stage1);"

let gen =
  QCheck2.Gen.(pair (oneofl [ Strcpy; Memcpy; Byteloop; Strcat_onto_clean ]) (int_range 1 40))

let prop_taint_travels =
  QCheck2.Test.make ~count:30 ~name:"taint travels through libc copy chains"
    ~print:(fun (t, n) ->
      Printf.sprintf "%s n=%d"
        (match t with
         | Strcpy -> "strcpy" | Memcpy -> "memcpy" | Byteloop -> "byteloop"
         | Strcat_onto_clean -> "strcat")
        n)
    gen
    (fun (transport, n) ->
      let src =
        Printf.sprintf
          {| char stage1[64];
             char stage2[64];
             char sink[64];
             int main(void) {
               int n = read(0, stage1, %d);
               stage1[n] = 0;
               %s
               memcpy(sink, stage2, n);
               return n;
             } |}
          n (transport_code transport)
      in
      let stdin = String.init n (fun i -> Char.chr (65 + (i mod 26))) in
      let r = run ~stdin src in
      match r.Ptaint_sim.Sim.outcome with
      | Ptaint_sim.Sim.Exited k when k = n ->
        tainted_bytes r "sink" n = n
        && tainted_bytes r "stage2" n = n
        (* the NUL terminator and the rest of the buffers stay clean *)
        && tainted_bytes r "sink" 64 = n
      | o ->
        QCheck2.Test.fail_reportf "run: %s" (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome o))

let prop_constants_stay_clean =
  QCheck2.Test.make ~count:20 ~name:"program-generated bytes stay untainted"
    QCheck2.Gen.(int_range 1 40)
    (fun n ->
      let src =
        Printf.sprintf
          {| char noise[64];
             char clean[64];
             int main(void) {
               read(0, noise, %d);          /* taint exists in the process */
               int k;
               for (k = 0; k < %d; k++) clean[k] = 'A' + (k %% 26);
               return 0;
             } |}
          n n
      in
      let r = run ~stdin:(String.make n 'x') src in
      match r.Ptaint_sim.Sim.outcome with
      | Ptaint_sim.Sim.Exited 0 ->
        tainted_bytes r "clean" 64 = 0 && tainted_bytes r "noise" 64 = n
      | o ->
        QCheck2.Test.fail_reportf "run: %s" (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome o))

let prop_sprintf_s_preserves_taint =
  (* %s copies keep taint (the deref path reloads the source bytes) *)
  QCheck2.Test.make ~count:15 ~name:"%s formatting preserves source taint"
    QCheck2.Gen.(int_range 1 20)
    (fun n ->
      let src =
        Printf.sprintf
          {| char input[32];
             char formatted[64];
             int main(void) {
               int n = read(0, input, %d);
               input[n] = 0;
               sprintf(formatted, "[%%s]", input);
               return 0;
             } |}
          n
      in
      let r = run ~stdin:(String.make n 'q') src in
      match r.Ptaint_sim.Sim.outcome with
      | Ptaint_sim.Sim.Exited 0 ->
        (* the n copied bytes inside the brackets are tainted; the
           brackets themselves are program constants *)
        tainted_bytes r "formatted" 64 = n
      | o ->
        QCheck2.Test.fail_reportf "run: %s" (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome o))

let () =
  Alcotest.run "taint transport"
    [ ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_taint_travels; prop_constants_stay_clean; prop_sprintf_s_preserves_taint ] ) ]
