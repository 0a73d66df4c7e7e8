(* The one description of a detection job every front end submits:
   the one-shot CLI, the batch runner, the experiment matrices and the
   ptaintd wire protocol all build this record and hand it to the
   campaign engine.  Keeping the payload symbolic (source text or a
   pre-assembled program) is what lets the daemon key its content-hash
   cache and lets the batch runner share snapshot templates. *)

type payload =
  | Asm_source of string
  | C_source of string
  | Image of Ptaint_asm.Program.t

type t = {
  tag : string;
  payload : payload;
  config : Ptaint_sim.Sim.config;
  policy_label : string option;
  injections : Ptaint_fi.Fi.injection list;
  timeout : float option;
  expect : (Ptaint_sim.Sim.result -> string option) option;
  trace : (int * int) option;
}

let make ~tag ?(config = Ptaint_sim.Sim.Config.default) ?policy_label
    ?(injections = []) ?timeout ?expect ?trace payload =
  { tag; payload; config; policy_label; injections; timeout; expect; trace }

let with_injections injections t = { t with injections }
let with_timeout seconds t = { t with timeout = Some seconds }

let program t =
  match t.payload with
  | Image p -> p
  | Asm_source s -> Ptaint_asm.Assembler.assemble_exn s
  | C_source s -> Ptaint_runtime.Runtime.compile s

(* Content-hash key of everything that shapes the loaded memory
   image: the program bytes plus the loader inputs (argv/env/sources
   decide the initial stack and its taint).  Two jobs with equal keys
   can boot from one snapshot template; policy, stdin, sessions, fuel
   and timing may all differ.  [Image] payloads hash a digest of the
   whole marshalled program (instructions, data, symbols, line table):
   [Hashtbl.hash] would stop after a few values and give programs that
   differ only in their instructions one key. *)
let image_key t =
  let c = t.config in
  let b = Buffer.create 256 in
  (match t.payload with
   | Asm_source s -> Buffer.add_string b "asm\x00"; Buffer.add_string b s
   | C_source s -> Buffer.add_string b "c\x00"; Buffer.add_string b s
   | Image p ->
     Buffer.add_string b "image\x00";
     Buffer.add_string b (Digest.string (Marshal.to_string p [ Marshal.No_sharing ])));
  Buffer.add_char b '\x00';
  List.iter (fun a -> Buffer.add_string b a; Buffer.add_char b '\x00') c.Ptaint_sim.Sim.argv;
  Buffer.add_char b '\x00';
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k; Buffer.add_char b '='; Buffer.add_string b v;
      Buffer.add_char b '\x00')
    c.Ptaint_sim.Sim.env;
  let s = c.Ptaint_sim.Sim.sources in
  List.iter
    (fun flag -> Buffer.add_char b (if flag then '1' else '0'))
    [ s.Ptaint_os.Sources.network; s.Ptaint_os.Sources.file; s.Ptaint_os.Sources.stdin;
      s.Ptaint_os.Sources.args; s.Ptaint_os.Sources.env ];
  Digest.to_hex (Digest.string (Buffer.contents b))
