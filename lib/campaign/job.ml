(* The one description of a detection job every front end submits:
   the one-shot CLI, the batch runner, the experiment matrices and the
   ptaintd wire protocol all build this record and hand it to the
   campaign engine.  Keeping the payload symbolic (source text or a
   pre-assembled program) is what lets the daemon key its content-keyed
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

let make ~tag ?(config = Ptaint_sim.Sim.default_config) ?policy_label
    ?(injections = []) ?timeout ?expect ?trace payload =
  { tag; payload; config; policy_label; injections; timeout; expect; trace }

let program t =
  match t.payload with
  | Image p -> p
  | Asm_source s -> Ptaint_asm.Assembler.assemble_exn s
  | C_source s -> Ptaint_runtime.Runtime.compile s

(* Exact key of everything that shapes the loaded memory image: the
   program plus the loader inputs (argv/env/sources decide the initial
   stack and its taint).  Two jobs with equal keys can boot from one
   snapshot template; policy, stdin, sessions, fuel and timing may all
   differ.  The key is an encoding, not a hash: a kind byte, a byte of
   source flags, then the program text and every argv and env string
   behind its 8-byte length and each list behind its count, so equal
   keys mean equal fields.  It is built in one allocation of its final
   size.  For an [Image] payload the program text is a digest of the
   whole marshalled program (instructions, data, symbols, line table):
   [Hashtbl.hash] would stop after a few values and give programs that
   differ only in their instructions one key. *)

let put_int b pos n =
  Bytes.set_int64_le b pos (Int64.of_int n);
  pos + 8

let put_string b pos s =
  let len = String.length s in
  Bytes.blit_string s 0 b (put_int b pos len) len;
  pos + 8 + len

let rec put_argv b pos = function
  | [] -> pos
  | a :: rest -> put_argv b (put_string b pos a) rest

let rec put_env b pos = function
  | [] -> pos
  | (k, v) :: rest -> put_env b (put_string b (put_string b pos k) v) rest

let image_key t =
  let c = t.config in
  let program =
    match t.payload with
    | Asm_source s | C_source s -> s
    | Image p -> Digest.string (Marshal.to_string p [ Marshal.No_sharing ])
  in
  let kind = match t.payload with Asm_source _ -> 'a' | C_source _ -> 'c' | Image _ -> 'i' in
  let s = c.Ptaint_sim.Sim.sources in
  let bit flag v = if flag then v else 0 in
  let flags =
    bit s.Ptaint_os.Sources.network 1 lor bit s.Ptaint_os.Sources.file 2
    lor bit s.Ptaint_os.Sources.stdin 4 lor bit s.Ptaint_os.Sources.args 8
    lor bit s.Ptaint_os.Sources.env 16
  in
  let argv = c.Ptaint_sim.Sim.argv and env = c.Ptaint_sim.Sim.env in
  let size =
    2 + 8 + String.length program + 8
    + List.fold_left (fun n a -> n + 8 + String.length a) 0 argv
    + 8
    + List.fold_left (fun n (k, v) -> n + 16 + String.length k + String.length v) 0 env
  in
  let b = Bytes.create size in
  Bytes.set b 0 kind;
  Bytes.set b 1 (Char.chr flags);
  let pos = put_string b 2 program in
  let pos = put_argv b (put_int b pos (List.length argv)) argv in
  let pos = put_env b (put_int b pos (List.length env)) env in
  assert (pos = size);
  Bytes.unsafe_to_string b
