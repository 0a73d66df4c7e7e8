(* Seeded grammar-based program/attack generator.

   A generative campaign is a pure function of its spec: job [i] is
   derived from [(spec, i)] alone, with no generator state threaded
   between jobs.  That is the property everything else leans on —
   the stream is identical at any [-j] level (jobs are indexed, not
   raced for), and a resumed campaign re-derives jobs [cursor..]
   without replaying the prefix.

   The generator emits Mini-C programs in the paper's exp1 family: a
   handler with a stack buffer as its first (highest) local reads one
   stdin line with [gets], so an over-long line walks up the frame
   into the saved frame pointer and return address.  Variants differ
   in buffer size and in the arithmetic helpers the handler calls
   (which move code around and give each variant distinct detection
   pcs); payloads differ in length — benign, frame-pointer clobber,
   or return-address clobber — and each case is run once per policy
   so the campaign measures where the policies disagree. *)

module Rng = Ptaint_fi.Fi.Rng

type spec = { seed : int; jobs : int; variants : int }

let default_policy_labels = [ "none"; "control-only"; "full" ]

(* The sweep as (label, resolved policy) pairs. *)
let policies =
  List.map
    (fun label ->
      match Ptaint_sim.Sim.policy_of_label label with
      | Ok p -> (label, p)
      | Error e -> invalid_arg ("Gen: " ^ e))
    default_policy_labels

let npolicies = List.length policies

let spec ?(variants = 8) ~seed ~jobs () =
  if jobs < 0 then invalid_arg "Gen.spec: negative job count";
  if variants < 1 then invalid_arg "Gen.spec: variants must be >= 1";
  { seed; jobs; variants }

let jobs_of t = t.jobs

(* Campaign identity baked into checkpoint manifests: two specs with
   the same id generate the same job stream, so resuming under a
   different seed/shape is refused up front. *)
let id t =
  Printf.sprintf "gen:v1:seed=%d:jobs=%d:variants=%d:policies=%s" t.seed t.jobs t.variants
    (String.concat "," default_policy_labels)

(* Independent deterministic streams per (seed, salt, index): a
   splitmix-style finalizer so adjacent indices land far apart and the
   program stream never correlates with the payload stream. *)
let mix seed salt i =
  let h = seed lxor (salt * 0x9e3779b1) lxor (i * 0x85ebca77) in
  let h = h lxor (h lsr 16) in
  let h = h * 0x7feb352d in
  let h = h lxor (h lsr 15) in
  let h = h * 0x846ca68b in
  (h lxor (h lsr 16)) land max_int

let salt_program = 1
let salt_payload = 2

let pad4 n = (n + 3) land lnot 3

(* --- program variants --- *)

type variant = {
  v_index : int;
  v_buf : int;  (* declared buffer size *)
  v_source : string;
}

let variant t v =
  let r = Rng.create (mix t.seed salt_program v) in
  let buf = 8 + Rng.int r 57 in
  let helpers = 1 + Rng.int r 3 in
  let magic = 1000 + Rng.int r 9000 in
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "/* generated: variant %d, buf[%d], %d helpers */" v buf helpers;
  for h = 0 to helpers - 1 do
    let c1 = 1 + Rng.int r 99 and c2 = 1 + Rng.int r 199 and c3 = 1 + Rng.int r 49 in
    line "int mix%d(int x) {" h;
    line "  int a;";
    line "  a = x + %d;" c1;
    line "  if (a > %d) { a = a - %d; }" c2 c3;
    line "  return a;";
    line "}";
    line ""
  done;
  line "void handle(void) {";
  line "  char buf[%d];" buf;
  line "  int i;";
  line "  int sum;";
  line "  gets(buf);";
  line "  sum = 0;";
  line "  for (i = 0; i < %d; i++) {" buf;
  line "    sum = sum + buf[i];";
  line "  }";
  for h = 0 to helpers - 1 do
    line "  sum = mix%d(sum);" h
  done;
  line "  if (sum == %d) { puts(\"magic\"); }" magic;
  line "  puts(\"handled\");";
  line "}";
  line "";
  line "int main(void) {";
  line "  handle();";
  line "  puts(\"done\");";
  line "  return 0;";
  line "}";
  { v_index = v; v_buf = buf; v_source = Buffer.contents b }

let source t v = (variant t (v mod t.variants)).v_source

(* --- payloads --- *)

type attack = Benign | Fp_clobber | Ra_clobber

let attack_name = function
  | Benign -> "benign"
  | Fp_clobber -> "fp-clobber"
  | Ra_clobber -> "ra-clobber"

(* Frame layout (see Cgen): buf is the handler's first local, so it
   sits just under the saved FP; bytes [pad4 buf .. pad4 buf + 3]
   overwrite the saved frame pointer and the next four the return
   address.  [gets] stops at newline, so payload bytes are letters. *)
let payload_for r (v : variant) =
  let attack =
    match Rng.int r 4 with 0 -> Benign | 1 -> Fp_clobber | _ -> Ra_clobber
  in
  let len =
    match attack with
    | Benign -> 1 + Rng.int r (max 1 (v.v_buf - 1))
    | Fp_clobber -> pad4 v.v_buf + 4
    | Ra_clobber -> pad4 v.v_buf + 8
  in
  let bytes =
    String.init len (fun _ ->
        let k = Rng.int r 52 in
        if k < 26 then Char.chr (Char.code 'A' + k) else Char.chr (Char.code 'a' + k - 26))
  in
  (attack, bytes ^ "\n")

(* --- jobs --- *)

(* Job [i] runs case [i / npolicies] under policy [i mod npolicies]:
   the policy sweep for one case is adjacent in the stream, so a
   consumer watching results in submission order can fold per-case
   policy disagreement without buffering more than one case. *)
let job t i =
  if i < 0 || i >= t.jobs then invalid_arg "Gen.job: index out of range";
  let case = i / npolicies in
  let label, policy = List.nth policies (i mod npolicies) in
  let v = variant t (case mod t.variants) in
  let r = Rng.create (mix t.seed salt_payload case) in
  let attack, stdin = payload_for r v in
  let config =
    { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.policy; stdin }
  in
  let tag =
    Printf.sprintf "gen/c%05d/v%02d/%s/%s" case v.v_index (attack_name attack) label
  in
  Ptaint_campaign.Job.make ~tag ~config (Ptaint_campaign.Job.C_source v.v_source)

let policy_label _ i = List.nth default_policy_labels (i mod npolicies)

let jobs t = Seq.init t.jobs (job t)
