open Ptaint_taint

(* The 32 GPRs plus HI/LO as one flat int array of packed Tword bits
   (indices 32/33 are HI/LO) — no per-register boxing, and reset is a
   single fill.

   [tmap] is a bitmap with bit [i] set iff slot [i]'s packed mask is
   non-zero; it is maintained by every mutator, so the block engine and
   the superblock tier can test "no live register taint anywhere" with
   one load instead of a 34-slot scan.  A bitmap (rather than the old
   live count) lets writes maintain it branchlessly without loading the
   old slot value first. *)
type t = { regs : int array; mutable tmap : int }

let hi_idx = 32
let lo_idx = 33

let create () = { regs = Array.make 34 (Tword.to_bits Tword.zero); tmap = 0 }

(* Register indices come out of 5-bit instruction fields (plus the
   fixed HI/LO slots), so every index is < 34 by construction and the
   accessors skip the array bounds checks. *)
let[@inline] get t r = if r = 0 then Tword.zero else Tword.of_bits (Array.unsafe_get t.regs r)

(* The packed mask occupies bits 32..35, so [bits lsr 32] is a 4-bit
   mask and [(m + 15) lsr 4] collapses it to 0/1 without a branch. *)
let[@inline] write t i bits =
  Array.unsafe_set t.regs i bits;
  t.tmap <- t.tmap land lnot (1 lsl i) lor ((((bits lsr 32) + 15) lsr 4) lsl i)

let[@inline] set t r w = if r <> 0 then write t r (Tword.to_bits w)
let[@inline] get_hi t = Tword.of_bits (Array.unsafe_get t.regs hi_idx)
let[@inline] set_hi t w = write t hi_idx (Tword.to_bits w)
let[@inline] get_lo t = Tword.of_bits (Array.unsafe_get t.regs lo_idx)
let[@inline] set_lo t w = write t lo_idx (Tword.to_bits w)

let[@inline] untaint t r =
  if r <> 0 then begin
    Array.unsafe_set t.regs r (Array.unsafe_get t.regs r land 0xFFFFFFFF);
    t.tmap <- t.tmap land lnot (1 lsl r)
  end

let[@inline] value t r = if r = 0 then 0 else Array.unsafe_get t.regs r land 0xFFFFFFFF

(* Clean-path write: the value is untainted by construction, so no
   mask restriction is needed; the bitmap bit is still cleared in case
   the destination held taint (it never does while the clean fast path
   is active, but correctness must not depend on the caller). *)
let[@inline] set_value t r v =
  if r <> 0 then begin
    Array.unsafe_set t.regs r (v land 0xFFFFFFFF);
    t.tmap <- t.tmap land lnot (1 lsl r)
  end

let[@inline] is_clean t = t.tmap = 0

let tainted_count t =
  (* Popcount of a 34-bit map; called from diagnostics and the
     per-step engine's clean test, never from the hot translated
     path, so a plain fold is fine. *)
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 t.tmap

let slots = 34
let slot t i = if i = 0 then Tword.zero else Tword.of_bits t.regs.(i)

let slot_name i =
  if i = hi_idx then "hi" else if i = lo_idx then "lo" else Ptaint_isa.Reg.name i

(* {1 Superblock-translator storage hooks}

   The translated tier reads and writes the packed array directly (the
   clean variant never touches taint at all, so even the [lsr 32] of
   [write] would be waste there).  These accessors expose just enough
   raw structure for that, while keeping the bitmap invariant in the
   translator's hands: [mark] after a full write, [mark_clean] after a
   known-untainted write, nothing at all on the clean path (where
   [tmap] is 0 and every write keeps it 0). *)

let[@inline] storage t = t.regs

let[@inline] mark t i ~m =
  t.tmap <- t.tmap land lnot (1 lsl i) lor (((m + 15) lsr 4) lsl i)

let[@inline] mark_clean t i = t.tmap <- t.tmap land lnot (1 lsl i)

let[@inline] mark_clean2 t i j =
  t.tmap <- t.tmap land lnot ((1 lsl i) lor (1 lsl j))

(* Fault-injection entry points.  [inject_flip_value] touches only the
   value bits, so the taint nibble (and the live bitmap) cannot
   change; [inject_set_taint] goes through [write], which maintains
   the bitmap exactly.  Slot 0 absorbs injections silently — the
   hardwired zero register masks any fault landing on it. *)

let inject_flip_value t r ~bit =
  if r > 0 && r < slots then begin
    let old = Array.unsafe_get t.regs r in
    Array.unsafe_set t.regs r (old lxor (1 lsl (bit land 31)))
  end

let inject_set_taint t r ~tainted =
  if r > 0 && r < slots then begin
    let old = Array.unsafe_get t.regs r in
    write t r (if tainted then old lor (0xF lsl 32) else old land 0xFFFFFFFF)
  end

let reset t =
  Array.fill t.regs 0 34 (Tword.to_bits Tword.zero);
  t.tmap <- 0
