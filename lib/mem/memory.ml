open Ptaint_taint

type access = Load | Store

exception Fault of { addr : int; access : access }

type stats = {
  mutable loads : int;
  mutable stores : int;
  mutable tainted_loads : int;
  mutable tainted_stores : int;
  mutable mapped_bytes : int;
}

type t = { store : Tagged_store.t; st : stats }

type snapshot = { s_store : Tagged_store.snapshot; s_stats : stats }

let page_bytes = Layout.page_bytes
let mask32 = Ptaint_isa.Word.mask32

let create () =
  { store = Tagged_store.create ();
    st = { loads = 0; stores = 0; tainted_loads = 0; tainted_stores = 0; mapped_bytes = 0 } }

let stats t = t.st
let tagged t = t.store

let map_page t idx =
  if Tagged_store.map_page t.store idx then
    t.st.mapped_bytes <- t.st.mapped_bytes + page_bytes

let map_range t ~lo ~bytes =
  if bytes > 0 then
    for idx = lo / page_bytes to (lo + bytes - 1) / page_bytes do
      map_page t idx
    done

let is_mapped t addr = Tagged_store.is_mapped t.store ((addr land mask32) / page_bytes)

let fault a access = raise (Fault { addr = a; access })

let load_byte t addr =
  let addr = addr land mask32 in
  match Tagged_store.load_byte t.store addr with
  | (_, taint) as r ->
    t.st.loads <- t.st.loads + 1;
    if taint then t.st.tainted_loads <- t.st.tainted_loads + 1;
    r
  | exception Tagged_store.Unmapped a -> fault a Load

let store_byte t addr v ~taint =
  let addr = addr land mask32 in
  match Tagged_store.store_byte t.store addr v ~taint with
  | () ->
    t.st.stores <- t.st.stores + 1;
    if taint then t.st.tainted_stores <- t.st.tainted_stores + 1
  | exception Tagged_store.Unmapped a -> fault a Store

let load_word t addr =
  let addr = addr land mask32 in
  match Tagged_store.load_word t.store addr with
  | w ->
    t.st.loads <- t.st.loads + 1;
    if Tword.is_tainted w then t.st.tainted_loads <- t.st.tainted_loads + 1;
    w
  | exception Tagged_store.Unmapped a -> fault a Load

let store_word t addr w =
  let addr = addr land mask32 in
  match Tagged_store.store_word t.store addr w with
  | () ->
    t.st.stores <- t.st.stores + 1;
    if Tword.is_tainted w then t.st.tainted_stores <- t.st.tainted_stores + 1
  | exception Tagged_store.Unmapped a -> fault a Store

(* Half accesses are one logical access, like the byte and word paths,
   so Diagnostics/Report load/store counts are width-independent. *)
let load_half t addr =
  let addr = addr land mask32 in
  match Tagged_store.load_half t.store addr with
  | (_, m) as r ->
    t.st.loads <- t.st.loads + 1;
    if Mask.is_tainted m then t.st.tainted_loads <- t.st.tainted_loads + 1;
    r
  | exception Tagged_store.Unmapped a -> fault a Load

let store_half t addr v ~m =
  let addr = addr land mask32 in
  match Tagged_store.store_half t.store addr v ~m with
  | () ->
    t.st.stores <- t.st.stores + 1;
    if Mask.is_tainted m then t.st.tainted_stores <- t.st.tainted_stores + 1
  | exception Tagged_store.Unmapped a -> fault a Store

(* Packed variants for the CPU hot path: same semantics, result in a
   single immediate Tword (no tuple allocation). *)

let load_byte_t t addr =
  let addr = addr land mask32 in
  match Tagged_store.load_byte t.store addr with
  | b, taint ->
    t.st.loads <- t.st.loads + 1;
    if taint then begin
      t.st.tainted_loads <- t.st.tainted_loads + 1;
      Tword.make ~v:b ~m:1
    end
    else Tword.untainted b
  | exception Tagged_store.Unmapped a -> fault a Load

let load_half_t t addr =
  let addr = addr land mask32 in
  match Tagged_store.load_half t.store addr with
  | v, m ->
    t.st.loads <- t.st.loads + 1;
    if Mask.is_tainted m then t.st.tainted_loads <- t.st.tainted_loads + 1;
    Tword.make ~v ~m
  | exception Tagged_store.Unmapped a -> fault a Load

let tainted_bytes t = Tagged_store.tainted_bytes t.store

let write_string t addr s ~taint =
  String.iteri (fun i c -> store_byte t (addr + i) (Char.code c) ~taint) s

let read_string t addr len = String.init len (fun i -> Char.chr (fst (load_byte t (addr + i))))

let read_cstring ?(limit = 65536) t addr =
  let buf = Buffer.create 32 in
  let rec go i =
    if i < limit then begin
      let b, _ = load_byte t (addr + i) in
      if b <> 0 then begin
        Buffer.add_char buf (Char.chr b);
        go (i + 1)
      end
    end
  in
  go 0;
  Buffer.contents buf

let taint_range t addr len =
  let addr = addr land mask32 in
  try Tagged_store.taint_range t.store addr len
  with Tagged_store.Unmapped a -> fault a Store

let untaint_range t addr len =
  let addr = addr land mask32 in
  try Tagged_store.untaint_range t.store addr len
  with Tagged_store.Unmapped a -> fault a Store

let tainted_in_range t addr len =
  let addr = addr land mask32 in
  try Tagged_store.tainted_in_range t.store addr len
  with Tagged_store.Unmapped a -> fault a Load

let taint_summary t addr len = Tagged_store.taint_summary t.store (addr land mask32) len

(* Fault-injection entry points: hardware faults, not guest accesses,
   so none of them touch [stats]. *)

let check_invariants t = Tagged_store.check_invariants t.store

let inject_flip_data t addr ~bit =
  let addr = addr land mask32 in
  try Tagged_store.inject_flip_data t.store addr ~bit
  with Tagged_store.Unmapped a -> fault a Store

let inject_set_taint_range t addr len ~tainted =
  let addr = addr land mask32 in
  try Tagged_store.inject_set_taint_range t.store addr len ~tainted
  with Tagged_store.Unmapped a -> fault a Store

let inject_wipe_taint t = Tagged_store.inject_wipe_taint t.store

let copy_stats st =
  { loads = st.loads;
    stores = st.stores;
    tainted_loads = st.tainted_loads;
    tainted_stores = st.tainted_stores;
    mapped_bytes = st.mapped_bytes }

let snapshot t = { s_store = Tagged_store.snapshot t.store; s_stats = copy_stats t.st }

let restore snap = { store = Tagged_store.restore snap.s_store; st = copy_stats snap.s_stats }

let reset_from_snapshot t snap =
  Tagged_store.reset_from_snapshot t.store snap.s_store;
  t.st.loads <- snap.s_stats.loads;
  t.st.stores <- snap.s_stats.stores;
  t.st.tainted_loads <- snap.s_stats.tainted_loads;
  t.st.tainted_stores <- snap.s_stats.tainted_stores;
  t.st.mapped_bytes <- snap.s_stats.mapped_bytes
