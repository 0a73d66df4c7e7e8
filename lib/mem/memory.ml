open Ptaint_taint

type access = Load | Store

exception Unmapped of int

type stats = {
  mutable loads : int;
  mutable stores : int;
  mutable tainted_loads : int;
  mutable tainted_stores : int;
  mutable mapped_bytes : int;
}

(* Each 4 KiB page is one Bigarray of [page_words] native ints, one
   element per aligned guest word, holding exactly the packed
   {!Tword} bits: value byte [k] in bits [8k, 8k+8), taint bit for
   byte [k] at bit [32 + k].  An aligned word load is therefore a
   single array read ([Tword.of_bits]), an aligned word store a
   single write. *)
type plane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* [slot] is the page's position in the memory's base snapshot (its
   record sits at [aligned.(slot)]), or -1 for a page mapped since. *)
type page = { mutable plane : plane; mutable shared : bool; mutable slot : int }

(* A snapshot is the frozen page set as two parallel arrays — page
   indices in ascending order and the planes they held — plus a copy
   of the stats. *)
type snapshot = { s_idx : int array; s_planes : plane array; s_stats : stats }

(* [cache_idx]/[cache_page] form a direct-mapped page-lookup cache in
   front of the hashtable: COW clones mutate the page record in place,
   and the only operation that unmaps pages ([reset_from_snapshot])
   flushes the cache, so a cached (index, page-record) pair never goes
   stale.  This takes the generic hash + bucket walk + option
   allocation of [Hashtbl.find_opt] off the guest memory-access path.

   The next four fields make an arena reset cost O(pages the last job
   touched): [base] is the snapshot the memory was last taken as or
   reset to ([None] after a fresh {!restore}), [aligned] holds the page
   records for [base]'s indices in the same order, [dirty] the records
   cloned since then and [grown] the indices mapped since then.

   [spare] holds up to [max_spares] planes a reset took back from
   cloned pages ([nspare] of them), for the next clones to reuse
   instead of allocating: a recycled arena then runs its jobs without
   creating page data.  Only a cloned page's private plane ever enters
   it — never a snapshot's plane or the zero plane, which others still
   read. *)
type t = {
  pages : (int, page) Hashtbl.t;
  cache_idx : int array;
  cache_page : page array;
  mutable base : snapshot option;
  mutable aligned : page array;
  mutable dirty : page list;
  mutable grown : int list;
  mutable spare : plane list;
  mutable nspare : int;
  st : stats;
}

let mask32 = Ptaint_isa.Word.mask32
let page_bytes = Layout.page_bytes
let page_mask = page_bytes - 1
let page_words = page_bytes / 4
let () = assert (page_bytes = 1 lsl 12)

(* Popcount of a 4-bit taint nibble — the tainted-byte count of one
   word element. *)
let pop4 = [| 0; 1; 1; 2; 1; 2; 2; 3; 1; 2; 2; 3; 2; 3; 3; 4 |]

let new_plane () = Bigarray.Array1.create Bigarray.int Bigarray.c_layout page_words

(* The one all-zero plane every newly mapped page starts on, shared
   (never written: the first write clones it like a snapshot plane),
   so mapping a page allocates no page data.  Process-wide and
   immutable, hence safe to share across domains. *)
let zero_plane =
  let p = new_plane () in
  Bigarray.Array1.fill p 0;
  p

let cache_slots = 64
let max_spares = 64
let debug_asserts = ref false

(* Placeholder page record filling the cache's page slots while their
   index slot still holds the -1 sentinel; never dereferenced. *)
let dummy_page =
  { plane = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0; shared = true; slot = -1 }

let new_stats () =
  { loads = 0; stores = 0; tainted_loads = 0; tainted_stores = 0; mapped_bytes = 0 }

let copy_stats st =
  { loads = st.loads;
    stores = st.stores;
    tainted_loads = st.tainted_loads;
    tainted_stores = st.tainted_stores;
    mapped_bytes = st.mapped_bytes }

let create_with st =
  { pages = Hashtbl.create 256;
    cache_idx = Array.make cache_slots (-1);
    cache_page = Array.make cache_slots dummy_page;
    base = None;
    aligned = [||];
    dirty = [];
    grown = [];
    spare = [];
    nspare = 0;
    st }

let create () = create_with (new_stats ())
let stats t = t.st

let map_range t ~lo ~bytes =
  if bytes > 0 then
    for idx = lo / page_bytes to (lo + bytes - 1) / page_bytes do
      if not (Hashtbl.mem t.pages idx) then begin
        Hashtbl.replace t.pages idx { plane = zero_plane; shared = true; slot = -1 };
        t.grown <- idx :: t.grown;
        t.st.mapped_bytes <- t.st.mapped_bytes + page_bytes
      end
    done

let is_mapped t addr = Hashtbl.mem t.pages ((addr land mask32) / page_bytes)

let mapped_pages t =
  List.sort compare (Hashtbl.fold (fun idx _ acc -> idx :: acc) t.pages [])

(* Recounted on demand: O(written pages), since a page still on the
   zero plane holds no taint.  No execution path reads it; tests and
   reports do. *)
let tainted_bytes t =
  Hashtbl.fold
    (fun _ p acc ->
      let pl = p.plane in
      if pl == zero_plane then acc
      else begin
        let n = ref acc in
        for wi = 0 to page_words - 1 do
          n := !n + Array.unsafe_get pop4 (Bigarray.Array1.unsafe_get pl wi lsr 32)
        done;
        !n
      end)
    t.pages 0

let page_miss t addr idx slot =
  match Hashtbl.find_opt t.pages idx with
  | Some p ->
    Array.unsafe_set t.cache_idx slot idx;
    Array.unsafe_set t.cache_page slot p;
    p
  | None -> raise (Unmapped addr)

(* The cache-hit path is forced inline so a hot memory access compiles
   to two array loads and a compare; the miss path stays out of line. *)
let[@inline] page_for t addr =
  let idx = addr lsr 12 in
  let slot = idx land (cache_slots - 1) in
  if Array.unsafe_get t.cache_idx slot = idx then Array.unsafe_get t.cache_page slot
  else page_miss t addr idx slot

(* Out of line: the record goes on the dirty list before its plane
   changes, so a reset never misses a page whatever happens here. *)
let[@inline never] clone_page t p =
  t.dirty <- p :: t.dirty;
  let fresh =
    match t.spare with
    | pl :: rest ->
      t.spare <- rest;
      t.nspare <- t.nspare - 1;
      pl
    | [] -> new_plane ()
  in
  Bigarray.Array1.blit p.plane fresh;
  p.plane <- fresh;
  p.shared <- false

(* Reads never copy; the first write to a shared page (a snapshot's
   or the zero plane) clones its plane so other holders keep the
   original bytes. *)
let[@inline] read_plane t addr = (page_for t addr).plane

let[@inline] write_plane t addr =
  let p = page_for t addr in
  if p.shared then clone_page t p;
  p.plane

(* --- element access on masked addresses ---

   Everything below the public wrappers takes an address already
   masked to 32 bits.  NB: [Bigarray.Array1.unsafe_get]/[unsafe_set]
   must be fully applied at each call site — aliasing the externals
   would compile every plane access into an out-of-line call instead
   of a single load/store. *)

let[@inline] get_elt t addr =
  Bigarray.Array1.unsafe_get (read_plane t addr) ((addr land page_mask) lsr 2)

let[@inline] get_byte t addr =
  let elt = get_elt t addr in
  let k = addr land 3 in
  Tword.make ~v:((elt lsr (k lsl 3)) land 0xff) ~m:((elt lsr (32 + k)) land 1)

let[@inline] set_byte t addr v ~taint =
  let pl = write_plane t addr in
  let wi = (addr land page_mask) lsr 2 in
  let k = addr land 3 in
  let elt = Bigarray.Array1.unsafe_get pl wi in
  let vshift = k lsl 3 in
  let tb = 1 lsl (32 + k) in
  let cleared = elt land lnot ((0xff lsl vshift) lor tb) in
  Bigarray.Array1.unsafe_set pl wi
    (cleared lor ((v land 0xff) lsl vshift) lor (if taint then tb else 0))

(* Halves take any alignment: an even half never crosses a word, and
   an odd one walks its two bytes out of line, which also handles the
   page-boundary crossing. *)

let[@inline never] get_half_odd t addr =
  let b0 = get_byte t addr and b1 = get_byte t (addr + 1) in
  Tword.make
    ~v:(Tword.value b0 lor (Tword.value b1 lsl 8))
    ~m:(Tword.mask b0 lor (Tword.mask b1 lsl 1))

let[@inline never] set_half_odd t addr v ~m =
  set_byte t addr (v land 0xff) ~taint:(m land 1 <> 0);
  set_byte t (addr + 1) ((v lsr 8) land 0xff) ~taint:(m land 2 <> 0)

let[@inline] get_half t addr =
  if addr land 1 = 0 then begin
    let elt = get_elt t addr in
    let k = addr land 3 in
    Tword.make ~v:((elt lsr (k lsl 3)) land 0xffff) ~m:((elt lsr (32 + k)) land 3)
  end
  else get_half_odd t addr

let[@inline] set_half t addr v ~m =
  if addr land 1 = 0 then begin
    let pl = write_plane t addr in
    let wi = (addr land page_mask) lsr 2 in
    let k = addr land 3 in
    let elt = Bigarray.Array1.unsafe_get pl wi in
    let vshift = k lsl 3 in
    let cleared = elt land lnot ((0xffff lsl vshift) lor (3 lsl (32 + k))) in
    Bigarray.Array1.unsafe_set pl wi
      (cleared lor ((v land 0xffff) lsl vshift) lor ((m land 3) lsl (32 + k)))
  end
  else set_half_odd t addr v ~m

(* --- uncounted accesses --- *)

(* A word is one element: its address is aligned and 32-bit, which
   every caller establishes first ([step_core] and the superblock tier
   fault a misaligned access before they make it), so neither is
   tested or masked here. *)
let[@inline] peek_word t addr = Tword.of_bits (get_elt t addr)

let[@inline] poke_word t addr w =
  Bigarray.Array1.unsafe_set (write_plane t addr) ((addr land page_mask) lsr 2) (Tword.to_bits w)

let[@inline] peek_half t addr = get_half t (addr land mask32)
let[@inline] peek_byte t addr = get_byte t (addr land mask32)
let[@inline] poke_half t addr v ~m = set_half t (addr land mask32) v ~m
let[@inline] poke_byte t addr v ~taint = set_byte t (addr land mask32) v ~taint

(* --- guest accesses: the uncounted access, then one count once it
   has succeeded (a faulting access never counts) --- *)

let[@inline] loaded t w =
  t.st.loads <- t.st.loads + 1;
  if Tword.is_tainted w then t.st.tainted_loads <- t.st.tainted_loads + 1;
  w

let[@inline] stored t tainted =
  t.st.stores <- t.st.stores + 1;
  if tainted then t.st.tainted_stores <- t.st.tainted_stores + 1

(* The word precondition, checked only when [debug_asserts] is set. *)
let[@inline never] misaligned_word addr =
  invalid_arg (Printf.sprintf "Memory: word access at 0x%x is not an aligned 32-bit address" addr)

let[@inline] check_word addr =
  if !debug_asserts && addr land (lnot mask32 lor 3) <> 0 then misaligned_word addr

let load_word t addr =
  check_word addr;
  loaded t (peek_word t addr)

let load_half t addr = loaded t (peek_half t addr)
let load_byte t addr = loaded t (peek_byte t addr)

let store_word t addr w =
  check_word addr;
  poke_word t addr w;
  stored t (Tword.is_tainted w)

let store_half t addr v ~m =
  poke_half t addr v ~m;
  stored t (Mask.is_tainted m)

let store_byte t addr v ~taint =
  poke_byte t addr v ~taint;
  stored t taint

let write_string t addr s ~taint =
  String.iteri (fun i c -> store_byte t (addr + i) (Char.code c) ~taint) s

let read_string t addr len =
  String.init len (fun i -> Char.chr (Tword.value (load_byte t (addr + i))))

let read_cstring t addr =
  let buf = Buffer.create 32 in
  let rec go i =
    if i < 65536 then begin
      let b = Tword.value (load_byte t (addr + i)) in
      if b <> 0 then begin
        Buffer.add_char buf (Char.chr b);
        go (i + 1)
      end
    end
  in
  go 0;
  Buffer.contents buf

(* --- ranges (word-at-a-time over the taint nibbles; the byte path
   handles unaligned edges and page boundaries) --- *)

let set_taint_bit t addr fill =
  let pl = write_plane t addr in
  let wi = (addr land page_mask) lsr 2 in
  let elt = Bigarray.Array1.unsafe_get pl wi in
  let tb = 1 lsl (32 + (addr land 3)) in
  Bigarray.Array1.unsafe_set pl wi (if fill = 1 then elt lor tb else elt land lnot tb)

let fill_taint t addr len fill =
  let nib = fill * 0xf in
  let a = ref (addr land mask32) and remaining = ref len in
  while !remaining > 0 do
    let addr = !a in
    let off = addr land page_mask in
    if addr land 3 = 0 && !remaining >= 4 then begin
      let words = min (!remaining lsr 2) ((page_bytes - off) lsr 2) in
      let pl = write_plane t addr in
      let w0 = off lsr 2 in
      for wi = w0 to w0 + words - 1 do
        let elt = Bigarray.Array1.unsafe_get pl wi in
        Bigarray.Array1.unsafe_set pl wi ((elt land 0xFFFFFFFF) lor (nib lsl 32))
      done;
      a := addr + (words lsl 2);
      remaining := !remaining - (words lsl 2)
    end
    else begin
      set_taint_bit t addr fill;
      incr a;
      decr remaining
    end
  done

let taint_range t addr len = if len > 0 then fill_taint t addr len 1
let untaint_range t addr len = if len > 0 then fill_taint t addr len 0

let tainted_in_range t addr len =
  let count = ref 0 in
  let a = ref (addr land mask32) and remaining = ref len in
  while !remaining > 0 do
    let addr = !a in
    let off = addr land page_mask in
    if addr land 3 = 0 && !remaining >= 4 then begin
      let words = min (!remaining lsr 2) ((page_bytes - off) lsr 2) in
      let pl = read_plane t addr in
      let w0 = off lsr 2 in
      for wi = w0 to w0 + words - 1 do
        count :=
          !count + Array.unsafe_get pop4 (Bigarray.Array1.unsafe_get pl wi lsr 32)
      done;
      a := addr + (words lsl 2);
      remaining := !remaining - (words lsl 2)
    end
    else begin
      if Tword.is_tainted (get_byte t addr) then incr count;
      incr a;
      decr remaining
    end
  done;
  !count

(* Fault-free taint summary, for hardware models (cache line tag
   summaries) that probe addresses the guest never mapped. *)
let taint_summary t addr len =
  let tainted = ref false in
  let a = ref (addr land mask32) and remaining = ref len in
  while (not !tainted) && !remaining > 0 do
    let addr = !a in
    let off = addr land page_mask in
    let chunk = min !remaining (page_bytes - off) in
    (match Hashtbl.find_opt t.pages (addr lsr 12) with
     | None -> ()
     | Some p ->
       let pl = p.plane in
       for i = off to off + chunk - 1 do
         if Bigarray.Array1.unsafe_get pl (i lsr 2) land (1 lsl (32 + (i land 3))) <> 0
         then tainted := true
       done);
    a := addr + chunk;
    remaining := !remaining - chunk
  done;
  !tainted

(* --- fault injection and invariant audit ---

   The injection entry points are the only sanctioned way to corrupt a
   memory from outside the CPU: each mutates one plane in place,
   cloning a COW-shared page first like every other writer.  The
   audit checks the derived state: the page-lookup cache, the dirty
   list, the records aligned with the base snapshot, the spare planes,
   and the zero plane every fresh page shares. *)

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun m -> failwith ("Memory.check_invariants: " ^ m)) fmt in
  for slot = 0 to cache_slots - 1 do
    let idx = t.cache_idx.(slot) in
    if idx >= 0 then
      match Hashtbl.find_opt t.pages idx with
      | Some p when p == t.cache_page.(slot) -> ()
      | Some _ -> fail "cache slot %d holds a stale record for page %d" slot idx
      | None -> fail "cache slot %d caches unmapped page %d" slot idx
  done;
  Hashtbl.iter
    (fun idx p ->
      if (not p.shared) && not (List.memq p t.dirty) then
        fail "private page %d is missing from the dirty list" idx)
    t.pages;
  (match t.base with
   | None -> ()
   | Some b ->
     let n = Array.length b.s_idx in
     if Array.length t.aligned <> n then
       fail "%d aligned records for a %d-page base" (Array.length t.aligned) n;
     for i = 0 to n - 1 do
       let idx = b.s_idx.(i) and p = t.aligned.(i) in
       (match Hashtbl.find_opt t.pages idx with
        | Some q when q == p -> ()
        | _ -> fail "aligned record %d is not the table's record for page %d" i idx);
       if p.slot <> i then fail "page %d records slot %d, aligned at %d" idx p.slot i;
       if p.shared && p.plane != b.s_planes.(i) then
         fail "shared page %d does not alias its base plane" idx
     done;
     if Hashtbl.length t.pages <> n + List.length t.grown then
       fail "%d pages mapped, base %d + grown %d" (Hashtbl.length t.pages) n
         (List.length t.grown));
  if t.nspare <> List.length t.spare || t.nspare > max_spares then
    fail "%d spare planes counted as %d (bound %d)" (List.length t.spare) t.nspare max_spares;
  let rec audit_spares i = function
    | [] -> ()
    | sp :: rest ->
      if sp == zero_plane then fail "spare plane %d is the zero plane" i;
      if List.memq sp rest then fail "spare plane %d is on the list twice" i;
      Hashtbl.iter
        (fun idx p -> if p.plane == sp then fail "spare plane %d backs page %d" i idx)
        t.pages;
      (match t.base with
       | Some b when Array.exists (fun pl -> pl == sp) b.s_planes ->
         fail "spare plane %d belongs to the base snapshot" i
       | _ -> ());
      audit_spares (i + 1) rest
  in
  audit_spares 0 t.spare;
  for wi = 0 to page_words - 1 do
    if Bigarray.Array1.unsafe_get zero_plane wi <> 0 then fail "zero plane written at word %d" wi
  done

let inject_flip_data t addr ~bit =
  let addr = addr land mask32 in
  let pl = write_plane t addr in
  let wi = (addr land page_mask) lsr 2 in
  let elt = Bigarray.Array1.unsafe_get pl wi in
  Bigarray.Array1.unsafe_set pl wi (elt lxor (1 lsl (((addr land 3) lsl 3) + (bit land 7))));
  if !debug_asserts then check_invariants t

let inject_set_taint_range t addr len ~tainted =
  fill_taint t addr len (if tainted then 1 else 0);
  if !debug_asserts then check_invariants t

let inject_wipe_taint t =
  Hashtbl.iter
    (fun _ p ->
      (* probe before cloning: a page with a clean taint plane needs no
         write, so a COW-shared clean page is left shared; a page still
         on the zero plane needs no probe *)
      let dirty = ref false in
      let pl = p.plane in
      if pl != zero_plane then
        for wi = 0 to page_words - 1 do
          if Bigarray.Array1.unsafe_get pl wi lsr 32 <> 0 then dirty := true
        done;
      if !dirty then begin
        if p.shared then clone_page t p;
        let pl = p.plane in
        for wi = 0 to page_words - 1 do
          let elt = Bigarray.Array1.unsafe_get pl wi in
          if elt lsr 32 <> 0 then Bigarray.Array1.unsafe_set pl wi (elt land 0xFFFFFFFF)
        done
      end)
    t.pages;
  if !debug_asserts then check_invariants t

(* --- snapshots ---

   [snapshot] marks every live page shared and hands out references to
   the same planes; [restore] builds a fresh memory whose pages alias
   the snapshot's planes, again shared.  Because every writer clones a
   shared plane first, snapshot planes are immutable after creation —
   which also makes a snapshot safe to restore concurrently from
   multiple domains (each restored memory clones privately on write). *)

(* Make [snap] the memory's base, [aligned] its records, and start a
   clean dirty/grown epoch. *)
let set_base t snap aligned =
  t.base <- Some snap;
  t.aligned <- aligned;
  t.dirty <- [];
  t.grown <- []

let snapshot t =
  let s_idx = Array.make (Hashtbl.length t.pages) 0 in
  ignore (Hashtbl.fold (fun idx _ i -> s_idx.(i) <- idx; i + 1) t.pages 0);
  Array.sort Int.compare s_idx;
  let aligned = Array.map (Hashtbl.find t.pages) s_idx in
  let s_planes =
    Array.mapi
      (fun i p ->
        p.shared <- true;
        p.slot <- i;
        p.plane)
      aligned
  in
  let snap = { s_idx; s_planes; s_stats = copy_stats t.st } in
  set_base t snap aligned;
  snap

(* Only the hash table: a fresh memory gets no aligned array (a
   page-set-sized array would be a major-heap allocation per boot), so
   its first [reset_from_snapshot] takes the rebuild path. *)
let restore snap =
  let t = create_with (copy_stats snap.s_stats) in
  Array.iteri
    (fun i idx ->
      Hashtbl.replace t.pages idx { plane = snap.s_planes.(i); shared = true; slot = i })
    snap.s_idx;
  t

let same_indices (a : int array) (b : int array) =
  a == b
  || Array.length a = Array.length b
     &&
     let rec go i = i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && go (i - 1)) in
     go (Array.length a - 1)

(* In-place [restore] for arena recycling, in three paths by what the
   memory last held:
   - [snap] is the base: re-point the pages cloned since at their base
     planes and drop the pages mapped since — O(pages touched);
   - [snap] has the base's page indices (another image of the same
     shape): re-point every aligned record in one pass, no hashing;
   - otherwise rebuild: reuse or create a record per snapshot page and
     drop every other page, in linear passes.
   Every path leaves each surviving record shared on the snapshot's
   plane, so the next write clones as usual, and flushes the lookup
   cache — both index and page slots, so no stale record pins a retired
   plane.  The stats go back to the snapshot's. *)
let reset_from_snapshot t snap =
  (* every cloned page is on [dirty], and its plane is its own: take
     those planes back before the records are re-pointed or dropped *)
  List.iter
    (fun p ->
      if (not p.shared) && t.nspare < max_spares then begin
        t.spare <- p.plane :: t.spare;
        t.nspare <- t.nspare + 1
      end)
    t.dirty;
  (match t.base with
   | Some b when b == snap || same_indices b.s_idx snap.s_idx ->
     let planes = snap.s_planes in
     if b == snap then
       List.iter
         (fun p ->
           if p.slot >= 0 then begin
             p.plane <- Array.unsafe_get planes p.slot;
             p.shared <- true
           end)
         t.dirty
     else
       (* images of one shape share most planes (every unwritten stack
          page is the zero plane), and skipping those stores skips
          their write barrier *)
       for i = 0 to Array.length planes - 1 do
         let p = Array.unsafe_get t.aligned i and plane = Array.unsafe_get planes i in
         if p.plane != plane then p.plane <- plane;
         p.shared <- true
       done;
     List.iter (Hashtbl.remove t.pages) t.grown;
     set_base t snap t.aligned
   | _ ->
     let n = Array.length snap.s_idx in
     Hashtbl.iter (fun _ p -> p.slot <- -1) t.pages;
     let aligned = Array.make n dummy_page in
     for i = 0 to n - 1 do
       let idx = snap.s_idx.(i) and plane = snap.s_planes.(i) in
       let p =
         match Hashtbl.find_opt t.pages idx with
         | Some p ->
           p.plane <- plane;
           p.shared <- true;
           p.slot <- i;
           p
         | None ->
           let p = { plane; shared = true; slot = i } in
           Hashtbl.replace t.pages idx p;
           p
       in
       aligned.(i) <- p
     done;
     if Hashtbl.length t.pages <> n then
       Hashtbl.filter_map_inplace (fun _ p -> if p.slot < 0 then None else Some p) t.pages;
     set_base t snap aligned);
  Array.fill t.cache_idx 0 cache_slots (-1);
  Array.fill t.cache_page 0 cache_slots dummy_page;
  let s = snap.s_stats in
  t.st.loads <- s.loads;
  t.st.stores <- s.stores;
  t.st.tainted_loads <- s.tainted_loads;
  t.st.tainted_stores <- s.tainted_stores;
  t.st.mapped_bytes <- s.mapped_bytes
