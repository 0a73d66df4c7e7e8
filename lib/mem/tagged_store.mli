(** The unified tagged page store backing {!Memory}.

    Each 4 KiB guest page is one flat [Bigarray] of [page_bytes / 4]
    native ints — one element per aligned guest word, holding the
    word's packed {!Ptaint_taint.Tword} bits (value in bits 0–31, one
    taint bit per byte in bits 32–35).  An aligned word access is a
    single array element read or write, and a page's tags live on the
    same cache lines as its data, the way the paper's extended memory
    carries taint bits alongside each word (section 4.1).

    Addresses are guest-physical, already masked to 32 bits by the
    caller; accessing an unmapped page raises {!Unmapped} (the
    {!Memory} wrapper turns this into its [Fault]).

    Pages support copy-on-write sharing: {!snapshot} freezes the
    current contents, {!restore} builds a new store aliasing the
    snapshot's pages, and the first write to a shared page clones it.
    Every newly mapped page shares one process-wide all-zero plane the
    same way.  Snapshot planes and the zero plane are never written,
    so one snapshot may be restored concurrently from many domains. *)

type t

exception Unmapped of int

val create : unit -> t

val map_page : t -> int -> bool
(** [map_page t idx] maps page [idx] (zero-filled, untainted);
    returns [true] iff the page was not already mapped.  The page
    shares the process-wide zero plane, so mapping allocates no page
    data; its first write clones the plane like any shared page. *)

val is_mapped : t -> int -> bool
(** By page index. *)

val mapped_pages : t -> int list
(** Indices of every mapped page, ascending. *)

val tainted_bytes : t -> int
(** Number of tainted bytes across all mapped pages, recounted from
    the taint plane on every call.  Pages still on the zero plane are
    skipped, so the cost is O(written pages).  For tests and reports;
    no execution path reads it. *)

(** {1 Access}  [load_word]/[store_word] and the half-word pair take
    any alignment; accesses crossing into an unmapped page raise
    {!Unmapped} with the first unmapped address. *)

val load_byte : t -> int -> int * bool
val store_byte : t -> int -> int -> taint:bool -> unit
val load_word : t -> int -> Ptaint_taint.Tword.t
val store_word : t -> int -> Ptaint_taint.Tword.t -> unit
val load_half : t -> int -> int * Ptaint_taint.Mask.t
val store_half : t -> int -> int -> m:Ptaint_taint.Mask.t -> unit

(** {1 CPU fast-path access}

    Inline variants for the superblock tier's translated closures,
    which check alignment {e before} the access and handle
    {!Unmapped} themselves: the word accessors require a 4-aligned
    address, the half pair an even one (neither can then cross a
    page).  [load_byte_tw] and [load_half_even] return the data packed
    as a {!Ptaint_taint.Tword} so nothing on the path allocates. *)

val store_word_aligned : t -> int -> Ptaint_taint.Tword.t -> unit

val load_word_elt : t -> int -> int
(** Raw packed element at a 4-aligned address — the word's value bits
    0..31 plus its four taint tags at bits 32..35, with no masking or
    re-packing at all.  The superblock tier's [lw]: the element is the
    Tword bit pattern, so the translated closure stores it straight
    into the register file. *)
val load_byte_tw : t -> int -> Ptaint_taint.Tword.t
val load_half_even : t -> int -> Ptaint_taint.Tword.t
val store_half_even : t -> int -> int -> m:Ptaint_taint.Mask.t -> unit

(** {1 Taint plane ranges} *)

val taint_range : t -> int -> int -> unit
val untaint_range : t -> int -> int -> unit

val tainted_in_range : t -> int -> int -> int
(** Number of tainted bytes in [addr, addr+len); raises {!Unmapped}
    like the accessors. *)

val taint_summary : t -> int -> int -> bool
(** Whether any byte of [addr, addr+len) is tainted, treating
    unmapped bytes as clean — the fault-free probe cache models use
    to derive per-line tag summaries. *)

(** {1 Fault injection and invariant audit}

    Entry points for the fault-injection engine.  They are the only
    sanctioned way to corrupt a store from outside the CPU: each one
    touches exactly one plane, in place, and clones a COW-shared page
    before writing it like any other writer. *)

val check_invariants : t -> unit
(** Audit the store's derived state: every populated page-cache slot
    aliases the live page record for its index; every private
    (cloned) page record is on the dirty list; the records aligned
    with the base snapshot are the table's records for its indices,
    and those still shared alias its planes; the mapped pages are
    exactly the base's plus those mapped since; no spare plane kept
    for reuse backs a page, belongs to the base snapshot or is the
    zero plane; and the zero plane is still all zero.  Raises [Failure] with a description on the first
    violation.  A debug audit, not a fast path. *)

val debug_asserts : bool ref
(** When set, every injection entry point runs {!check_invariants}
    after mutating — the debug assert hook for fi tests. *)

val inject_flip_data : t -> int -> bit:int -> unit
(** Flip bit [bit land 7] of the data byte at the given address; the
    taint plane is untouched.  Raises {!Unmapped} like the
    accessors. *)

val inject_set_taint_range : t -> int -> int -> tainted:bool -> unit
(** [inject_set_taint_range t addr len ~tainted] forces the taint bit
    of every byte in [[addr, addr+len)], data bytes untouched.
    [tainted:false] is the taint-loss fault, [tainted:true] spurious
    taint.  Raises {!Unmapped} like the accessors. *)

val inject_wipe_taint : t -> unit
(** Clear every taint bit in the store — the "total taint loss"
    fault.  COW-shared pages are cloned before writing, so snapshots
    are unaffected; pages still on the zero plane are skipped. *)

(** {1 Copy-on-write snapshots} *)

type snapshot

val snapshot : t -> snapshot
(** Freeze the current contents: the mapped page indices in ascending
    order and, in a parallel array, the planes they hold.  O(pages),
    copies no page data; the live store keeps working and clones
    pages as it writes them.  The snapshot becomes the store's base
    for {!reset_from_snapshot}. *)

val restore : snapshot -> t
(** A fresh store with the snapshot's contents, sharing pages
    copy-on-write.  Safe to call concurrently from multiple domains.
    It builds only the page table, so the store's first
    {!reset_from_snapshot} takes the rebuild path. *)

val reset_from_snapshot : t -> snapshot -> unit
(** In-place {!restore} for arena recycling: rewind [t] to the
    snapshot's contents, reusing its page records and lookup cache
    storage.  Pages the store mapped beyond the snapshot are dropped;
    surviving records alias the snapshot's planes shared, so the next
    write clones as usual.  Observationally equivalent to replacing
    [t] with [restore snap]; the snapshot may belong to a different
    store/image than the one [t] last ran.  The cost depends on what
    [t] last held:
    - [snap] itself (the store's base): O(pages written or mapped
      since) — the written pages go back to their base planes and the
      mapped ones are dropped;
    - another snapshot with the same page indices: one pass over the
      pages, no hashing;
    - anything else (including a store fresh from {!restore}): a
      linear rebuild of the page table.

    In every case the private planes of the pages written since are
    kept, up to a small bound per store, and later copy-on-write
    clones reuse them instead of allocating. *)
