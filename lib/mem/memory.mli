(** Taint-extended guest memory.

    Sparse, paged, byte-addressable, little-endian memory in which
    every byte carries a taintedness bit, implementing the extended
    memory model of section 4.1.  Each 4 KiB guest page is one flat
    [Bigarray] of [page_bytes / 4] native ints — one element per
    aligned guest word, holding the word's packed
    {!Ptaint_taint.Tword} bits (value in bits 0–31, one taint bit per
    byte in bits 32–35) — so an aligned word access is a single
    element read or write and a page's tags share its data's cache
    lines.

    Pages must be mapped (via {!map_range}) before access; touching an
    unmapped address raises {!Unmapped}, which the simulator reports as
    a segmentation fault — this is what an undetected wild dereference
    does to the guest.  Every address argument is masked to 32 bits,
    except a word access's, which must already be aligned and 32-bit
    (see {!load_word}).

    Pages are shared copy-on-write: {!snapshot} freezes the current
    contents, {!restore} builds a memory aliasing the snapshot's
    pages, and the first write to a shared page clones it.  Every newly
    mapped page shares one process-wide all-zero plane the same way.
    Snapshot planes and the zero plane are never written, so one
    snapshot may be restored concurrently from many domains. *)

type t

type access = Load | Store
(** The kind of guest access a fault report names. *)

exception Unmapped of int
(** The first unmapped address an operation touched. *)

val create : unit -> t

val map_range : t -> lo:int -> bytes:int -> unit
(** Map all pages covering [lo, lo+bytes), zero-filled and untainted.
    Idempotent.  Mapping allocates no page data. *)

val is_mapped : t -> int -> bool

val mapped_pages : t -> int list
(** Indices of every mapped page, ascending. *)

val tainted_bytes : t -> int
(** Number of tainted memory bytes, recounted from the taint plane of
    every written page: O(written pages), since mapped pages never
    written still share the zero plane.  For tests and reports; no
    execution path reads it. *)

(** {1 Guest accesses}

    The accesses a guest makes — [step_core]'s loads and stores, the
    kernel's copies and the loader's writes.  Each call counts as one
    logical access in {!stats}, whatever its width, once it succeeds.
    Loads return the data packed as a {!Ptaint_taint.Tword},
    zero-extended, with one mask bit per byte read.  Halves and bytes
    take any address and alignment; a half crossing into an unmapped
    page raises {!Unmapped}. *)

val load_word : t -> int -> Ptaint_taint.Tword.t
(** The address must be a multiple of 4 below 2{^32}: a word is
    then one page element.  The per-step engine faults a misaligned
    [lw]/[sw] before it calls here, and the loader aligns its cursor.
    When {!debug_asserts} is set a violation raises [Invalid_argument];
    otherwise it is not checked. *)

val load_half : t -> int -> Ptaint_taint.Tword.t
val load_byte : t -> int -> Ptaint_taint.Tword.t

val store_word : t -> int -> Ptaint_taint.Tword.t -> unit
(** Same precondition as {!load_word}. *)

val store_half : t -> int -> int -> m:Ptaint_taint.Mask.t -> unit
val store_byte : t -> int -> int -> taint:bool -> unit

val write_string : t -> int -> string -> taint:bool -> unit
(** One {!store_byte} per byte. *)

val read_string : t -> int -> int -> string
(** One {!load_byte} per byte. *)

val read_cstring : t -> int -> string
(** Read a NUL-terminated string (NUL excluded), one {!load_byte} per
    byte; stops after 65536 bytes. *)

(** {1 Uncounted accesses}

    The same accesses, leaving {!stats} untouched: the superblock
    tier's translated code, which charges a whole block's loads and
    stores at its entry, and inspection reads (backtraces, the
    debugger's memory view, test comparisons), which are not guest
    accesses.  The word and half accessors are forced inline; a word,
    or an even half, is one element access. *)

val peek_word : t -> int -> Ptaint_taint.Tword.t
(** {!load_word}'s precondition, never checked here: the translated
    code tests alignment before every word access, and inspection
    readers mask and align their addresses. *)

val peek_half : t -> int -> Ptaint_taint.Tword.t
val peek_byte : t -> int -> Ptaint_taint.Tword.t

val poke_word : t -> int -> Ptaint_taint.Tword.t -> unit
(** Same precondition as {!peek_word}. *)

val poke_half : t -> int -> int -> m:Ptaint_taint.Mask.t -> unit
val poke_byte : t -> int -> int -> taint:bool -> unit

(** {1 Taint ranges}  Word-at-a-time over the taint bits; uncounted.
    All three raise {!Unmapped} on the first unmapped address they
    touch — including {!tainted_in_range}, so a range probe cannot
    silently under-count an unmapped hole. *)

val taint_range : t -> int -> int -> unit
val untaint_range : t -> int -> int -> unit
val tainted_in_range : t -> int -> int -> int
(** Number of tainted bytes in [addr, addr+len). *)

val taint_summary : t -> int -> int -> bool
(** Whether any byte of [addr, addr+len) is tainted; unmapped bytes
    count as clean instead of faulting.  This is the probe hardware
    models (cache per-line tag summaries) use. *)

(** {1 Fault injection and invariant audit}

    The only sanctioned way to corrupt a memory from outside the CPU:
    each entry point touches exactly one plane, in place, and clones a
    copy-on-write page before writing it like any other writer.
    Injections model hardware faults, not guest accesses, so they
    never touch {!stats}. *)

val check_invariants : t -> unit
(** Audit the derived state: every populated page-cache slot aliases
    the live page record for its index; every private (cloned) page
    record is on the dirty list; the records aligned with the base
    snapshot are the table's records for its indices, and those still
    shared alias its planes; the mapped pages are exactly the base's
    plus those mapped since; no spare plane kept for reuse backs a
    page, belongs to the base snapshot or is the zero plane; and the
    zero plane is still all zero.  Raises [Failure] with a description
    on the first violation.  A debug audit, not a fast path. *)

val debug_asserts : bool ref
(** When set, every injection entry point (and [Fi.apply], whatever
    the fault) runs {!check_invariants} after mutating, and
    {!load_word}/{!store_word} check their address — the debug assert
    hook for tests. *)

val inject_flip_data : t -> int -> bit:int -> unit
(** Flip bit [bit land 7] of the data byte at the address; the taint
    plane is untouched. *)

val inject_set_taint_range : t -> int -> int -> tainted:bool -> unit
(** Force the taint bit of every byte in [[addr, addr+len)] —
    [tainted:false] is the taint-loss fault, [tainted:true] spurious
    taint.  Data bytes untouched. *)

val inject_wipe_taint : t -> unit
(** Clear every taint bit (total taint loss).  Shared pages are
    cloned before writing, so snapshots are unaffected. *)

(** {1 Copy-on-write snapshots} *)

type snapshot

val snapshot : t -> snapshot
(** Freeze the full state — the mapped page indices, the planes they
    hold, and {!stats} — without copying page data: O(pages).  The
    live memory keeps working and clones pages as it writes them.  The
    snapshot becomes [t]'s base for {!reset_from_snapshot}. *)

val restore : snapshot -> t
(** An independent memory with the snapshot's contents and stats,
    sharing pages copy-on-write.  Restoring and then re-running a
    deterministic guest is bit-identical to reloading from scratch.
    Builds only the page table, so a restored memory's first
    {!reset_from_snapshot} takes the rebuild path. *)

val reset_from_snapshot : t -> snapshot -> unit
(** In-place {!restore} for arena recycling: rewind [t] (both planes
    and {!stats}) to the snapshot, reusing its page records and lookup
    cache storage.  Observationally equivalent to [restore snap]; the
    snapshot may come from a different image than the one [t] last
    ran.  The cost depends on what [t] last held:
    - [snap] itself (its base): O(pages written or mapped since);
    - another snapshot with the same page indices: one pass over the
      pages, no hashing;
    - anything else (including a memory fresh from {!restore}): a
      linear rebuild of the page table.

    In every case the private planes of the pages written since are
    kept, up to a small bound, and later copy-on-write clones reuse
    them instead of allocating. *)

(** {1 Statistics} *)

type stats = {
  mutable loads : int;
  mutable stores : int;
  mutable tainted_loads : int;  (** loads returning >= 1 tainted byte *)
  mutable tainted_stores : int;
  mutable mapped_bytes : int;
}

val stats : t -> stats
(** The live record: the guest-access family bumps it per access, the
    superblock tier per block. *)
