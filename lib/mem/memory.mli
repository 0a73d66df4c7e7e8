(** Taint-extended guest memory.

    Sparse, paged, byte-addressable, little-endian memory in which
    every byte carries a taintedness bit, implementing the extended
    memory model of section 4.1.  Pages live in a {!Tagged_store} —
    one flat buffer per page holding the data plane and the taint
    plane side by side — with word-granularity fast paths.  Pages must
    be mapped (via {!map_range}) before access; touching an unmapped
    address raises {!Fault}, which the simulator reports as a
    segmentation fault — this is what an undetected wild dereference
    does to the guest. *)

type t

type access = Load | Store

exception Fault of { addr : int; access : access }

val create : unit -> t

val map_range : t -> lo:int -> bytes:int -> unit
(** Map all pages covering [lo, lo+bytes).  Idempotent. *)

val is_mapped : t -> int -> bool

(** {1 Byte and word access}  All addresses are masked to 32 bits.
    Each call counts as one logical access in {!stats}, whatever its
    width. *)

val load_byte : t -> int -> int * bool
val store_byte : t -> int -> int -> taint:bool -> unit
val load_word : t -> int -> Ptaint_taint.Tword.t
val store_word : t -> int -> Ptaint_taint.Tword.t -> unit

val load_half : t -> int -> int * Ptaint_taint.Mask.t
(** Zero-extended 16-bit load; mask occupies the two low byte-bits. *)

val store_half : t -> int -> int -> m:Ptaint_taint.Mask.t -> unit

val load_byte_t : t -> int -> Ptaint_taint.Tword.t
(** [load_byte] packed into an immediate word (zero-extended, mask in
    bit 0) — the CPU's allocation-free byte-load path. *)

val load_half_t : t -> int -> Ptaint_taint.Tword.t
(** [load_half] packed into an immediate word. *)

val tainted_bytes : t -> int
(** Number of tainted memory bytes, recounted from the taint plane of
    every written page: O(written pages), since mapped pages never
    written still share the zero plane.  For tests and reports; no
    execution path reads it. *)

(** {1 Bulk access (host/OS side)} *)

val write_string : t -> int -> string -> taint:bool -> unit
val read_string : t -> int -> int -> string
val read_cstring : ?limit:int -> t -> int -> string
(** Read a NUL-terminated string (NUL excluded); stops at [limit]
    (default 65536) bytes. *)

(** {1 Taint ranges}  All three range operations raise {!Fault} on the
    first unmapped address they touch — including {!tainted_in_range},
    so a range probe cannot silently under-count an unmapped hole. *)

val taint_range : t -> int -> int -> unit
val untaint_range : t -> int -> int -> unit
val tainted_in_range : t -> int -> int -> int
(** Number of tainted bytes in [addr, addr+len). *)

val taint_summary : t -> int -> int -> bool
(** Whether any byte of [addr, addr+len) is tainted; unmapped bytes
    count as clean instead of faulting.  This is the probe hardware
    models (cache per-line tag summaries) use. *)

(** {1 Fault injection and invariant audit}

    {!Tagged_store} injection entry points lifted to this wrapper:
    addresses are masked to 32 bits and {!Tagged_store.Unmapped}
    becomes {!Fault}.  Injections model hardware faults, not guest
    accesses, so they never touch {!stats}. *)

val check_invariants : t -> unit
(** Audit the backing store's derived state
    ({!Tagged_store.check_invariants}).  Raises [Failure] on drift. *)

val inject_flip_data : t -> int -> bit:int -> unit
(** Flip one bit of the data byte at the address; taint plane
    untouched. *)

val inject_set_taint_range : t -> int -> int -> tainted:bool -> unit
(** Force the taint bit of every byte in [[addr, addr+len)] —
    [tainted:false] is the taint-loss fault, [tainted:true] spurious
    taint.  Data bytes untouched. *)

val inject_wipe_taint : t -> unit
(** Clear every taint bit (total taint loss). *)

(** {1 Copy-on-write snapshots}

    A {!snapshot} freezes the full state (both planes plus {!stats})
    without copying page data; {!restore} rebuilds an independent
    memory from it, sharing pages copy-on-write.  Restoring and then
    re-running a deterministic guest is bit-identical to reloading
    from scratch.  One snapshot may be restored concurrently from
    several domains. *)

type snapshot

val snapshot : t -> snapshot
(** Freeze [t]; the snapshot also becomes [t]'s base for
    {!reset_from_snapshot}. *)

val restore : snapshot -> t
(** An independent memory with the snapshot's contents.  Builds only
    the page table, so a restored memory's first
    {!reset_from_snapshot} rebuilds it. *)

val reset_from_snapshot : t -> snapshot -> unit
(** In-place {!restore} for arena recycling: rewind [t] (both planes
    and {!stats}) to the snapshot without building a fresh memory.
    Observationally equivalent to [restore snap]; the snapshot may
    come from a different image than the one [t] last ran.  Rewinding
    to the snapshot [t] last ran from costs O(pages written or mapped
    since); to another snapshot with the same page set, one pass over
    its pages; otherwise a linear rebuild
    ({!Tagged_store.reset_from_snapshot}). *)

(** {1 Statistics} *)

type stats = {
  mutable loads : int;
  mutable stores : int;
  mutable tainted_loads : int;  (** loads returning >= 1 tainted byte *)
  mutable tainted_stores : int;
  mutable mapped_bytes : int;
}

val stats : t -> stats

val tagged : t -> Tagged_store.t
(** The backing tagged page store.  The superblock tier's translated
    code drives the store's inline fast-path accessors directly —
    catching {!Tagged_store.Unmapped} itself and bumping {!stats}
    itself — instead of paying a call plus an exception handler per
    access through this module's wrappers.  Any such caller must keep
    the {!stats} accounting identical to the wrappers' ({!load_word}
    etc.).  Reading through the store directly also leaves {!stats}
    untouched, which is how tests compare memory contents. *)
