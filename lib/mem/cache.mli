(** Set-associative cache model carrying taintedness.

    The paper extends L1/L2 caches so that taintedness bits travel
    with cache lines (section 4.1).  Here the guest memory remains the
    authoritative store; the cache model tracks tags, LRU state, a
    per-line taint summary (set when a fill or write brings tainted
    bytes into the line), and hit/miss statistics that feed the
    pipeline timing model. *)

type t

type config = {
  sets : int;        (** number of sets; power of two *)
  ways : int;
  line_bytes : int;  (** power of two *)
  hit_latency : int; (** cycles *)
}

val create : config -> t

type result = Hit | Miss

val access : t -> addr:int -> write:bool -> tainted:bool -> result
(** Simulate one access; fills the line on a miss.  [tainted] marks
    the line's taint summary (on writes and fills). *)

val line_tainted : t -> addr:int -> bool
(** Taint summary of the resident line, false if not resident. *)

type stats = { mutable hits : int; mutable misses : int; mutable tainted_lines_filled : int }

val stats : t -> stats

(** {1 Two-level hierarchy} *)

module Hierarchy : sig
  type cache = t
  type t

  val create : ?l1:config -> ?l2:config -> memory_latency:int -> unit -> t
  (** Defaults: a 128-set, 2-way L1 of 32-byte lines hitting in 1
      cycle, and a 1024-set, 4-way L2 of 64-byte lines hitting in 8. *)

  val access : t -> addr:int -> write:bool -> tainted:bool -> int
  (** Returns the access latency in cycles: L1 hit latency, plus L2 on
      an L1 miss, plus memory latency on an L2 miss.  An L1 refill
      served from L2 inherits the L2 line's taint summary, so the L1
      summary never understates the tag plane it caches. *)

  val l1 : t -> cache
  val l2 : t -> cache
end
