(** Five-stage in-order pipeline timing model (Figure 3).

    Layers cycle accounting over {!Machine}: instruction fetch goes
    through the L1I/L2 hierarchy, loads and stores through L1D/L2;
    taken control transfers flush the front end; a load immediately
    followed by a consumer stalls one cycle.  Taintedness tracking
    adds {e zero} cycles — the paper argues the OR-gate propagation
    and the single-bit detector checks are off the critical path
    (section 5.4) — but the model counts how many taint-gate
    operations the hardware would perform so the claim can be
    quantified. *)

type t

type stats = {
  mutable cycles : int;
  mutable instructions : int;
  mutable load_use_stalls : int;
  mutable control_flushes : int;
  mutable taint_gate_ops : int;
      (** OR-gate propagation events + detector checks performed *)
  mutable detector_checks : int;
}

val create : ?memory_latency:int -> Machine.t -> t
val step : t -> Machine.step
(** Executes one instruction on the wrapped machine and charges
    cycles.  A detected attack charges the full pipeline depth (the
    exception is raised at retirement). *)

val stats : t -> stats
