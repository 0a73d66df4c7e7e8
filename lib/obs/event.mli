(** The observability event taxonomy.

    One constructor per thing worth narrating about a run: taint
    entering the guest (which syscall, which address range, which byte
    offsets of the external input), propagation milestones (the first
    time a register becomes tainted, the first tainted store into each
    memory region), detections and faults, syscalls, snapshot-restore
    boots and injected faults.  Every event is guest-timed: its
    [cycle] is the guest instruction count when it fired.  Wall-clock
    job spans are not events; {!Chrome.job_span} writes them.  Events
    are plain data — ints and strings only — so the library sits
    below the CPU/OS layers and every producer can construct them
    without allocation-heavy dependencies. *)

type t =
  | Taint_in of { cycle : int; source : string; addr : int; len : int; offset : int }
      (** [source] (e.g. ["recv(network)"]) delivered [len] tainted
          bytes at guest address [addr]; [offset] is the cumulative
          byte offset of this delivery within all external input. *)
  | Reg_taint of { cycle : int; pc : int; reg : string }
      (** First time register [reg] became tainted in this run. *)
  | Tainted_store of { cycle : int; pc : int; addr : int; len : int; region : string }
      (** First tainted store into [region] ("stack" / "heap/data"). *)
  | Alert of { cycle : int; pc : int; kind : string; reg : string; value : int }
  | Fault of { cycle : int; pc : int; desc : string }
  | Syscall of { cycle : int; pc : int; name : string }
  | Restore of { cycle : int }  (** session booted from a snapshot restore *)
  | Fault_injected of { cycle : int; model : string; target : string }
      (** the fault-injection engine corrupted machine state: fault
          [model] (e.g. ["taint-loss"]) applied to [target] (a
          register slot or address range). *)

val cycle : t -> int
(** Guest instruction count when the event fired. *)

val to_string : t -> string
