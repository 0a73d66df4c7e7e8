(** Persistent domain pool: a fixed set of worker domains behind a
    task queue.

    The pool underpins the campaign engine ([Campaign.run_stream] and
    [Campaign.run_jobs]) and the ptaintd scheduler, which both post
    one closure per admitted job.  [?domains] counts {e worker}
    domains: the caller (the campaign pump, the daemon's event loop)
    never executes tasks itself. *)

type service

val service : ?domains:int -> unit -> service
(** Spawn [domains] (default [Domain.recommended_domain_count], floored at 1) worker domains
    blocking on an empty task queue. *)

val service_size : service -> int
(** Number of worker domains. *)

val post : service -> (unit -> unit) -> unit
(** Enqueue a task; an idle worker picks it up.  Exceptions escaping
    the task are swallowed — a poisoned task never kills a worker
    domain; report outcomes through the closure.  Raises
    [Invalid_argument] after {!stop}. *)

val stop : service -> unit
(** Let the queue drain, then join every worker.  The service cannot
    be restarted. *)
