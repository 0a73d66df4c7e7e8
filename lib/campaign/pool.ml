let recommended_domains () = max 1 (Domain.recommended_domain_count ())

(* A [service] keeps a fixed set of worker domains alive behind a
   mutex/condition task queue: [post] enqueues a closure, an idle
   worker picks it up, and [stop] lets the queue drain before joining
   every worker.  Tasks run with exceptions contained (a poisoned task
   can never kill a worker domain); callers that care about a task's
   outcome communicate through the closure. *)

type service = {
  mu : Mutex.t;
  cv : Condition.t;  (* signalled on enqueue and on stop *)
  tasks : (unit -> unit) Queue.t;
  mutable stopping : bool;  (* no new posts; workers exit once drained *)
  mutable workers : unit Domain.t list;
  size : int;
}

let service_worker s () =
  Printexc.record_backtrace true;
  let rec loop () =
    Mutex.lock s.mu;
    while Queue.is_empty s.tasks && not s.stopping do
      Condition.wait s.cv s.mu
    done;
    if Queue.is_empty s.tasks then Mutex.unlock s.mu (* stopping, drained *)
    else begin
      let t = Queue.pop s.tasks in
      Mutex.unlock s.mu;
      (try t () with _ -> ());
      loop ()
    end
  in
  loop ()

let service ?(domains = recommended_domains ()) () =
  let s =
    { mu = Mutex.create ();
      cv = Condition.create ();
      tasks = Queue.create ();
      stopping = false;
      workers = [];
      size = max 1 domains }
  in
  s.workers <- List.init s.size (fun _ -> Domain.spawn (service_worker s));
  s

let service_size s = s.size

let post s task =
  Mutex.lock s.mu;
  if s.stopping then begin
    Mutex.unlock s.mu;
    invalid_arg "Pool.post: service is stopped"
  end;
  Queue.push task s.tasks;
  Condition.signal s.cv;
  Mutex.unlock s.mu

let stop s =
  Mutex.lock s.mu;
  s.stopping <- true;
  Condition.broadcast s.cv;
  Mutex.unlock s.mu;
  List.iter Domain.join s.workers;
  s.workers <- []
