(* Content-addressed cache of built guest images.

   ptaintd's repeat-submission fast path: the first time a program
   arrives, the daemon pays assembly/compilation, block-table
   pre-decoding and boot-image construction once, and keeps the
   result as a [Sim.template] (program + copy-on-write memory
   snapshot).  Every later submission with the same
   {!Ptaint_campaign.Job.image_key} boots by restoring the snapshot —
   O(restore) instead of O(assemble + load) — under whatever policy,
   stdin or fuel the new job asks for (the key covers exactly the
   inputs that shape the boot image, so a hit is always safe to
   reuse).

   The cache is shared by all worker domains: lookups and insertions
   take a mutex, but building — the expensive part — happens outside
   it, so two workers missing on different keys compile in parallel.
   Two workers racing on the *same* key may both build; the second
   insert is dropped.

   Eviction is LRU by a monotonic use clock (touch is O(1), no
   recency list to rebuild) and happens in the same critical section
   that publishes the incoming entry, *before* the insert: the table
   never holds more than [capacity] boot templates, and the victim's
   program and snapshot become unreachable the moment it is chosen —
   not at some later insert. *)

type entry = {
  program : Ptaint_asm.Program.t;
  template : Ptaint_sim.Sim.template;
}

type slot = { e : entry; mutable last_use : int }

type t = {
  mu : Mutex.t;
  table : (string, slot) Hashtbl.t;
  capacity : int;
  mutable clock : int;  (* bumps on every hit or insert *)
  mutable evictions : int;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  { mu = Mutex.create ();
    table = Hashtbl.create (2 * capacity);
    capacity;
    clock = 0;
    evictions = 0 }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some s ->
        s.last_use <- tick t;
        Some s.e
      | None -> None)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key s acc ->
        match acc with
        | Some (_, best) when best <= s.last_use -> acc
        | _ -> Some (key, s.last_use))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1

let insert t key entry =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some s ->
        (* racing build on the same key: the first insert won; treat
           the loser's arrival as a use of the survivor *)
        s.last_use <- tick t
      | None ->
        if Hashtbl.length t.table >= t.capacity then evict_lru t;
        Hashtbl.replace t.table key { e = entry; last_use = tick t })

(* Build-or-reuse for a job.  Returns the entry plus whether it was a
   hit.  Raises the toolchain's typed errors on malformed sources —
   callers run inside the campaign engine's classification net. *)
let obtain t (spec : Ptaint_campaign.Job.t) =
  let key = Ptaint_campaign.Job.image_key spec in
  match find t key with
  | Some e -> (e, true)
  | None ->
    let program = Ptaint_campaign.Job.program spec in
    let template =
      Ptaint_sim.Sim.prepare ~config:spec.Ptaint_campaign.Job.config program
    in
    let e = { program; template } in
    insert t key e;
    (e, false)

let length t = locked t (fun () -> Hashtbl.length t.table)

let counters t =
  locked t (fun () ->
      [ ("daemon/cache-evictions", t.evictions);
        ("daemon/cache-entries", Hashtbl.length t.table);
        ("daemon/cache-capacity", t.capacity) ])
