(** Campaign checkpoint manifests.

    A streaming campaign ({!Campaign.run_stream}) periodically saves a
    manifest — campaign identity, job cursor, and the merged
    {!Campaign.tally_dump} — so a killed run can restart where it left
    off.  The on-disk format is plain tab-separated text: every dump
    field is an int or a label string, so a save/load round trip is
    exact and a resumed campaign's final metrics table is
    byte-identical to an uninterrupted run's.  Each manifest has one
    text: {!parse} accepts only what {!render} writes. *)

type manifest = {
  id : string;
      (** Campaign identity (e.g. ["gen:seed=42:jobs=500:variants=8"]).
          Resume refuses a manifest whose [id] does not match the
          requested campaign, since folding counters from a different
          job stream would corrupt the tally silently. *)
  total : int;  (** Total jobs in the campaign. *)
  cursor : int;  (** Jobs [0, cursor) are already folded into [dump]. *)
  elapsed_us : int;
      (** Cumulative wall time (microseconds) spent across every prior
          run of this campaign — what lets a resumed run report
          end-to-end throughput and ETA rather than restarting the
          clock. *)
  dump : Campaign.tally_dump;
}

exception Checkpoint_write_error of { path : string; reason : string }
(** A checkpoint could not be persisted (disk full, permission,
    unwritable directory).  The temp file has been removed and the
    previous manifest at [path] — if any — is intact, so the caller
    can log and keep running; only checkpoint freshness was lost. *)

(** [save ~path m] writes [m] atomically and durably: the manifest is
    rendered to a temporary file in [path]'s directory, fsync'd, and
    renamed over [path] (followed by a best-effort directory fsync),
    so a crash mid-checkpoint leaves either the previous manifest or
    the new one, never a torn or unflushed file.  Raises
    {!Checkpoint_write_error} — not a raw [Sys_error] — on failure. *)
val save : path:string -> manifest -> unit

(** The manifest's text, exactly as {!save} writes it. *)
val render : manifest -> string

(** [parse text] reads back a manifest {!render} wrote.  Returns
    [Error _] for another format version, unknown, missing or
    misplaced lines, integers not written as [%d] writes them, or a
    text that does not end in the [end] sentinel line (a torn write on
    a non-atomic filesystem).  A manifest that parses renders back to
    exactly [text]. *)
val parse : string -> (manifest, string) result

(** [truncate_jsonl ~path ~lines] trims the JSONL result sink at [path]
    back to exactly [lines] lines, for resuming a campaign whose sink
    ran ahead of its last manifest (jobs completed and flushed after
    the final checkpoint).  [lines = 0] removes the file if present.
    Returns [Error _] if the sink holds fewer than [lines] lines —
    then the sink and manifest disagree and resuming would silently
    drop results. *)
val truncate_jsonl : path:string -> lines:int -> (unit, string) result
