(* Campaign checkpoint manifests.

   A streaming campaign periodically persists (identity, cursor,
   tally) so a killed run restarts where it left off.  The format is
   deliberately plain text, line-based and tab-separated: every field
   of a {!Campaign.tally_dump} is an int or a string, labels and
   counter names never contain tabs or newlines, and integers
   round-trip exactly — so a resumed campaign's final report is
   byte-identical to an uninterrupted one.  Version 2 stores every
   count once: jobs, instructions, syscalls and detections live only
   in the per-label counter rows.

   The parser accepts exactly what [render] writes: the lines in
   [render]'s order, integers as [%d] prints them, no blank lines, and
   a text that ends in [end\n].  So a manifest that loads re-renders
   to the bytes it was loaded from; anything else is an [Error].

   Writes are atomic and durable: temp file in the same directory,
   fsync'd before the rename so the rename can never promote
   unflushed data, then a best-effort directory fsync to persist the
   rename itself.  Any failure along the way raises the typed
   {!Checkpoint_write_error} with the temp file removed and the
   previous manifest untouched — a full disk costs one checkpoint,
   never the resume point.  The [end] sentinel additionally guards
   against a torn write surviving a non-atomic filesystem: a manifest
   without it is rejected. *)

type manifest = {
  id : string;  (* campaign identity; resume refuses a mismatch *)
  total : int;  (* total jobs the campaign will run *)
  cursor : int;  (* jobs [0, cursor) are folded into [dump] *)
  elapsed_us : int;  (* cumulative wall time over all prior runs *)
  dump : Campaign.tally_dump;
}

let magic = "ptaint-checkpoint v2"

let render m =
  let d = m.dump in
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "%s" magic;
  line "id\t%s" m.id;
  line "total\t%d" m.total;
  line "cursor\t%d" m.cursor;
  line "elapsed_us\t%d" m.elapsed_us;
  line "failed\t%d" d.Campaign.d_failed;
  line "violations\t%d" d.Campaign.d_violations;
  List.iter (fun pc -> line "site\t%d" pc) d.Campaign.d_sites;
  List.iter
    (fun (l, rows) ->
      line "label\t%s" l;
      List.iter (fun (name, v) -> line "counter\t%s\t%d" name v) rows)
    d.Campaign.d_counters;
  line "end";
  Buffer.contents b

exception Checkpoint_write_error of { path : string; reason : string }

let write_error path reason = raise (Checkpoint_write_error { path; reason })

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Persist the rename: fsync the containing directory.  Best-effort —
   some filesystems refuse O_RDONLY directory fsync — but a failure
   here only risks losing the *newest* manifest to a crash, never
   corrupting one, so it is not an error. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let save ~path m =
  let text = render m in
  let dir = Filename.dirname path in
  let tmp =
    try Filename.temp_file ~temp_dir:dir "ckpt" ".tmp"
    with Sys_error e -> write_error path e
  in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  (try
     let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         write_all fd text;
         (* the rename below must never promote unflushed data *)
         Unix.fsync fd)
   with
   | Unix.Unix_error (e, op, _) ->
     cleanup ();
     write_error path (Printf.sprintf "%s: %s" op (Unix.error_message e))
   | Sys_error e ->
     cleanup ();
     write_error path e);
  (try Sys.rename tmp path
   with Sys_error e ->
     cleanup ();
     write_error path e);
  fsync_dir dir

(* Parser: [render] read back line by line, in its order.  Unknown
   or misplaced lines are errors — a manifest is a contract between
   two runs of the same binary, not a config format with forward
   compatibility. *)
let parse text =
  let ( let* ) = Result.bind in
  let lines = ref (String.split_on_char '\n' text) in
  let next () = match !lines with l :: _ -> String.split_on_char '\t' l | [] -> [] in
  let take () = lines := List.tl !lines in
  let int_of key s =
    match int_of_string_opt s with
    | Some n when string_of_int n = s -> Ok n
    | _ -> Error (Printf.sprintf "manifest: bad integer %S for %s" s key)
  in
  let field key =
    match next () with
    | [ k; v ] when k = key -> take (); Ok v
    | _ -> Error (Printf.sprintf "manifest: missing %s" key)
  in
  let int_field key = Result.bind (field key) (int_of key) in
  (* zero or more lines [key \t fields...], each parsed by [f] *)
  let rec many key f acc =
    match next () with
    | k :: fields when k = key ->
      take ();
      let* x = f fields in
      many key f (x :: acc)
    | _ -> Ok (List.rev acc)
  in
  let site = function [ v ] -> int_of "site" v | _ -> Error "manifest: bad site line" in
  let counter = function
    | [ name; v ] -> Result.map (fun n -> (name, n)) (int_of "counter" v)
    | _ -> Error "manifest: bad counter line"
  in
  let label = function
    | [ l ] -> Result.map (fun rows -> (l, rows)) (many "counter" counter [])
    | _ -> Error "manifest: bad label line"
  in
  let* () =
    match !lines with
    | first :: _ when first = magic -> take (); Ok ()
    | first :: _ -> Error (Printf.sprintf "bad manifest magic %S" first)
    | [] -> Error "empty manifest"
  in
  let* id = field "id" in
  let* total = int_field "total" in
  let* cursor = int_field "cursor" in
  let* elapsed_us = int_field "elapsed_us" in
  let* d_failed = int_field "failed" in
  let* d_violations = int_field "violations" in
  let* d_sites = many "site" site [] in
  let* d_counters = many "label" label [] in
  match !lines with
  | [ "end"; "" ] ->
    Ok { id; total; cursor; elapsed_us;
         dump = { Campaign.d_failed; d_violations; d_counters; d_sites } }
  | "end" :: _ :: _ -> Error "manifest: content after end sentinel"
  | [] | [ "" ] | [ "end" ] -> Error "manifest: missing end sentinel (torn write?)"
  | l :: _ -> Error (Printf.sprintf "manifest: unrecognized line %S" l)

(* Resume hygiene for the JSONL result sink: the manifest says jobs
   [0, cursor) are folded, so the sink must hold exactly [cursor]
   lines before the resumed run appends line [cursor].  A run killed
   after flushing the sink but before the manifest rename leaves the
   sink longer — truncate it back; shorter means the sink and the
   manifest disagree (sink deleted or not flushed before checkpoint),
   which resume must refuse rather than silently double-count. *)
let truncate_jsonl ~path ~lines =
  if lines = 0 then begin
    (match Sys.file_exists path with
     | true -> Sys.remove path
     | false -> ());
    Ok ()
  end
  else
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic -> (
      (* byte offset just past the [lines]-th newline *)
      let rec scan seen pos =
        if seen = lines then Some pos
        else
          match input_char ic with
          | '\n' -> scan (seen + 1) (pos + 1)
          | _ -> scan seen (pos + 1)
          | exception End_of_file -> None
      in
      match scan 0 0 with
      | None ->
        close_in ic;
        Error
          (Printf.sprintf "result sink %s holds fewer than %d lines; refusing to resume"
             path lines)
      | Some pos ->
        close_in ic;
        (try
           Unix.LargeFile.truncate path (Int64.of_int pos);
           Ok ()
         with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)))
