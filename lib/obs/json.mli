(** JSON string escaping, shared by every JSON and logfmt writer in
    the project (log records, Chrome traces, campaign JSONL, bench
    results). *)

val add_escaped : Buffer.t -> string -> unit
(** Append [s] as the inside of a JSON string literal: double quote
    and backslash get a backslash, newline, carriage return and tab
    their short escapes, every other control byte a six-character
    unicode escape, and all other bytes pass as they are (so UTF-8
    passes through). *)

val escape : string -> string
(** {!add_escaped} into a fresh string. *)
