(** Attack payload construction.

    These helpers encode the byte-level mechanics real exploits use:
    little-endian address planting for stack smashes, fake chunk
    headers for heap unlink abuse, and the width-counted [%hhn]
    format-string write primitive. *)

val le_word : int -> string
(** Four little-endian bytes of a 32-bit value. *)

val fill : ?byte:char -> int -> string

val overflow_word : pad:int -> ?byte:char -> int -> string
(** [overflow_word ~pad value]: [pad] filler bytes followed by the
    little-endian [value] — the classic return-address smash. *)

val fake_chunk : size:int -> fd:int -> bk:int -> string
(** A forged free-chunk header (size word with the in-use bit clear,
    then fd and bk) as written past an overflowed allocation. *)

val format_write_word : ap_skip_words:int -> target:int -> value:int -> string
(** A format string that writes the four bytes of the little-endian
    [value] to [target] .. [target+3], using width-padded [%x]
    directives to steer the output count and one [%hhn] per byte.
    [ap_skip_words] is the distance in words from where the format
    engine's argument pointer starts to the buffer holding this
    payload (0 when the vulnerable copy is the lowest local of the
    caller).  The payload is self-contained: it embeds the junk words
    each [%x] consumes and the target addresses each [%hhn]
    dereferences, with all addresses placed after the directives so
    embedded NUL bytes do not truncate formatting. *)

val normalize_path : string -> string
(** Resolve ["/a/b/../c"] to ["/a/c"] — used to judge whether a
    recorded [exec] path escapes its root. *)
