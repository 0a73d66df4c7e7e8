(** GHTTPD analogue: stack buffer overflow in the request-logging path
    (securityfocus bid 5960).

    The non-control-data attack corrupts the [url] pointer — a local
    sitting between the 200-byte log buffer and the frame pointer —
    {e after} the "/.." security policy has been checked, redirecting
    it to a second request fragment that names
    [/cgi-bin/../../../../bin/sh].  Control data is never touched; the
    detector fires on the first load-byte through the tainted URL
    pointer. *)

val source : string

val overflow_to_url : int
(** Bytes from the log buffer to the [url] pointer local. *)

val attack_tail : string
(** The second fragment the corrupted pointer is aimed at. *)
