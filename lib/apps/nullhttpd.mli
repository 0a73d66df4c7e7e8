(** NULL HTTPD analogue: heap overflow via a negative Content-Length
    (securityfocus bid 5774).

    A POST with Content-Length -800 makes the server allocate
    1024-800 = 224 body bytes; the body it then receives is larger and
    rewrites the free chunk behind the allocation.  [free] unlinks the
    corrupted chunk: [FD->bk = BK] becomes an attacker
    write-anything-anywhere, used here (as in the paper) to repoint
    the CGI-BIN configuration at "/bin" rather than to smash control
    data.  The detector fires on the store through the tainted FD. *)

val source : string

val cgi_root_symbol : string
(** The [char *cgi_root] global the non-control attack overwrites. *)

val get_cgi : string -> string
(** [get_cgi "sh"] builds the follow-up request that runs a CGI
    program named [sh] — [/bin/sh] once [cgi_root] is corrupted. *)

val post_request : content_length:int -> body:string -> string list
(** Messages for one POST session: the header block, then the body. *)
