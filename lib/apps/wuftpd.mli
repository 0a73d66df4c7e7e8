(** WU-FTPD analogue: an FTP server with the SITE EXEC format-string
    vulnerability (securityfocus bid 1387).

    The non-control-data attack of Table 2 overwrites the logged-in
    user's uid word via [%hhn] writes, then uploads a replacement
    /etc/passwd with root-only [STOR].  No control data is touched, so
    control-flow-integrity baselines see nothing; the pointer
    taintedness detector fires at the first store through the tainted
    target address inside [vformat]. *)

val source : string

val uid_symbol : string
(** Global holding the authenticated user's uid — the attack target
    (the paper's 0x1002bc20 word). *)

val login_session : string list
(** USER/PASS prefix every session starts with (user1 / xxxxxxx). *)

val site_exec : string -> string
(** Build a [site exec] command line. *)

val stor_passwd : string
(** The follow-up command that rewrites /etc/passwd with a root
    backdoor ("alice" with uid 0), permitted only when uid = 0. *)

val passwd_path : string
val backdoor_line : string
