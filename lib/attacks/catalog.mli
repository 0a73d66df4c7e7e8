(** The attack catalogue evaluated in section 5.1: the three synthetic
    programs of Figure 2 (plus a function-pointer variant), and the
    four real-world application attacks (WU-FTPD, NULL HTTPD, GHTTPD,
    traceroute). *)

val exp1_stack_smash : Scenario.t
(** Paper payload: 24 'a' bytes; the tainted return address is
    0x61616161 at [jr $31]. *)

val exp2_heap : Scenario.t
val exp3_format : Scenario.t
(** Paper payload: ["abcd%x%x%x%n"]; the tainted pointer is
    0x64636261 at the store inside the format engine. *)

val wuftpd_format_uid : Scenario.t
val nullhttpd_cgi_root : Scenario.t
val ghttpd_url_pointer : Scenario.t
val traceroute_double_free : Scenario.t

val all : Scenario.t list
(** Every scenario above, plus the return-to-libc variant of exp1
    (a targeted payload jumping to [root_shell], which demonstrably
    compromises the unprotected run), a function-pointer overwrite
    (exp4), and one attack per remaining taint source: a stack smash
    via an oversized $HOME (environment) and a format-string attack
    via a poisoned configuration file (file system).  Look these up
    by [Scenario.name]. *)

val real_world : Scenario.t list
