(** Metrics registry: counters, gauges and histograms, optionally
    labeled.

    A registry is cheap single-domain state: look a metric up once
    (get-or-create by name + label set), then bump it
    allocation-free.  Histograms bucket observations by power of two
    and track count/sum/min/max, which is enough to render a latency
    distribution without keeping samples.  {!prometheus} renders the
    whole registry in Prometheus text exposition format 0.0.4 for
    scraping. *)

type t

type labels = (string * string) list
(** Label pairs identify a child within a family: the same metric
    name with different label sets is a family of independent
    children.  Keep label values low-cardinality and bounded (outcome
    names, restart reasons) — every distinct set is a separate child held
    for the registry's lifetime, so a label per connection or per job
    grows the registry without end. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?labels:labels -> string -> counter
(** Get or create; raises [Invalid_argument] if [name] with these
    labels already names a different kind. *)

val gauge : t -> ?labels:labels -> string -> gauge
val histogram : t -> ?labels:labels -> string -> histogram

val inc : ?by:int -> counter -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {1 Reading} *)

type row = {
  name : string;
  labels : labels;
  kind : string;  (** ["counter"], ["gauge"] or ["histogram"] *)
  count : int;  (** counter value, or number of observations *)
  sum : float;
  min : float;
  max : float;
  mean : float;
}

val rows : t -> row list
(** One row per metric child, in registration order. *)

val prometheus : t -> string
(** Prometheus text exposition (format 0.0.4): families grouped under
    one [# TYPE] header in registration order, label values escaped,
    histograms rendered as cumulative [_bucket] series (le boundaries
    [2^i - 1], matching the internal log2 buckets) closed by [+Inf],
    [_sum] and [_count].  Metric and label names are sanitized to
    [[a-zA-Z0-9_:]]. *)
