type config = { sets : int; ways : int; line_bytes : int; hit_latency : int }

let l1_config = { sets = 128; ways = 2; line_bytes = 32; hit_latency = 1 }
let l2_config = { sets = 1024; ways = 4; line_bytes = 64; hit_latency = 8 }

type line = { mutable tag : int; mutable valid : bool; mutable lru : int; mutable tainted : bool }

type stats = { mutable hits : int; mutable misses : int; mutable tainted_lines_filled : int }

type t = { cfg : config; lines : line array array; st : stats; mutable tick : int }

let create cfg =
  assert (cfg.sets land (cfg.sets - 1) = 0 && cfg.line_bytes land (cfg.line_bytes - 1) = 0);
  { cfg;
    lines =
      Array.init cfg.sets (fun _ ->
          Array.init cfg.ways (fun _ -> { tag = 0; valid = false; lru = 0; tainted = false }));
    st = { hits = 0; misses = 0; tainted_lines_filled = 0 };
    tick = 0 }

type result = Hit | Miss

let set_and_tag t addr =
  let line_addr = addr / t.cfg.line_bytes in
  (line_addr land (t.cfg.sets - 1), line_addr / t.cfg.sets)

let find_way set tag =
  let rec go i = if i >= Array.length set then None
    else if set.(i).valid && set.(i).tag = tag then Some set.(i)
    else go (i + 1)
  in
  go 0

let victim_way set =
  Array.fold_left (fun best l -> if l.lru < best.lru then l else best) set.(0) set

(* The internal access returns the touched line so the hierarchy can
   propagate tag summaries between levels on refills. *)
let access_line t ~addr ~write ~tainted =
  t.tick <- t.tick + 1;
  let set_idx, tag = set_and_tag t addr in
  let set = t.lines.(set_idx) in
  match find_way set tag with
  | Some line ->
    t.st.hits <- t.st.hits + 1;
    line.lru <- t.tick;
    if write && tainted then line.tainted <- true;
    (Hit, line)
  | None ->
    t.st.misses <- t.st.misses + 1;
    let line = victim_way set in
    line.valid <- true;
    line.tag <- tag;
    line.lru <- t.tick;
    line.tainted <- tainted;
    if tainted then t.st.tainted_lines_filled <- t.st.tainted_lines_filled + 1;
    (Miss, line)

let access t ~addr ~write ~tainted = fst (access_line t ~addr ~write ~tainted)

(* Late taint propagation into a line filled this access: flips the
   summary and counts the fill as tainted exactly once. *)
let taint_filled_line t line =
  if not line.tainted then begin
    line.tainted <- true;
    t.st.tainted_lines_filled <- t.st.tainted_lines_filled + 1
  end

let line_tainted t ~addr =
  let set_idx, tag = set_and_tag t addr in
  match find_way t.lines.(set_idx) tag with Some l -> l.tainted | None -> false

let stats t = t.st

module Hierarchy = struct
  type cache = t
  type nonrec t = { l1 : t; l2 : t; memory_latency : int }

  let create ?(l1 = l1_config) ?(l2 = l2_config) ~memory_latency () =
    { l1 = create l1; l2 = create l2; memory_latency }

  let access h ~addr ~write ~tainted =
    match access_line h.l1 ~addr ~write ~tainted with
    | Hit, _ -> h.l1.cfg.hit_latency
    | Miss, l1_line -> (
      match access_line h.l2 ~addr ~write ~tainted with
      | Hit, l2_line ->
        (* The refill brings the L2 line's bytes — and therefore its
           tag summary — into L1, not just the taint of this access. *)
        if l2_line.tainted then taint_filled_line h.l1 l1_line;
        h.l1.cfg.hit_latency + h.l2.cfg.hit_latency
      | Miss, _ -> h.l1.cfg.hit_latency + h.l2.cfg.hit_latency + h.memory_latency)

  let l1 h = h.l1
  let l2 h = h.l2
end
