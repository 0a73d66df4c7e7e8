(* Taint-extended memory and cache model tests. *)

open Ptaint_mem
open Ptaint_taint

let base = Layout.data_base

let fresh ?(bytes = 64 * 1024) () =
  let m = Memory.create () in
  Memory.map_range m ~lo:base ~bytes;
  m

let test_byte_roundtrip () =
  let m = fresh () in
  Memory.store_byte m base 0xAB ~taint:true;
  let v, t = Memory.load_byte m base in
  Alcotest.(check int) "value" 0xAB v;
  Alcotest.(check bool) "taint" true t;
  Memory.store_byte m base 0xCD ~taint:false;
  let v, t = Memory.load_byte m base in
  Alcotest.(check int) "overwritten" 0xCD v;
  Alcotest.(check bool) "untainted now" false t

let test_word_roundtrip () =
  let m = fresh () in
  let w = Tword.make ~v:0x12345678 ~m:0b0101 in
  Memory.store_word m (base + 8) w;
  Alcotest.(check bool) "roundtrip" true (Tword.equal w (Memory.load_word m (base + 8)));
  (* Little-endian byte order *)
  Alcotest.(check int) "lsb" 0x78 (fst (Memory.load_byte m (base + 8)));
  Alcotest.(check int) "msb" 0x12 (fst (Memory.load_byte m (base + 11)));
  Alcotest.(check bool) "byte0 tainted" true (snd (Memory.load_byte m (base + 8)));
  Alcotest.(check bool) "byte1 clean" false (snd (Memory.load_byte m (base + 9)))

let test_cross_page_word () =
  let m = fresh () in
  let addr = base + Layout.page_bytes - 2 in
  let w = Tword.make ~v:0xAABBCCDD ~m:0b1001 in
  Memory.store_word m addr w;
  Alcotest.(check bool) "cross-page roundtrip" true (Tword.equal w (Memory.load_word m addr))

let test_unaligned_word () =
  let m = fresh () in
  let w = Tword.tainted 0xDEADBEEF in
  Memory.store_word m (base + 1) w;
  Alcotest.(check bool) "unaligned roundtrip" true (Tword.equal w (Memory.load_word m (base + 1)))

let test_unmapped_fault () =
  let m = fresh () in
  (try
     ignore (Memory.load_byte m 0x61616161);
     Alcotest.fail "expected fault"
   with Memory.Fault { addr; access } ->
     Alcotest.(check int) "addr" 0x61616161 addr;
     Alcotest.(check bool) "kind" true (access = Memory.Load));
  try
    Memory.store_byte m 0x200 0 ~taint:false;
    Alcotest.fail "expected store fault"
  with Memory.Fault { access; _ } -> Alcotest.(check bool) "store" true (access = Memory.Store)

let test_bulk_and_cstring () =
  let m = fresh () in
  Memory.write_string m base "hello\000world" ~taint:true;
  Alcotest.(check string) "read_string" "hello" (Memory.read_string m base 5);
  Alcotest.(check string) "read_cstring stops at NUL" "hello" (Memory.read_cstring m base);
  Alcotest.(check int) "tainted count" 11 (Memory.tainted_in_range m base 11);
  Memory.untaint_range m base 5;
  Alcotest.(check int) "after untaint" 6 (Memory.tainted_in_range m base 11);
  Memory.taint_range m base 2;
  Alcotest.(check int) "after retaint" 8 (Memory.tainted_in_range m base 11)

let test_half () =
  let m = fresh () in
  Memory.store_half m base 0xBEEF ~m:0b10;
  let v, mask = Memory.load_half m base in
  Alcotest.(check int) "half value" 0xBEEF v;
  Alcotest.(check int) "half mask" 0b10 mask

let test_stats () =
  let m = fresh () in
  let s = Memory.stats m in
  let loads0 = s.Memory.loads in
  Memory.store_byte m base 1 ~taint:true;
  ignore (Memory.load_byte m base);
  Alcotest.(check int) "loads counted" (loads0 + 1) s.Memory.loads;
  Alcotest.(check int) "tainted stores" 1 s.Memory.tainted_stores;
  Alcotest.(check int) "tainted loads" 1 s.Memory.tainted_loads

(* A logical access counts once whatever its width: lh/sh must not be
   billed as two byte accesses. *)
let test_stats_width_independent () =
  let m = fresh () in
  let s = Memory.stats m in
  Memory.store_half m base 0xBEEF ~m:0;
  Alcotest.(check int) "one store per sh" 1 s.Memory.stores;
  ignore (Memory.load_half m base);
  Alcotest.(check int) "one load per lh" 1 s.Memory.loads;
  Memory.store_word m (base + 4) (Tword.untainted 42);
  Alcotest.(check int) "one store per sw" 2 s.Memory.stores;
  ignore (Memory.load_word m (base + 4));
  Alcotest.(check int) "one load per lw" 2 s.Memory.loads

(* tainted_in_range must fault on unmapped holes like the other range
   ops, not silently report them as clean. *)
let test_tainted_in_range_unmapped () =
  let m = fresh ~bytes:(64 * 1024) () in
  let last_mapped = base + (64 * 1024) - 8 in
  match Memory.tainted_in_range m last_mapped 16 with
  | _ -> Alcotest.fail "expected a fault on the unmapped tail"
  | exception Memory.Fault { addr; access } ->
    Alcotest.(check int) "first unmapped byte" (base + (64 * 1024)) addr;
    Alcotest.(check bool) "reported as load" true (access = Memory.Load)

let test_snapshot_restore () =
  let m = fresh () in
  Memory.write_string m base "frozen" ~taint:true;
  Memory.store_word m (base + 16) (Tword.make ~v:0xCAFEF00D ~m:0b0011);
  let snap = Memory.snapshot m in
  (* Mutating the origin after the snapshot must not leak into it. *)
  Memory.write_string m base "thawed" ~taint:false;
  Memory.store_word m (base + 16) (Tword.untainted 0);
  let r1 = Memory.restore snap and r2 = Memory.restore snap in
  Alcotest.(check string) "restored data" "frozen" (Memory.read_string r1 base 6);
  Alcotest.(check int) "restored taint" 6 (Memory.tainted_in_range r1 base 6);
  Alcotest.(check bool) "restored word" true
    (Tword.equal (Tword.make ~v:0xCAFEF00D ~m:0b0011) (Memory.load_word r1 (base + 16)));
  (* Two restores are independent: writes to one never reach the other. *)
  Memory.store_byte r1 base 0xEE ~taint:false;
  Alcotest.(check int) "sibling restore unaffected" 0x66 (fst (Memory.load_byte r2 base));
  Alcotest.(check string) "origin keeps its own writes" "thawed" (Memory.read_string m base 6);
  (* Restored stats match the snapshot point, not the origin's later history. *)
  Alcotest.(check int) "snapshot-time mapped bytes" (Memory.stats m).Memory.mapped_bytes
    (Memory.stats r2).Memory.mapped_bytes

(* --- Cache model --- *)

let test_cache_basics () =
  let c = Cache.create { Cache.sets = 4; ways = 1; line_bytes = 16; hit_latency = 1 } in
  Alcotest.(check bool) "first is miss" true (Cache.access c ~addr:0x1000 ~write:false ~tainted:false = Cache.Miss);
  Alcotest.(check bool) "second is hit" true (Cache.access c ~addr:0x1008 ~write:false ~tainted:false = Cache.Hit);
  (* Same set, different tag evicts in a direct-mapped cache. *)
  Alcotest.(check bool) "conflict miss" true (Cache.access c ~addr:0x1040 ~write:false ~tainted:false = Cache.Miss);
  Alcotest.(check bool) "evicted" true (Cache.access c ~addr:0x1000 ~write:false ~tainted:false = Cache.Miss);
  let st = Cache.stats c in
  Alcotest.(check int) "hits" 1 st.Cache.hits;
  Alcotest.(check int) "misses" 3 st.Cache.misses

let test_cache_taint_summary () =
  let c = Cache.create Cache.l1_config in
  ignore (Cache.access c ~addr:0x2000 ~write:true ~tainted:true);
  Alcotest.(check bool) "line tainted" true (Cache.line_tainted c ~addr:0x2004);
  ignore (Cache.access c ~addr:0x3000 ~write:false ~tainted:false);
  Alcotest.(check bool) "other line clean" false (Cache.line_tainted c ~addr:0x3000)

let test_cache_lru () =
  let c = Cache.create { Cache.sets = 1; ways = 2; line_bytes = 16; hit_latency = 1 } in
  ignore (Cache.access c ~addr:0x000 ~write:false ~tainted:false);
  ignore (Cache.access c ~addr:0x010 ~write:false ~tainted:false);
  ignore (Cache.access c ~addr:0x000 ~write:false ~tainted:false);
  (* 0x010 is now LRU; filling a third line evicts it. *)
  ignore (Cache.access c ~addr:0x020 ~write:false ~tainted:false);
  Alcotest.(check bool) "0x000 still resident" true (Cache.access c ~addr:0x000 ~write:false ~tainted:false = Cache.Hit);
  Alcotest.(check bool) "0x010 evicted" true (Cache.access c ~addr:0x010 ~write:false ~tainted:false = Cache.Miss)

let test_hierarchy_latency () =
  let h = Cache.Hierarchy.create ~memory_latency:100 () in
  let cold = Cache.Hierarchy.access h ~addr:0x4000 ~write:false ~tainted:false in
  let warm = Cache.Hierarchy.access h ~addr:0x4000 ~write:false ~tainted:false in
  Alcotest.(check int) "cold = l1+l2+mem" (1 + 8 + 100) cold;
  Alcotest.(check int) "warm = l1" 1 warm

(* An L1 refill served from L2 must inherit the L2 line's taint
   summary: a tainted line evicted from L1 and later re-fetched is
   still tainted.  Tiny direct-mapped L1 (one set) so a second access
   forces the eviction; 4-set L2 keeps both lines resident. *)
let test_l2_taint_inherited_on_refill () =
  let l1 = { Cache.sets = 1; ways = 1; line_bytes = 16; hit_latency = 1 } in
  let l2 = { Cache.sets = 4; ways = 2; line_bytes = 16; hit_latency = 8 } in
  let h = Cache.Hierarchy.create ~l1 ~l2 ~memory_latency:100 () in
  let a = 0x1000 and b = 0x1010 in
  ignore (Cache.Hierarchy.access h ~addr:a ~write:true ~tainted:true);
  Alcotest.(check bool) "L2 line tainted after fill" true
    (Cache.line_tainted (Cache.Hierarchy.l2 h) ~addr:a);
  ignore (Cache.Hierarchy.access h ~addr:b ~write:false ~tainted:false);
  Alcotest.(check bool) "tainted line evicted from L1" false
    (Cache.line_tainted (Cache.Hierarchy.l1 h) ~addr:a);
  (* Clean re-access: the access itself carries no taint, but the
     refill comes from a tainted L2 line. *)
  ignore (Cache.Hierarchy.access h ~addr:a ~write:false ~tainted:false);
  Alcotest.(check bool) "L1 refill inherits L2 taint" true
    (Cache.line_tainted (Cache.Hierarchy.l1 h) ~addr:a);
  (* Control: a clean line evicted and re-fetched stays clean. *)
  let h2 = Cache.Hierarchy.create ~l1 ~l2 ~memory_latency:100 () in
  ignore (Cache.Hierarchy.access h2 ~addr:a ~write:true ~tainted:false);
  ignore (Cache.Hierarchy.access h2 ~addr:b ~write:false ~tainted:false);
  ignore (Cache.Hierarchy.access h2 ~addr:a ~write:false ~tainted:false);
  Alcotest.(check bool) "clean refill stays clean" false
    (Cache.line_tainted (Cache.Hierarchy.l1 h2) ~addr:a)

(* --- Properties --- *)

let addr_gen = QCheck2.Gen.(int_range base (base + 60000))

let prop_byte_roundtrip =
  QCheck2.Test.make ~name:"byte write/read roundtrip"
    QCheck2.Gen.(triple addr_gen (int_bound 255) bool)
    (fun (addr, v, taint) ->
      let m = fresh () in
      Memory.store_byte m addr v ~taint;
      Memory.load_byte m addr = (v, taint))

let prop_word_roundtrip =
  QCheck2.Test.make ~name:"word write/read roundtrip at any offset"
    QCheck2.Gen.(triple addr_gen (int_bound 0xFFFFFFFF) (int_bound 15))
    (fun (addr, v, mask) ->
      let m = fresh () in
      let w = Tword.make ~v ~m:mask in
      Memory.store_word m addr w;
      Tword.equal (Memory.load_word m addr) w)

let prop_neighbours_untouched =
  QCheck2.Test.make ~name:"word store leaves neighbours untouched"
    QCheck2.Gen.(pair (int_range (base + 8) (base + 50000)) (int_bound 0xFFFFFFFF))
    (fun (addr, v) ->
      let m = fresh () in
      Memory.store_byte m (addr - 1) 0x5A ~taint:true;
      Memory.store_byte m (addr + 4) 0xA5 ~taint:false;
      Memory.store_word m addr (Tword.tainted v);
      Memory.load_byte m (addr - 1) = (0x5A, true) && Memory.load_byte m (addr + 4) = (0xA5, false))

(* Seeded sweep of the page-straddling slow path: every word/half
   store whose bytes span two pages must round-trip value and taint
   exactly and leave the neighbouring bytes alone.  A fixed seed keeps
   failures reproducible. *)
let test_cross_page_sweep () =
  let rng = Random.State.make [| 0x9E3779B9 |] in
  let m = fresh () in
  let rand32 () =
    (Random.State.bits rng lor (Random.State.bits rng lsl 30)) land 0xFFFFFFFF
  in
  for _ = 1 to 2_000 do
    (* A boundary inside the mapped 16-page window, approached so the
       access straddles it. *)
    let boundary = base + ((1 + Random.State.int rng 14) * Layout.page_bytes) in
    let sentinel_lo = Random.State.int rng 256 and sentinel_hi = Random.State.int rng 256 in
    if Random.State.bool rng then begin
      let addr = boundary - (1 + Random.State.int rng 2) in
      Memory.store_byte m (addr - 1) sentinel_lo ~taint:false;
      Memory.store_byte m (addr + 4) sentinel_hi ~taint:true;
      let w = Tword.make ~v:(rand32 ()) ~m:(Random.State.int rng 16) in
      Memory.store_word m addr w;
      if not (Tword.equal w (Memory.load_word m addr)) then
        Alcotest.failf "word roundtrip at %#x: got %s want %s" addr
          (Format.asprintf "%a" Tword.pp (Memory.load_word m addr))
          (Format.asprintf "%a" Tword.pp w);
      Alcotest.(check (pair int bool)) "low neighbour" (sentinel_lo, false)
        (Memory.load_byte m (addr - 1));
      Alcotest.(check (pair int bool)) "high neighbour" (sentinel_hi, true)
        (Memory.load_byte m (addr + 4))
    end
    else begin
      let addr = boundary - 1 in
      Memory.store_byte m (addr - 1) sentinel_lo ~taint:true;
      Memory.store_byte m (addr + 2) sentinel_hi ~taint:false;
      let v = Random.State.int rng 0x10000 and mask = Random.State.int rng 4 in
      Memory.store_half m addr v ~m:mask;
      let v', m' = Memory.load_half m addr in
      Alcotest.(check (pair int int)) "half roundtrip" (v, mask) (v', m');
      Alcotest.(check (pair int bool)) "low neighbour" (sentinel_lo, true)
        (Memory.load_byte m (addr - 1));
      Alcotest.(check (pair int bool)) "high neighbour" (sentinel_hi, false)
        (Memory.load_byte m (addr + 2))
    end
  done

(* --- fault-injection entry points keep the store coherent --- *)

let test_injection_invariants () =
  let m = fresh () in
  Tagged_store.debug_asserts := true;
  Memory.check_invariants m;
  Memory.store_word m base (Tword.make ~v:0xDEADBEEF ~m:0b1111);
  Memory.taint_range m (base + 64) 32;
  Memory.check_invariants m;
  let before = Memory.tainted_bytes m in
  (* a data flip never moves the taint plane *)
  Memory.inject_flip_data m base ~bit:5;
  Memory.check_invariants m;
  Alcotest.(check int) "flip leaves the tainted-byte count" before (Memory.tainted_bytes m);
  Alcotest.(check int) "flip flipped the byte" (0xEF lxor 0x20)
    (fst (Memory.load_byte m base));
  (* range injections set each byte's bit, idempotently *)
  Memory.inject_set_taint_range m (base + 64) 64 ~tainted:true;
  Memory.check_invariants m;
  Alcotest.(check int) "range taint counted once" (before + 32) (Memory.tainted_bytes m);
  Memory.inject_set_taint_range m (base + 64) 64 ~tainted:false;
  Memory.check_invariants m;
  Alcotest.(check int) "range untainted" (before - 32) (Memory.tainted_bytes m);
  (* total wipe clears whatever was tainted *)
  Memory.inject_wipe_taint m;
  Memory.check_invariants m;
  Alcotest.(check int) "wipe leaves no tainted byte" 0 (Memory.tainted_bytes m);
  Alcotest.(check int) "wipe leaves the data plane" (0xEF lxor 0x20)
    (fst (Memory.load_byte m base));
  (* injections into unmapped space fault like guest accesses *)
  (match Memory.inject_flip_data m 0x4 ~bit:0 with
   | () -> Alcotest.fail "unmapped injection must fault"
   | exception Memory.Fault _ -> ());
  Tagged_store.debug_asserts := false

(* --- arena reset differential ---

   [reset_from_snapshot] keeps a dirty list and the records aligned
   with the store's base snapshot so that it can undo only what the
   last run touched.  Whatever path it takes, the result must equal a
   fresh [restore] of the target: every byte and taint bit, the mapped
   page set, the stats, and faults on the pages it dropped.  Targets A
   and B share a page set (A -> B takes the aligned path), C has a
   different one (the rebuild path), and consecutive resets to the
   same target take the dirty-page path. *)

let page = Layout.page_bytes
let stack_lo = 0x7ff00000
let grow_lo = 0x30000000

let pages_of m = Tagged_store.mapped_pages (Memory.tagged m)

(* Every mapped byte as (page list, data bytes, taint bits), read
   through the store so the stats stay untouched. *)
let dump m =
  let st = Memory.tagged m in
  let pages = pages_of m in
  let data = Buffer.create 4096 and taint = Buffer.create 4096 in
  List.iter
    (fun idx ->
      for a = idx * page to ((idx + 1) * page) - 1 do
        let v, t = Tagged_store.load_byte st a in
        Buffer.add_char data (Char.chr v);
        Buffer.add_char taint (if t then '1' else '0')
      done)
    pages;
  (pages, Buffer.contents data, Buffer.contents taint)

let stats_tuple m =
  let s = Memory.stats m in
  (s.Memory.loads, s.Memory.stores, s.Memory.tainted_loads, s.Memory.tainted_stores,
   s.Memory.mapped_bytes)

(* One random mutation somewhere in the mapped pages: a word, half or
   byte store of any alignment, a taint fill, or an injected fault.
   Accesses that run off the mapped pages fault, which is fine: the
   reset must undo a partial write too. *)
let mutate rng m =
  let pages = Array.of_list (pages_of m) in
  let addr = (pages.(Random.State.int rng (Array.length pages)) * page) + Random.State.int rng page in
  let v = Random.State.bits rng land 0xFFFFFFFF in
  try
    match Random.State.int rng 9 with
    | 0 | 1 -> Memory.store_word m addr (Tword.make ~v ~m:(Random.State.int rng 16))
    | 2 -> Memory.store_half m addr (v land 0xffff) ~m:(Random.State.int rng 4)
    | 3 -> Memory.store_byte m addr (v land 0xff) ~taint:(Random.State.bool rng)
    | 4 -> Memory.taint_range m addr (Random.State.int rng 64)
    | 5 -> Memory.untaint_range m addr (Random.State.int rng 64)
    | 6 -> Memory.inject_flip_data m addr ~bit:(Random.State.int rng 8)
    | 7 -> Memory.inject_set_taint_range m addr (Random.State.int rng 32) ~tainted:true
    | _ -> ignore (Memory.load_word m addr)
  with Memory.Fault _ -> ()

(* A snapshot target: pages [data_pages] at [base], [stack_pages] at
   [stack_lo], [extra] more elsewhere, with random contents in some of
   them (the rest stay on the zero plane). *)
let make_target rng ~data_pages ~stack_pages ~extra =
  let m = Memory.create () in
  Memory.map_range m ~lo:base ~bytes:(data_pages * page);
  Memory.map_range m ~lo:stack_lo ~bytes:(stack_pages * page);
  List.iter (fun lo -> Memory.map_range m ~lo ~bytes:page) extra;
  for _ = 1 to 200 do
    mutate rng m
  done;
  let snap = Memory.snapshot m in
  (m, snap, dump (Memory.restore snap))

let check_same what expected actual =
  let pe, de, te = expected and pa, da, ta = actual in
  Alcotest.(check (list int)) (what ^ ": mapped pages") pe pa;
  if de <> da then Alcotest.failf "%s: data planes differ" what;
  if te <> ta then Alcotest.failf "%s: taint planes differ" what

let test_arena_reset_differential () =
  Tagged_store.debug_asserts := true;
  Fun.protect ~finally:(fun () -> Tagged_store.debug_asserts := false) @@ fun () ->
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let ma, sa, da = make_target rng ~data_pages:6 ~stack_pages:4 ~extra:[] in
      let _, sb, db = make_target rng ~data_pages:6 ~stack_pages:4 ~extra:[] in
      let _, sc, dc =
        make_target rng ~data_pages:3 ~stack_pages:2 ~extra:[ 0x20000000; 0x20004000 ]
      in
      Alcotest.(check (list int)) "A and B share a page set" (pages_of (Memory.restore sa))
        (pages_of (Memory.restore sb));
      let targets = [| ("A", sa, da); ("B", sb, db); ("C", sc, dc) |] in
      (* the snapshot's origin keeps running too; its writes must not
         reach the snapshot *)
      for _ = 1 to 50 do
        mutate rng ma
      done;
      let arena = Memory.restore sa in
      (* A A B B A C C A B C ... then random: every path, from every
         kind of predecessor *)
      let script = [ 0; 0; 1; 1; 0; 2; 2; 0; 1; 2; 1; 0 ] in
      let script = script @ List.init 36 (fun _ -> Random.State.int rng 3) in
      List.iteri
        (fun step k ->
          let name, snap, _ = targets.(k) in
          let ctx = Printf.sprintf "seed %d step %d -> %s" seed step name in
          for _ = 1 to Random.State.int rng 40 do
            mutate rng arena
          done;
          if Random.State.int rng 4 = 0 then Memory.inject_wipe_taint arena;
          (* grow past the snapshot, as a guest sbrk does, and write there *)
          if Random.State.bool rng then begin
            let lo = grow_lo + (Random.State.int rng 8 * page) in
            Memory.map_range arena ~lo ~bytes:(page * (1 + Random.State.int rng 2));
            Memory.store_word arena lo (Tword.make ~v:0xA5A5A5A5 ~m:0b1111)
          end;
          Memory.check_invariants arena;
          let before = pages_of arena in
          Memory.reset_from_snapshot arena snap;
          Memory.check_invariants arena;
          let fresh = Memory.restore snap in
          Alcotest.(check (list int)) (ctx ^ ": mapped_pages") (pages_of fresh) (pages_of arena);
          Alcotest.(check bool) (ctx ^ ": stats") true (stats_tuple fresh = stats_tuple arena);
          check_same ctx (dump fresh) (dump arena);
          Alcotest.(check int) (ctx ^ ": tainted bytes") (Memory.tainted_bytes fresh)
            (Memory.tainted_bytes arena);
          List.iter
            (fun idx ->
              if not (List.mem idx (pages_of fresh)) then
                match Memory.load_byte arena (idx * page) with
                | _ -> Alcotest.failf "%s: dropped page %#x still mapped" ctx idx
                | exception Memory.Fault { addr; _ } ->
                  Alcotest.(check int) (ctx ^ ": fault address") (idx * page) addr)
            before;
          Array.iter
            (fun (name, snap, copy) ->
              check_same (Printf.sprintf "%s: snapshot %s unchanged" ctx name) copy
                (dump (Memory.restore snap)))
            targets)
        script)
    [ 1; 2; 3 ]

let () =
  Alcotest.run "mem"
    [ ( "memory",
        [ Alcotest.test_case "byte roundtrip" `Quick test_byte_roundtrip;
          Alcotest.test_case "word roundtrip" `Quick test_word_roundtrip;
          Alcotest.test_case "cross-page word" `Quick test_cross_page_word;
          Alcotest.test_case "unaligned word" `Quick test_unaligned_word;
          Alcotest.test_case "unmapped fault" `Quick test_unmapped_fault;
          Alcotest.test_case "bulk + cstring" `Quick test_bulk_and_cstring;
          Alcotest.test_case "half word" `Quick test_half;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "stats width-independent" `Quick test_stats_width_independent;
          Alcotest.test_case "tainted_in_range faults on unmapped" `Quick
            test_tainted_in_range_unmapped;
          Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
          Alcotest.test_case "injection invariants" `Quick test_injection_invariants;
          Alcotest.test_case "arena reset differential" `Quick test_arena_reset_differential ] );
      ( "cache",
        [ Alcotest.test_case "hit/miss" `Quick test_cache_basics;
          Alcotest.test_case "taint summary" `Quick test_cache_taint_summary;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru;
          Alcotest.test_case "hierarchy latency" `Quick test_hierarchy_latency;
          Alcotest.test_case "L2 taint inherited on L1 refill" `Quick
            test_l2_taint_inherited_on_refill ] );
      ( "properties",
        Alcotest.test_case "seeded cross-page word/half sweep" `Quick test_cross_page_sweep
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_byte_roundtrip; prop_word_roundtrip; prop_neighbours_untouched ] ) ]
