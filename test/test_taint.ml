(* Unit and property tests for the taint algebra (Table 1). *)

open Ptaint_taint

let check_mask = Alcotest.(check int)

(* --- Mask basics --- *)

let test_mask_basics () =
  Alcotest.(check bool) "none untainted" false (Mask.is_tainted Mask.none);
  Alcotest.(check bool) "word tainted" true (Mask.is_tainted Mask.word);
  check_mask "all 4" 0b1111 (Mask.all ~bytes:4);
  check_mask "set" 0b0100 (Mask.set_byte Mask.none 2);
  Alcotest.(check bool) "byte" true (Mask.byte 0b0100 2);
  Alcotest.(check bool) "byte clear" false (Mask.byte 0b0100 1);
  check_mask "count" 3 (Mask.tainted_bytes 0b1101)

let test_mask_pp () =
  Alcotest.(check string) "pp" "0011" (Format.asprintf "%a" (Mask.pp ?bytes:None) 0b0011);
  Alcotest.(check string) "pp one" "1000" (Format.asprintf "%a" (Mask.pp ?bytes:None) 0b1000)

(* --- Tword --- *)

let test_tword () =
  let w = Tword.make ~v:0x1_2345_6789 ~m:0xFF in
  Alcotest.(check int) "value truncated" 0x23456789 (Tword.value w);
  check_mask "mask truncated" 0b1111 (Tword.mask w);
  Alcotest.(check bool) "tainted" true (Tword.is_tainted w);
  Alcotest.(check bool) "untainted" false (Tword.is_tainted (Tword.untainted 5));
  Alcotest.(check string) "pp clean" "0x00000005" (Format.asprintf "%a" Tword.pp (Tword.untainted 5));
  Alcotest.(check string) "pp tainted" "0x00000005[t:1111]"
    (Format.asprintf "%a" Tword.pp (Tword.tainted 5))

(* The packed representation is an OCaml immediate: building and
   transforming taint words must never allocate a heap block (the
   interpreter's hot path depends on it). *)
let test_tword_immediate () =
  let imm what w = Alcotest.(check bool) (what ^ " is immediate") true (Obj.is_int (Obj.repr w)) in
  imm "make" (Tword.make ~v:0xDEADBEEF ~m:0b1010);
  imm "untainted" (Tword.untainted 0xFFFFFFFF);
  imm "tainted" (Tword.tainted 0x80000000);
  imm "with_value" (Tword.with_value (Tword.tainted 1) 0x7FFFFFFF);
  (* Round-trip through the raw bits used by Regfile/Memory. *)
  let w = Tword.make ~v:0xCAFEBABE ~m:0b1001 in
  Alcotest.(check bool) "of_bits/to_bits roundtrip" true
    (Tword.equal w (Tword.of_bits (Tword.to_bits w)))

(* --- Table 1 rules --- *)

let test_default_rule () =
  (* "Taintedness of R1 = (Taintedness of R2) or (Taintedness of R3)" *)
  check_mask "or" 0b0111 (Prop.default 0b0101 0b0011);
  check_mask "clean" 0 (Prop.default 0 0)

let test_shift_rule () =
  (* Byte-granularity move plus adjacency smear for partial shifts. *)
  check_mask "left whole byte" 0b0010 (Prop.shift Prop.Left ~amount:8 ~amount_mask:Mask.none 0b0001);
  check_mask "left 16" 0b0100 (Prop.shift Prop.Left ~amount:16 ~amount_mask:Mask.none 0b0001);
  check_mask "left partial smears" 0b0011
    (Prop.shift Prop.Left ~amount:4 ~amount_mask:Mask.none 0b0001);
  check_mask "right partial smears" 0b0011
    (Prop.shift Prop.Right ~amount:4 ~amount_mask:Mask.none 0b0010);
  check_mask "right whole" 0b0001 (Prop.shift Prop.Right ~amount:8 ~amount_mask:Mask.none 0b0010);
  check_mask "shift out" 0 (Prop.shift Prop.Left ~amount:24 ~amount_mask:Mask.none 0b1000);
  (* Tainted amount: conservative full taint if operand tainted. *)
  check_mask "tainted amount" 0b1111 (Prop.shift Prop.Left ~amount:1 ~amount_mask:0b0001 0b0100);
  check_mask "tainted amount clean operand" 0
    (Prop.shift Prop.Left ~amount:1 ~amount_mask:0b0001 0)

let test_and_rule () =
  (* "Untaint each byte AND-ed with an untainted zero." *)
  let m = Prop.and_bytes ~v1:0x11223344 ~m1:0b1111 ~v2:0x0000FFFF ~m2:0 in
  check_mask "upper bytes cleared" 0b0011 m;
  (* Tainted zero does not untaint. *)
  let m = Prop.and_bytes ~v1:0x11223344 ~m1:0b1111 ~v2:0x00FFFFFF ~m2:0b1000 in
  check_mask "tainted zero keeps taint" 0b1111 m;
  let m = Prop.and_bytes ~v1:0 ~m1:0 ~v2:0x11223344 ~m2:0b1111 in
  check_mask "untainted zero operand clears all" 0 m

let test_xor_rule () = check_mask "xor idiom" 0 Prop.xor_same

(* --- Properties --- *)

let mask_gen = QCheck2.Gen.int_range 0 15

let prop_union_commutative =
  QCheck2.Test.make ~name:"mask union commutative" QCheck2.Gen.(pair mask_gen mask_gen)
    (fun (a, b) -> Mask.union a b = Mask.union b a)

let prop_union_idempotent =
  QCheck2.Test.make ~name:"mask union idempotent" mask_gen (fun a -> Mask.union a a = a)

let prop_union_monotone =
  QCheck2.Test.make ~name:"union never loses taint" QCheck2.Gen.(pair mask_gen mask_gen)
    (fun (a, b) ->
      let u = Mask.union a b in
      List.for_all
        (fun i -> (not (Mask.byte a i)) || Mask.byte u i)
        [ 0; 1; 2; 3 ])

let prop_and_bytes_subset =
  (* The AND rule may only remove taint relative to the default rule,
     never add it. *)
  QCheck2.Test.make ~name:"and_bytes refines default"
    QCheck2.Gen.(tup4 (int_bound 0xFFFFFF) mask_gen (int_bound 0xFFFFFF) mask_gen)
    (fun (v1, m1, v2, m2) ->
      let refined = Prop.and_bytes ~v1 ~m1 ~v2 ~m2 in
      Mask.union refined (Prop.default m1 m2) = Prop.default m1 m2)

let prop_shift_taint_conserved =
  (* An untainted operand stays untainted through any shift. *)
  QCheck2.Test.make ~name:"shift of clean stays clean"
    QCheck2.Gen.(pair (int_bound 31) bool)
    (fun (amount, left) ->
      let dir = if left then Prop.Left else Prop.Right in
      Prop.shift dir ~amount ~amount_mask:Mask.none Mask.none = Mask.none)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_union_commutative; prop_union_idempotent; prop_union_monotone;
      prop_and_bytes_subset; prop_shift_taint_conserved ]

let () =
  Alcotest.run "taint"
    [ ( "mask",
        [ Alcotest.test_case "basics" `Quick test_mask_basics;
          Alcotest.test_case "pp" `Quick test_mask_pp ] );
      ( "tword",
        [ Alcotest.test_case "basics" `Quick test_tword;
          Alcotest.test_case "immediate representation" `Quick test_tword_immediate ] );
      ( "prop (Table 1)",
        [ Alcotest.test_case "default OR rule" `Quick test_default_rule;
          Alcotest.test_case "shift rule" `Quick test_shift_rule;
          Alcotest.test_case "AND-zero rule" `Quick test_and_rule;
          Alcotest.test_case "xor rule" `Quick test_xor_rule ] );
      ("properties", properties) ]
