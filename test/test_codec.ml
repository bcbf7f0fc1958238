(* Codec primitives: varint/zigzag/fixed-word roundtrips on the edge
   cases and under qcheck, string-table interning, and the section
   framing's checksum discipline. *)

let encode f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

let test_uvarint_roundtrip () =
  List.iter
    (fun n ->
      let s = encode (fun b -> Codec.put_uvarint b n) in
      let r = Codec.reader s in
      Alcotest.(check int) (Printf.sprintf "uvarint %d" n) n
        (Codec.read_uvarint r);
      Alcotest.(check bool) "consumed" true (Codec.at_end r))
    [ 0; 1; 127; 128; 300; 16384; 1 lsl 30; max_int ]

let test_uvarint_rejects_negative () =
  match encode (fun b -> Codec.put_uvarint b (-1)) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_varint64_roundtrip () =
  List.iter
    (fun v ->
      let s = encode (fun b -> Codec.put_varint64 b v) in
      let r = Codec.reader s in
      Alcotest.(check int64) (Printf.sprintf "varint64 %Ld" v) v
        (Codec.read_varint64 r);
      Alcotest.(check bool) "consumed" true (Codec.at_end r))
    [ 0L; 1L; -1L; 63L; -64L; 64L; -65L; Int64.max_int; Int64.min_int;
      0xdeadbeefL; Int64.neg 0xdeadbeefL ]

let prop_varint64_roundtrip =
  QCheck.Test.make ~name:"varint64 roundtrips any int64" ~count:500
    QCheck.int64 (fun v ->
      let s = encode (fun b -> Codec.put_varint64 b v) in
      Codec.read_varint64 (Codec.reader s) = v)

let prop_uvarint_roundtrip =
  QCheck.Test.make ~name:"uvarint roundtrips any nonneg int" ~count:500
    QCheck.(map (fun n -> n land max_int) int)
    (fun n ->
      let s = encode (fun b -> Codec.put_uvarint b n) in
      Codec.read_uvarint (Codec.reader s) = n)

let test_f64_roundtrip () =
  List.iter
    (fun v ->
      let s = encode (fun b -> Codec.put_f64 b v) in
      Alcotest.(check int) "8 bytes" 8 (String.length s);
      Alcotest.(check (float 0.)) (Printf.sprintf "f64 %g" v) v
        (Codec.read_f64 (Codec.reader s)))
    [ 0.; 1.; -1.; 0.5; 1e300; -1e-300; infinity; neg_infinity ]

let test_u32_roundtrip () =
  List.iter
    (fun n ->
      let s = encode (fun b -> Codec.put_u32 b n) in
      Alcotest.(check int) "4 bytes" 4 (String.length s);
      Alcotest.(check int) (Printf.sprintf "u32 %d" n) n
        (Codec.read_u32 (Codec.reader s)))
    [ 0; 1; 0xffff; 0xdeadbeef; 0xffffffff ];
  match encode (fun b -> Codec.put_u32 b (-1)) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_string_roundtrip () =
  List.iter
    (fun s ->
      let enc = encode (fun b -> Codec.put_string b s) in
      Alcotest.(check string) "string" s
        (Codec.read_string (Codec.reader enc)))
    [ ""; "a"; "hello world"; String.init 256 Char.chr ]

let test_reader_past_end () =
  let r = Codec.reader "" in
  (match Codec.read_byte r with
   | _ -> Alcotest.fail "expected Codec.Error"
   | exception Codec.Error (off, _) -> Alcotest.(check int) "at byte 0" 0 off);
  (* a varint whose continuation bytes run off the end *)
  let r = Codec.reader "\xff\xff" in
  match Codec.read_uvarint r with
  | _ -> Alcotest.fail "expected Codec.Error"
  | exception Codec.Error _ -> ()

let test_uvarint_overflow () =
  let rejects what bytes =
    match Codec.read_uvarint (Codec.reader bytes) with
    | n -> Alcotest.failf "%s: expected Codec.Error, read %d" what n
    | exception Codec.Error (0, _) -> ()
  in
  (* 10 continuation bytes exceed 62 value bits *)
  rejects "ten bytes" (String.make 9 '\xff' ^ "\x7f");
  (* nine bytes whose last sets bit 62: 2^62 is past max_int, and would
     read back as a negative count *)
  rejects "2^62" (String.make 8 '\x80' ^ "\x40")

let test_strtab_interns_and_roundtrips () =
  let t = Codec.Strtab.create () in
  Alcotest.(check int) "first" 0 (Codec.Strtab.intern t "alpha");
  Alcotest.(check int) "second" 1 (Codec.Strtab.intern t "beta");
  Alcotest.(check int) "dedup" 0 (Codec.Strtab.intern t "alpha");
  Alcotest.(check int) "third" 2 (Codec.Strtab.intern t "gamma");
  let arr = Codec.Strtab.decode (Codec.reader (Codec.Strtab.encode t)) in
  Alcotest.(check (array string)) "first-use order"
    [| "alpha"; "beta"; "gamma" |] arr

let test_section_roundtrip () =
  let payload = "the payload bytes \x00\xff" in
  let s = encode (fun b -> Codec.put_section b ~tag:'P' payload) in
  let tag, got = Codec.read_section (Codec.reader s) in
  Alcotest.(check char) "tag" 'P' tag;
  Alcotest.(check string) "payload" payload got

let test_section_corruption_detected () =
  let s = encode (fun b -> Codec.put_section b ~tag:'P' "payload bytes") in
  (* flip one payload byte: only the per-section crc can notice *)
  let b = Bytes.of_string s in
  Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lxor 1));
  match Codec.read_section (Codec.reader (Bytes.to_string b)) with
  | _ -> Alcotest.fail "expected Codec.Error"
  | exception Codec.Error (_, msg) ->
    Alcotest.(check bool) "names the checksum" true
      (Astring_contains.contains msg "checksum")

let test_section_truncation_detected () =
  let s = encode (fun b -> Codec.put_section b ~tag:'P' "payload bytes") in
  for cut = 0 to String.length s - 1 do
    match Codec.read_section (Codec.reader (String.sub s 0 cut)) with
    | _ -> Alcotest.failf "cut at %d: expected Codec.Error" cut
    | exception Codec.Error _ -> ()
  done

let suite =
  [ Alcotest.test_case "uvarint roundtrip" `Quick test_uvarint_roundtrip;
    Alcotest.test_case "uvarint rejects negative" `Quick
      test_uvarint_rejects_negative;
    Alcotest.test_case "varint64 roundtrip" `Quick test_varint64_roundtrip;
    QCheck_alcotest.to_alcotest prop_varint64_roundtrip;
    QCheck_alcotest.to_alcotest prop_uvarint_roundtrip;
    Alcotest.test_case "f64 roundtrip" `Quick test_f64_roundtrip;
    Alcotest.test_case "u32 roundtrip" `Quick test_u32_roundtrip;
    Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "reader errors past end" `Quick test_reader_past_end;
    Alcotest.test_case "uvarint overflow detected" `Quick
      test_uvarint_overflow;
    Alcotest.test_case "strtab interns and roundtrips" `Quick
      test_strtab_interns_and_roundtrips;
    Alcotest.test_case "section roundtrip" `Quick test_section_roundtrip;
    Alcotest.test_case "section corruption detected" `Quick
      test_section_corruption_detected;
    Alcotest.test_case "section truncation detected" `Quick
      test_section_truncation_detected ]
