(* CRC-32, the checksum under every persisted format (v3 sections, store
   manifest rows, payload file names): the standard check values, [sub]
   against [string] over every range of a fixed string, bounds checking,
   and the eight-digit hex spelling the manifests use. *)

let test_check_values () =
  Alcotest.(check int) "standard check value" 0xCBF43926
    (Crc32.string "123456789");
  Alcotest.(check int) "empty string" 0 (Crc32.string "");
  Alcotest.(check int) "pangram" 0x414FA339
    (Crc32.string "The quick brown fox jumps over the lazy dog")

let test_sub_matches_string () =
  let s = String.init 64 (fun i -> Char.chr ((i * 37 + 11) land 0xFF)) in
  for pos = 0 to 64 do
    for len = 0 to 64 - pos do
      let want = Crc32.string (String.sub s pos len) in
      let got = Crc32.sub s pos len in
      if got <> want then
        Alcotest.failf "sub s %d %d = %08x, string of the substring = %08x"
          pos len got want
    done
  done

let test_sub_rejects_bad_bounds () =
  let s = "0123456789" in
  List.iter
    (fun (pos, len) ->
      match Crc32.sub s pos len with
      | c -> Alcotest.failf "sub s %d %d = %08x, expected Invalid_argument" pos len c
      | exception Invalid_argument _ -> ())
    [ (-1, 0); (0, -1); (-1, 5); (0, 11); (5, 6); (10, 1); (11, 0);
      (max_int, 1); (1, max_int) ]

let test_to_hex_zero_pads () =
  List.iter
    (fun (c, hex) -> Alcotest.(check string) hex hex (Crc32.to_hex c))
    [ (0, "00000000"); (0x1a, "0000001a"); (0xCBF43926, "cbf43926");
      (0xFFFFFFFF, "ffffffff") ]

let test_of_hex_roundtrips () =
  List.iter
    (fun c ->
      Alcotest.(check (option int)) (Crc32.to_hex c) (Some c)
        (Crc32.of_hex (Crc32.to_hex c)))
    [ 0; 1; 0x1a; 0x7FFFFFFF; 0x80000000; 0xCBF43926; 0xFFFFFFFF ];
  Alcotest.(check (option int)) "upper-case digits" (Some 0xCBF43926)
    (Crc32.of_hex "CBF43926")

let prop_of_hex_roundtrips =
  QCheck.Test.make ~name:"of_hex inverts to_hex on 32-bit values" ~count:500
    QCheck.(map (fun n -> n land 0xFFFFFFFF) int)
    (fun c -> Crc32.of_hex (Crc32.to_hex c) = Some c)

let test_of_hex_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check (option int)) (Printf.sprintf "length %d" (String.length s))
        None (Crc32.of_hex s))
    [ ""; "0"; "1234567"; "123456789"; "cbf43926cbf43926" ];
  (* a non-hex character at every position; [int_of_string] alone would
     accept '_' anywhere after the first digit *)
  List.iter
    (fun bad ->
      for i = 0 to 7 do
        let s = String.mapi (fun j c -> if j = i then bad else c) "0123abcd" in
        Alcotest.(check (option int)) (Printf.sprintf "%S" s) None
          (Crc32.of_hex s)
      done)
    [ 'g'; 'G'; 'x'; '_'; '-'; '+'; ' '; '\000' ]

let suite =
  [ Alcotest.test_case "check values" `Quick test_check_values;
    Alcotest.test_case "sub matches string on every range" `Quick
      test_sub_matches_string;
    Alcotest.test_case "sub rejects bad bounds" `Quick
      test_sub_rejects_bad_bounds;
    Alcotest.test_case "to_hex zero-pads" `Quick test_to_hex_zero_pads;
    Alcotest.test_case "of_hex roundtrips" `Quick test_of_hex_roundtrips;
    QCheck_alcotest.to_alcotest prop_of_hex_roundtrips;
    Alcotest.test_case "of_hex rejects bad spellings" `Quick
      test_of_hex_rejects ]
