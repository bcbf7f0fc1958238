let test_default_zero () =
  let m = Memory.create () in
  Alcotest.(check int64) "unwritten reads zero" 0L (Memory.read m 12345L)

let test_roundtrip () =
  let m = Memory.create () in
  Memory.write m 100L 42L;
  Alcotest.(check int64) "written" 42L (Memory.read m 100L);
  Memory.write m 100L (-7L);
  Alcotest.(check int64) "overwritten" (-7L) (Memory.read m 100L);
  Alcotest.(check int64) "neighbour untouched" 0L (Memory.read m 101L)

let test_page_boundary () =
  let m = Memory.create () in
  let pw = Int64.of_int Memory.page_words in
  Memory.write m (Int64.sub pw 1L) 1L;
  Memory.write m pw 2L;
  Alcotest.(check int64) "end of page" 1L (Memory.read m (Int64.sub pw 1L));
  Alcotest.(check int64) "start of next" 2L (Memory.read m pw);
  Alcotest.(check int) "two pages" 2 (Memory.pages_allocated m)

let test_reads_do_not_allocate () =
  let m = Memory.create () in
  ignore (Memory.read m 0L);
  ignore (Memory.read m 1_000_000L);
  Alcotest.(check int) "no pages" 0 (Memory.pages_allocated m)

let test_load_segment () =
  let m = Memory.create () in
  Memory.load_segment m 50L [| 1L; 2L; 3L |];
  Alcotest.(check int64) "first" 1L (Memory.read m 50L);
  Alcotest.(check int64) "last" 3L (Memory.read m 52L)

let test_negative_address () =
  let m = Memory.create () in
  Alcotest.check_raises "read" (Invalid_argument "Memory.read: negative address")
    (fun () -> ignore (Memory.read m (-1L)));
  Alcotest.check_raises "write"
    (Invalid_argument "Memory.write: negative address") (fun () ->
      Memory.write m (-1L) 0L)

let test_iter_touched () =
  let m = Memory.create () in
  Memory.write m 5L 50L;
  Memory.write m 6L 60L;
  let seen = Hashtbl.create 8 in
  Memory.iter_touched m (fun addr v ->
      if not (Int64.equal v 0L) then Hashtbl.replace seen addr v);
  Alcotest.(check int) "two non-zero words" 2 (Hashtbl.length seen);
  Alcotest.(check (option int64)) "addr 5" (Some 50L) (Hashtbl.find_opt seen 5L)

let test_clear () =
  let m = Memory.create () in
  Memory.write m 5L 50L;
  Memory.clear m;
  Alcotest.(check int64) "cleared" 0L (Memory.read m 5L);
  Alcotest.(check int) "no pages" 0 (Memory.pages_allocated m)

let qcheck_model =
  (* Random write/read sequences agree with a Hashtbl model. *)
  let addr_gen = QCheck.Gen.(map Int64.of_int (int_range 0 100_000)) in
  let ops_gen =
    QCheck.Gen.(
      list_size (int_range 1 200)
        (oneof
           [ map2 (fun a v -> `Write (a, Int64.of_int v)) addr_gen (int_range (-50) 50);
             map (fun a -> `Read a) addr_gen ]))
  in
  QCheck.Test.make ~name:"memory agrees with map model" ~count:200
    (QCheck.make ops_gen)
    (fun ops ->
      let m = Memory.create () in
      let model = Hashtbl.create 64 in
      List.for_all
        (function
          | `Write (a, v) ->
            Memory.write m a v;
            Hashtbl.replace model a v;
            true
          | `Read a ->
            let expect = Option.value ~default:0L (Hashtbl.find_opt model a) in
            Int64.equal (Memory.read m a) expect)
        ops)

(* Many more pages than the page cache has slots, touched in an
   interleaved order (as a loop alternating between stack and data
   would), including a read of a page before its first write: every word
   reads back, and iteration visits every word of every page. *)
let test_page_cache () =
  let m = Memory.create () in
  let pw = Int64.of_int Memory.page_words in
  let pages =
    [ 0L; 16L; 17L; 256L; 0x7EFFL; 0x7F00L ]
    @ List.init 40 (fun i -> Int64.of_int (i * 3))
  in
  let addr k i = Int64.add (Int64.mul k pw) (Int64.of_int i) in
  let value k i = Int64.add (Int64.mul k 100L) (Int64.of_int i) in
  Alcotest.(check int64) "unwritten page reads zero" 0L
    (Memory.read m (addr 0x7EFFL 9));
  for i = 0 to 9 do
    List.iter (fun k -> Memory.write m (addr k i) (value k i)) pages
  done;
  for i = 9 downto 0 do
    List.iter
      (fun k ->
        Alcotest.(check int64) "reads back" (value k i) (Memory.read m (addr k i)))
      pages
  done;
  let distinct = List.length (List.sort_uniq compare pages) in
  Alcotest.(check int) "pages" distinct (Memory.pages_allocated m);
  let words = ref 0 in
  Memory.iter_touched m (fun _ _ -> incr words);
  Alcotest.(check int) "every word of every page" (distinct * Memory.page_words)
    !words

let suite =
  [ Alcotest.test_case "default zero" `Quick test_default_zero;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "page boundary" `Quick test_page_boundary;
    Alcotest.test_case "reads allocate nothing" `Quick test_reads_do_not_allocate;
    Alcotest.test_case "load_segment" `Quick test_load_segment;
    Alcotest.test_case "negative address" `Quick test_negative_address;
    Alcotest.test_case "iter_touched" `Quick test_iter_touched;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "page cache" `Quick test_page_cache;
    QCheck_alcotest.to_alcotest qcheck_model ]
