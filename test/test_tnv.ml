let feq = Alcotest.float 1e-9

let test_basic_counting () =
  let t = Tnv.create ~capacity:4 () in
  List.iter (Tnv.add t) [ 1L; 1L; 2L; 1L; 3L ];
  Alcotest.(check int) "total" 5 (Tnv.total t);
  Alcotest.(check int) "covered" 5 (Tnv.covered t);
  (match Tnv.top t with
   | Some (v, c) ->
     Alcotest.(check int64) "top value" 1L v;
     Alcotest.(check int) "top count" 3 c
   | None -> Alcotest.fail "expected a top entry");
  Alcotest.check feq "inv_top" 0.6 (Tnv.inv_top t);
  Alcotest.check feq "inv_all" 1.0 (Tnv.inv_all t)

let test_empty () =
  let t = Tnv.create ~capacity:4 () in
  Alcotest.(check int) "total" 0 (Tnv.total t);
  Alcotest.(check (option (pair int64 int))) "no top" None (Tnv.top t);
  Alcotest.check feq "inv_top" 0. (Tnv.inv_top t);
  Alcotest.check feq "inv_all" 0. (Tnv.inv_all t)

let test_entries_sorted () =
  let t = Tnv.create ~capacity:8 () in
  List.iter (Tnv.add t) [ 5L; 6L; 6L; 7L; 7L; 7L ];
  let e = Tnv.entries t in
  Alcotest.(check int) "three entries" 3 (Array.length e);
  Alcotest.(check int64) "first" 7L (fst e.(0));
  Alcotest.(check int64) "second" 6L (fst e.(1));
  Alcotest.(check int64) "third" 5L (fst e.(2))

let test_lfu_clear_drops_overflow () =
  (* Capacity 2, no clearing within this window: the third distinct value
     is dropped but still counted in total. *)
  let t = Tnv.create ~capacity:2 ~clear_interval:1000 () in
  List.iter (Tnv.add t) [ 1L; 2L; 3L; 3L; 3L ];
  Alcotest.(check int) "total counts drops" 5 (Tnv.total t);
  Alcotest.(check int) "covered misses drops" 2 (Tnv.covered t);
  Alcotest.(check bool) "3 not in table" true
    (Array.for_all (fun (v, _) -> not (Int64.equal v 3L)) (Tnv.entries t))

let test_lfu_clear_admits_new_hot_value () =
  (* After the periodic clear, the replacement half opens up and the new
     hot value climbs in. *)
  let t = Tnv.create ~capacity:2 ~clear_interval:10 () in
  for _ = 1 to 6 do Tnv.add t 1L done;
  for _ = 1 to 4 do Tnv.add t 2L done;
  (* table now full; 10 adds -> clearing has happened at least once *)
  for _ = 1 to 30 do Tnv.add t 9L done;
  Alcotest.(check bool) "new value present" true
    (Array.exists (fun (v, _) -> Int64.equal v 9L) (Tnv.entries t));
  (match Tnv.top t with
   | Some (v, _) -> Alcotest.(check int64) "new value dominates" 9L v
   | None -> Alcotest.fail "expected top")

let test_lfu_replaces_minimum () =
  let t = Tnv.create ~policy:Tnv.Lfu ~capacity:2 () in
  List.iter (Tnv.add t) [ 1L; 1L; 2L; 3L ];
  (* 3 replaced 2 (the least counted) *)
  let values = Array.map fst (Tnv.entries t) in
  Alcotest.(check bool) "1 kept" true (Array.mem 1L values);
  Alcotest.(check bool) "3 inserted" true (Array.mem 3L values);
  Alcotest.(check bool) "2 evicted" false (Array.mem 2L values)

let test_lru_replaces_oldest () =
  let t = Tnv.create ~policy:Tnv.Lru ~capacity:2 () in
  List.iter (Tnv.add t) [ 1L; 2L; 1L; 3L ];
  (* 2 is least recently seen; 3 replaces it even though counts tie *)
  let values = Array.map fst (Tnv.entries t) in
  Alcotest.(check bool) "1 kept" true (Array.mem 1L values);
  Alcotest.(check bool) "3 inserted" true (Array.mem 3L values);
  Alcotest.(check bool) "2 evicted" false (Array.mem 2L values)

let test_reset () =
  let t = Tnv.create ~capacity:4 () in
  List.iter (Tnv.add t) [ 1L; 2L; 3L ];
  Tnv.reset t;
  Alcotest.(check int) "total" 0 (Tnv.total t);
  Alcotest.(check int) "entries" 0 (Array.length (Tnv.entries t))

let test_degrade_shrinks_live_capacity () =
  Fun.protect ~finally:Budget.Testing.reset @@ fun () ->
  (* the ladder folds in at the next periodic clear, not mid-stream *)
  let t = Tnv.create ~clear_interval:4 ~capacity:8 () in
  Budget.Testing.set_level 1;
  List.iter (Tnv.add t) [ 1L; 2L; 3L ];
  Alcotest.(check int) "untouched before the clear" 8 (Tnv.live_capacity t);
  Tnv.add t 1L;
  Alcotest.(check int) "level 1 halves at the clear" 4 (Tnv.live_capacity t);
  (* a saturated ladder clamps at one live candidate, never zero *)
  Budget.Testing.set_level Budget.max_degrade_level;
  List.iter (Tnv.add t) [ 1L; 2L; 3L; 4L ];
  Alcotest.(check int) "saturated level keeps one slot" 1
    (Tnv.live_capacity t);
  (* the shrunken table still admits (and counts) its top value *)
  Alcotest.(check bool) "still counting" true (Tnv.total t > 0);
  Tnv.reset t;
  Alcotest.(check int) "reset restores full capacity" 8 (Tnv.live_capacity t)

let test_create_invalid () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Tnv.create: capacity must be positive") (fun () ->
      ignore (Tnv.create ~capacity:0 ()));
  Alcotest.check_raises "interval"
    (Invalid_argument "Tnv.create: clear_interval must be positive") (fun () ->
      ignore (Tnv.create ~clear_interval:0 ~capacity:4 ()))

let test_accessors () =
  let t = Tnv.create ~policy:Tnv.Lru ~clear_interval:123 ~capacity:7 () in
  Alcotest.(check int) "capacity" 7 (Tnv.capacity t);
  Alcotest.(check int) "interval" 123 (Tnv.clear_interval t);
  Alcotest.(check bool) "policy" true (Tnv.policy t = Tnv.Lru)

(* Canonical entry order for comparisons: count descending, then value —
   [Tnv.entries] only orders by count, so equal-count ties are ambiguous. *)
let canon l =
  List.sort
    (fun (v1, c1) (v2, c2) ->
      match compare c2 c1 with 0 -> Int64.compare v1 v2 | n -> n)
    l

let test_clear_keeps_top_half () =
  (* capacity 6, interval exactly the stream length: the clear fires on
     the last add and must keep precisely the cap/2 = 3 highest-counted
     values, untouched *)
  let t = Tnv.create ~capacity:6 ~clear_interval:33 () in
  let feed v n = for _ = 1 to n do Tnv.add t v done in
  feed 1L 10; feed 2L 9; feed 3L 8; feed 4L 3; feed 5L 2; feed 6L 1;
  Alcotest.(check int) "exactly one clear" 1 (Tnv.clears t);
  Alcotest.(check (list (pair int64 int))) "top half survives with counts"
    [ (1L, 10); (2L, 9); (3L, 8) ]
    (canon (Array.to_list (Tnv.entries t)))

let test_clear_tie_keeps_lowest_slot () =
  (* all counts tie: the clear's deterministic rule is to keep the
     lowest-numbered slots, i.e. the first-inserted values *)
  let t = Tnv.create ~capacity:4 ~clear_interval:4 () in
  List.iter (Tnv.add t) [ 10L; 20L; 30L; 40L ];
  Alcotest.(check (list (pair int64 int))) "first-inserted values survive"
    [ (10L, 1); (20L, 1) ]
    (canon (Array.to_list (Tnv.entries t)))

let test_add_mem_reports_residency () =
  let t = Tnv.create ~capacity:2 ~clear_interval:1000 () in
  Alcotest.(check bool) "fresh insert" false (Tnv.add_mem t 1L);
  Alcotest.(check bool) "repeat" true (Tnv.add_mem t 1L);
  Alcotest.(check bool) "second insert" false (Tnv.add_mem t 2L);
  Alcotest.(check bool) "overflow drop" false (Tnv.add_mem t 3L);
  Alcotest.(check bool) "dropped value still absent" false (Tnv.add_mem t 3L);
  let lfu = Tnv.create ~policy:Tnv.Lfu ~capacity:2 () in
  Alcotest.(check bool) "insert" false (Tnv.add_mem lfu 1L);
  Alcotest.(check bool) "insert" false (Tnv.add_mem lfu 2L);
  Alcotest.(check bool) "eviction is not residency" false (Tnv.add_mem lfu 3L);
  Alcotest.(check bool) "evicted-in value now resident" true (Tnv.add_mem lfu 3L)

(* Reference model: the paper's plain linear-scan TNV with the same
   policies and the same clear/eviction rules, used to cross-check the
   open-addressing index on randomized streams. *)
module Model = struct
  type t = {
    pol : Tnv.policy;
    cap : int;
    interval : int;
    values : int64 array;
    counts : int array;
    stamps : int array;
    mutable total : int;
    mutable since : int;
  }

  let create pol cap interval =
    { pol; cap; interval;
      values = Array.make cap 0L;
      counts = Array.make cap 0;
      stamps = Array.make cap 0;
      total = 0; since = 0 }

  let clear m =
    let kept = Array.make m.cap false in
    for _ = 1 to m.cap / 2 do
      let best = ref 0 in
      while kept.(!best) do incr best done;
      for i = !best + 1 to m.cap - 1 do
        if (not kept.(i)) && m.counts.(i) > m.counts.(!best) then best := i
      done;
      kept.(!best) <- true
    done;
    for i = 0 to m.cap - 1 do
      if not kept.(i) then begin
        m.counts.(i) <- 0;
        m.values.(i) <- 0L;
        m.stamps.(i) <- 0
      end
    done

  let argmin m key =
    let best = ref 0 in
    for i = 1 to m.cap - 1 do
      if key i < key !best then best := i
    done;
    !best

  let fill m s v =
    m.values.(s) <- v;
    m.counts.(s) <- 1;
    m.stamps.(s) <- m.total

  let add m v =
    m.total <- m.total + 1;
    let slot = ref (-1) in
    for i = m.cap - 1 downto 0 do
      if m.counts.(i) > 0 && Int64.equal m.values.(i) v then slot := i
    done;
    let hit = !slot >= 0 in
    (if hit then begin
       m.counts.(!slot) <- m.counts.(!slot) + 1;
       m.stamps.(!slot) <- m.total
     end
     else begin
       let empty = ref (-1) in
       for i = m.cap - 1 downto 0 do
         if m.counts.(i) = 0 then empty := i
       done;
       if !empty >= 0 then fill m !empty v
       else
         match m.pol with
         | Tnv.Lfu_clear -> ()
         | Tnv.Lfu -> fill m (argmin m (fun i -> m.counts.(i))) v
         | Tnv.Lru -> fill m (argmin m (fun i -> m.stamps.(i))) v
     end);
    (match m.pol with
     | Tnv.Lfu_clear ->
       m.since <- m.since + 1;
       if m.since >= m.interval then begin
         m.since <- 0;
         clear m
       end
     | Tnv.Lfu | Tnv.Lru -> ());
    hit

  let entries m =
    let l = ref [] in
    for i = m.cap - 1 downto 0 do
      if m.counts.(i) > 0 then l := (m.values.(i), m.counts.(i)) :: !l
    done;
    !l
end

let value_stream_gen =
  (* skewed streams over a small alphabet, like real value profiles *)
  QCheck.Gen.(
    list_size (int_range 1 2000)
      (map (fun i -> Int64.of_int (i * i mod 13)) (int_range 0 100)))

let qcheck_conservation =
  QCheck.Test.make ~name:"covered <= total, inv_all <= 1, inv_top <= inv_all"
    ~count:200
    (QCheck.make value_stream_gen)
    (fun stream ->
      List.for_all
        (fun policy ->
          let t = Tnv.create ~policy ~capacity:4 ~clear_interval:50 () in
          List.iter (Tnv.add t) stream;
          Tnv.covered t <= Tnv.total t
          && Tnv.inv_all t <= 1.0 +. 1e-9
          && Tnv.inv_top t <= Tnv.inv_all t +. 1e-9)
        [ Tnv.Lfu_clear; Tnv.Lfu; Tnv.Lru ])

let qcheck_entries_sorted =
  QCheck.Test.make ~name:"entries are sorted descending" ~count:200
    (QCheck.make value_stream_gen)
    (fun stream ->
      let t = Tnv.create ~capacity:8 () in
      List.iter (Tnv.add t) stream;
      let e = Tnv.entries t in
      let ok = ref true in
      for i = 0 to Array.length e - 2 do
        if snd e.(i) < snd e.(i + 1) then ok := false
      done;
      !ok)

let qcheck_finds_dominant_value =
  (* When one value accounts for >= 80% of a long stream, every policy's
     TNV identifies it as the top value. *)
  QCheck.Test.make ~name:"dominant value is identified" ~count:100
    QCheck.(pair (int_range 1 60) int64)
    (fun (noise_values, seed) ->
      let rng = Rng.create seed in
      let dominant = 424242L in
      let stream =
        List.init 2000 (fun _ ->
            if Rng.int rng 10 < 8 then dominant
            else Int64.of_int (Rng.int rng noise_values))
      in
      List.for_all
        (fun policy ->
          let t = Tnv.create ~policy ~capacity:8 ~clear_interval:100 () in
          List.iter (Tnv.add t) stream;
          match Tnv.top t with
          | Some (v, _) -> Int64.equal v dominant
          | None -> false)
        [ Tnv.Lfu_clear; Tnv.Lfu; Tnv.Lru ])

let qcheck_index_matches_linear_scan =
  (* the hit signal and the surviving entries of the index-assisted table
     must track the reference model event for event, across all policies,
     capacities and clear intervals *)
  QCheck.Test.make ~name:"index-assisted table == linear-scan model" ~count:200
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 6) (int_range 1 40) value_stream_gen))
    (fun (cap, interval, stream) ->
      List.for_all
        (fun pol ->
          let t = Tnv.create ~policy:pol ~capacity:cap ~clear_interval:interval () in
          let m = Model.create pol cap interval in
          List.for_all
            (fun v -> Bool.equal (Tnv.add_mem t v) (Model.add m v))
            stream
          && canon (Array.to_list (Tnv.entries t)) = canon (Model.entries m)
          && Tnv.total t = m.Model.total)
        [ Tnv.Lfu_clear; Tnv.Lfu; Tnv.Lru ])

(* [top] scans for the first entry instead of building the sorted array:
   the two must agree after every add, on negative and extreme values and
   on count ties, under every policy *)
let qcheck_top_is_first_entry =
  QCheck.Test.make ~name:"top is the first entry" ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 1 8) (int_range 1 40)
           (list_size (int_range 0 300)
              (frequency
                 [ (8, map Int64.of_int (int_range (-6) 6));
                   (1, oneofl [ Int64.min_int; Int64.max_int; -1L ]) ]))))
    (fun (cap, interval, stream) ->
      List.for_all
        (fun policy ->
          let t = Tnv.create ~policy ~capacity:cap ~clear_interval:interval () in
          let agrees () =
            let e = Tnv.entries t in
            Tnv.top t = if Array.length e = 0 then None else Some e.(0)
          in
          agrees ()
          && List.for_all
               (fun v ->
                 Tnv.add t v;
                 agrees ())
               stream)
        [ Tnv.Lfu_clear; Tnv.Lfu; Tnv.Lru ])

let suite =
  [ Alcotest.test_case "basic counting" `Quick test_basic_counting;
    Alcotest.test_case "empty table" `Quick test_empty;
    Alcotest.test_case "entries sorted" `Quick test_entries_sorted;
    Alcotest.test_case "lfu-clear drops overflow" `Quick test_lfu_clear_drops_overflow;
    Alcotest.test_case "lfu-clear admits new hot value" `Quick
      test_lfu_clear_admits_new_hot_value;
    Alcotest.test_case "lfu replaces minimum" `Quick test_lfu_replaces_minimum;
    Alcotest.test_case "lru replaces oldest" `Quick test_lru_replaces_oldest;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "degradation shrinks live capacity" `Quick
      test_degrade_shrinks_live_capacity;
    Alcotest.test_case "invalid create" `Quick test_create_invalid;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "clear keeps the top half" `Quick
      test_clear_keeps_top_half;
    Alcotest.test_case "clear tie keeps lowest slot" `Quick
      test_clear_tie_keeps_lowest_slot;
    Alcotest.test_case "add_mem reports residency" `Quick
      test_add_mem_reports_residency;
    QCheck_alcotest.to_alcotest qcheck_conservation;
    QCheck_alcotest.to_alcotest qcheck_entries_sorted;
    QCheck_alcotest.to_alcotest qcheck_finds_dominant_value;
    QCheck_alcotest.to_alcotest qcheck_index_matches_linear_scan;
    QCheck_alcotest.to_alcotest qcheck_top_is_first_entry ]
