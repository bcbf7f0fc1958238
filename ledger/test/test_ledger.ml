(* The ledger's own rules: order statistics, latency summaries, pair
   wins and verdicts on synthetic samples, the comparison of two result
   sets, and the committed BENCHMARK.json against the catalog. *)

open Ledger_stats

let close = Alcotest.float 1e-9

let quartiles_match_python () =
  (* statistics.quantiles(xs, n=4) in Python *)
  let check xs (a, b, c) =
    let q1, m, q3 = quartiles xs in
    Alcotest.check close "q1" a q1;
    Alcotest.check close "q2" b m;
    Alcotest.check close "q3" c q3
  in
  check [| 1.; 2.; 3.; 4. |] (1.25, 2.5, 3.75);
  check (Array.init 10 (fun i -> float_of_int (10 - i))) (2.75, 5.5, 8.25);
  check [| 3.; 1.; 2. |] (1., 2., 3.);
  check [| 7. |] (7., 7., 7.)

let median_and_spread () =
  Alcotest.check close "odd" 3. (median [| 5.; 1.; 3. |]);
  Alcotest.check close "even" 2.5 (median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "spread" (2.5 /. 2.5) (spread [| 1.; 2.; 3.; 4. |]);
  Alcotest.check close "constant" 0. (spread [| 2.; 2.; 2. |])

let latency_summary () =
  (* two kinds: 8 cheap requests at 1..8 ms, 2 costly ones at 20 and 30 ms;
     each kind is represented by its lower decile *)
  let cheap = Array.init 8 (fun i -> float_of_int (i + 1) /. 1e3) and costly = [| 0.030; 0.020 |] in
  let l = summary [ cheap; costly ] in
  let cheap10 = 1.7 and costly10 = 21. in
  Alcotest.check close "p50 is a cheap request" cheap10 l.p50_ms;
  Alcotest.check close "p90 is a costly request" costly10 l.p90_ms;
  Alcotest.check close "rate" (10. /. (((8. *. cheap10) +. (2. *. costly10)) /. 1e3)) l.rate;
  Alcotest.(check int) "count" 10 l.count;
  (* a contended stretch slowing some requests of a kind leaves it alone *)
  let slowed = Array.mapi (fun i x -> if i mod 3 = 0 then x else 2. *. x) (Array.make 30 0.004) in
  Alcotest.check close "unmoved by contention" 4. (summary [ slowed ]).p50_ms

let pair_wins_count () =
  let w = pair_wins Lower ~base:[| 10.; 10.; 10.; 10. |] ~change:[| 9.; 10.; 11.; 8.; 1. |] in
  Alcotest.(check (list int)) "change/base/ties" [ 2; 1; 1 ] [ w.change_wins; w.base_wins; w.ties ];
  let w = pair_wins Higher ~base:[| 10.; 10. |] ~change:[| 9.; 11. |] in
  Alcotest.(check (list int)) "higher is better" [ 1; 1; 0 ] [ w.change_wins; w.base_wins; w.ties ]

let verdict = Alcotest.testable (Fmt.of_to_string string_of_verdict) ( = )

let around c = Array.map (fun d -> c +. d) [| -1.; 0.5; 0.; 1.; -0.5; 0.2; -0.2; 0.8; -0.8; 0.1 |]

let judge_t ?(better = Lower) ?(bound = 0.1) ?(exact = false) base change =
  judge ~better ~bound ~exact ~base ~change

let verdict_rules () =
  Alcotest.check verdict "same" Unchanged (judge_t (around 100.) (around 101.));
  Alcotest.check verdict "20% slower" Regressed (judge_t (around 100.) (around 120.));
  Alcotest.check verdict "20% faster" Improved (judge_t (around 100.) (around 80.));
  Alcotest.check verdict "throughput down" Regressed
    (judge_t ~better:Higher (around 100.) (around 80.));
  Alcotest.check verdict "throughput up" Improved
    (judge_t ~better:Higher (around 100.) (around 120.));
  (* 5% faster in medians but not in nine pairs of ten *)
  Alcotest.check verdict "too few wins" Unchanged
    (judge_t (around 100.) (Array.mapi (fun i x -> if i < 2 then x +. 10. else x -. 5.) (around 100.)))

let unresolved_when_spread_exceeds_bound () =
  let base = [| 50.; 150.; 100.; 70.; 130.; 90.; 110.; 60.; 140.; 100. |] in
  let change = Array.map (fun x -> x *. 1.05) base in
  Alcotest.check verdict "wide spread" Unresolved (judge_t base change);
  (* unless every change run beats every base run *)
  let faster = Array.map (fun x -> x /. 10.) base in
  Alcotest.check verdict "dominating change" Improved (judge_t base faster)

let exact_count_mismatch_fails () =
  Alcotest.check verdict "equal" Unchanged (judge_t ~exact:true [| 5.; 5. |] [| 5.; 5.; 5. |]);
  Alcotest.check verdict "one differs" Mismatch (judge_t ~exact:true [| 5.; 5. |] [| 5.; 6. |]);
  Alcotest.check verdict "base itself varies" Mismatch
    (judge_t ~exact:true [| 5.; 4. |] [| 5.; 5. |])

(* --- comparing result sets --- *)

let result ?(failed = 0) workload metrics =
  { Ledger_compare.workload; seed = 1; correct = failed = 0; attempted = 100; failed; metrics }

let compare_sets () =
  let side p50 instrs =
    List.map
      (fun d ->
        result "profile_full"
          [ ("req_ms_p50", p50 +. d); ("machine.instrs.go", instrs) ])
      [ 0.; 0.1; -0.1; 0.05; -0.05 ]
  in
  let base = side 10. 100. in
  let same = side 10. 100. in
  let rows = Ledger_compare.rows ~base ~change:same in
  Alcotest.(check int) "one row per workload x metric" 2 (List.length rows);
  Alcotest.(check bool) "same code passes" false (Ledger_compare.failing ~base ~change:same rows);
  let slower = side 13. 100. in
  Alcotest.(check bool) "regression fails" true
    (Ledger_compare.failing ~base ~change:slower (Ledger_compare.rows ~base ~change:slower));
  let counted = side 10. 101. in
  let rows = Ledger_compare.rows ~base ~change:counted in
  Alcotest.(check bool) "exact-count mismatch fails" true
    (Ledger_compare.failing ~base ~change:counted rows);
  Alcotest.(check bool) "count row is a mismatch" true
    (List.exists (fun r -> r.Ledger_compare.r_verdict = Mismatch) rows);
  let broken = result ~failed:1 "profile_full" [ ("req_ms_p50", 10.); ("machine.instrs.go", 100.) ] :: same in
  Alcotest.(check bool) "a failed run fails" true
    (Ledger_compare.failing ~base ~change:broken (Ledger_compare.rows ~base ~change:broken));
  let partial = List.map (fun r -> { r with Ledger_compare.metrics = List.tl r.Ledger_compare.metrics }) same in
  Alcotest.(check bool) "a one-sided metric fails" true
    (Ledger_compare.failing ~base ~change:partial (Ledger_compare.rows ~base ~change:partial))

let result_lines_parse () =
  let line =
    {|{"correct": true, "attempted": 5, "failed": 0, "metrics": {"req_per_s": {"value": 1.5, "unit": "1/s"}}, "workload": "store_rw", "seed": 7, "trace": 0}|}
  in
  match Obs.Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let r = Ledger_compare.result_of_json j in
    Alcotest.(check string) "workload" "store_rw" r.workload;
    Alcotest.(check int) "seed" 7 r.seed;
    Alcotest.(check (list (pair string (float 0.)))) "metrics" [ ("req_per_s", 1.5) ] r.metrics

(* --- the catalog and BENCHMARK.json --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let benchmark_json_is_the_catalog () =
  match Obs.Json.parse (read_file "../../BENCHMARK.json") with
  | Error e -> Alcotest.fail e
  | Ok committed ->
    Alcotest.(check string) "BENCHMARK.json = ledger.exe manifest"
      (Obs.Json.to_string (Ledger_catalog.manifest ()))
      (Obs.Json.to_string committed)

let name_ok s =
  String.length s >= 1 && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let catalog_limits () =
  let open Ledger_catalog in
  let names =
    List.map (fun w -> w.w_name) workloads
    @ List.map (fun e -> e.e_name) end_to_end
    @ List.map (fun l -> l.l_name) per_layer
  in
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (name_ok n)) names;
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check int) "five workloads" 5 (List.length workloads);
  List.iter
    (fun w ->
      Alcotest.(check bool) ("short why " ^ w.w_name) true
        (String.length w.w_why <= 200 && not (String.contains w.w_why '\n')))
    workloads;
  Alcotest.(check bool) "per-layer count" true (List.length per_layer <= 128);
  let setup = Option.get (find_e2e "setup_s") in
  List.iter
    (fun e ->
      Alcotest.(check bool) ("bound " ^ e.e_name) true (e.e_bound > 0. && e.e_bound <= 0.25);
      Alcotest.(check bool) "setup_s has the largest bound" true (e.e_bound <= setup.e_bound))
    end_to_end

let () =
  Alcotest.run "ledger"
    [ ( "stats",
        [ Alcotest.test_case "quartiles match Python's statistics.quantiles" `Quick
            quartiles_match_python;
          Alcotest.test_case "median and spread" `Quick median_and_spread;
          Alcotest.test_case "latency percentiles and rate" `Quick latency_summary;
          Alcotest.test_case "pair wins" `Quick pair_wins_count ] );
      ( "verdict",
        [ Alcotest.test_case "improved, regressed, unchanged" `Quick verdict_rules;
          Alcotest.test_case "unresolved when spread > bound" `Quick
            unresolved_when_spread_exceeds_bound;
          Alcotest.test_case "exact-count mismatch fails" `Quick exact_count_mismatch_fails ] );
      ( "compare",
        [ Alcotest.test_case "two result sets" `Quick compare_sets;
          Alcotest.test_case "result lines parse" `Quick result_lines_parse ] );
      ( "catalog",
        [ Alcotest.test_case "BENCHMARK.json is the catalog" `Quick benchmark_json_is_the_catalog;
          Alcotest.test_case "names, whys and bounds within limits" `Quick catalog_limits ] ) ]
