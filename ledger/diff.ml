(* diff.exe BASE CHANGE — compare two sets of benchmark results.

   BASE and CHANGE are each a results file written by
   `ledger/run.py --save FILE` (one JSON result per line) or a directory
   of such files. Prints one row per workload x metric: each side's
   median and quartiles, the change against the base median, pair wins
   (change/base/ties, runs paired in file order) and a verdict. Exits 1
   on a regression beyond a metric's bound, an exact-count mismatch, a
   metric present on one side only, or a failed run on the change side. *)

open Ledger_compare

let load path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f -> read_results (Filename.concat path f))
  else read_results path

let () =
  match Array.to_list Sys.argv with
  | [ _; base_path; change_path ] ->
    let base = load base_path and change = load change_path in
    let rows = rows ~base ~change in
    Printf.printf "%-16s %-40s %-34s %-34s %8s %9s  %s\n" "workload" "metric"
      "base median [q1, q3]" "change median [q1, q3]" "change" "wins c/b/t" "verdict";
    List.iter
      (fun r ->
        let side xs =
          let q1, m, q3 = Ledger_stats.quartiles xs in
          Printf.sprintf "%.6g [%.6g, %.6g] n=%d" m q1 q3 (Array.length xs)
        in
        let mb = Ledger_stats.median r.r_base and mc = Ledger_stats.median r.r_change in
        Printf.printf "%-16s %-40s %-34s %-34s %+7.2f%% %3d/%d/%d  %s\n" r.r_workload r.r_metric
          (side r.r_base) (side r.r_change)
          (if mb = 0. then 0. else 100. *. (mc -. mb) /. Float.abs mb)
          r.r_wins.change_wins r.r_wins.base_wins r.r_wins.ties
          (Ledger_stats.string_of_verdict r.r_verdict))
      rows;
    List.iter
      (fun (r : result) ->
        Printf.printf "failed run: %s seed %d (%d of %d failed)\n" r.workload r.seed r.failed
          r.attempted)
      (failures change);
    if failing ~base ~change rows then begin
      print_endline "verdict: FAIL";
      exit 1
    end
    else print_endline "verdict: ok"
  | _ ->
    prerr_endline "usage: diff.exe BASE CHANGE (results files or directories)";
    exit 2
