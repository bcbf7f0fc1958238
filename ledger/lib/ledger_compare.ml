(* Comparing two sets of benchmark results, one row per workload x
   metric. A result is one line written by [run.py --save FILE]:
   {"workload", "seed", "correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}}. *)

open Ledger_stats

type result = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let result_of_json j =
  let open Obs.Json in
  let field k = match member k j with Some v -> v | None -> failwith ("missing " ^ k) in
  let num k = match field k with Num x -> x | _ -> failwith (k ^ " is not a number") in
  let metrics =
    match field "metrics" with
    | Obj kvs ->
      List.map
        (fun (name, v) ->
          match member "value" v with
          | Some (Num x) -> (name, x)
          | _ -> failwith ("metric " ^ name ^ " has no numeric value"))
        kvs
    | _ -> failwith "metrics is not an object"
  in
  { workload = (match field "workload" with Str s -> s | _ -> failwith "workload");
    seed = int_of_float (num "seed");
    correct = (match field "correct" with Bool b -> b | _ -> failwith "correct");
    attempted = int_of_float (num "attempted");
    failed = int_of_float (num "failed");
    metrics }

let read_results path =
  let ic = open_in_bin path in
  let rec lines acc n =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | "" -> lines acc (n + 1)
    | line -> (
      match Obs.Json.parse line with
      | Error e -> failwith (Printf.sprintf "%s:%d: %s" path n e)
      | Ok j -> (
        match result_of_json j with
        | r -> lines (r :: acc) (n + 1)
        | exception Failure e -> failwith (Printf.sprintf "%s:%d: %s" path n e)))
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> lines [] 1)

type row = {
  r_workload : string;
  r_metric : string;
  r_base : float array;
  r_change : float array;
  r_wins : wins;
  r_verdict : verdict;
  r_gated : bool;  (** its verdict can fail the comparison *)
}

(* The rule a metric is judged by: an end-to-end metric by its bound and
   direction from the catalog, an exact count by equality. Other
   per-layer timings have no bound; they are judged against 10% for the
   report but never fail the comparison. *)
let rule name =
  match Ledger_catalog.find_e2e name with
  | Some e -> (e.e_better, e.e_bound, false, true)
  | None -> (
    match Ledger_catalog.find_layer name with
    | Some l -> (l.l_better, 0.1, l.l_exact, l.l_exact)
    | None -> (Lower, 0.1, false, false))

let values results workload metric =
  List.filter_map
    (fun r -> if r.workload = workload then List.assoc_opt metric r.metrics else None)
    results
  |> Array.of_list

let rows ~base ~change =
  let keys =
    List.concat_map
      (fun r -> List.map (fun (m, _) -> (r.workload, m)) r.metrics)
      (base @ change)
    |> List.sort_uniq compare
  in
  List.filter_map
    (fun (w, m) ->
      let b = values base w m and c = values change w m in
      if Array.length b = 0 || Array.length c = 0 then None
      else begin
        let better, bound, exact, gated = rule m in
        Some
          { r_workload = w; r_metric = m; r_base = b; r_change = c;
            r_wins = pair_wins better ~base:b ~change:c;
            r_verdict = judge ~better ~bound ~exact ~base:b ~change:c;
            r_gated = gated }
      end)
    keys

(* Runs that failed or produced a wrong output, per side. *)
let failures results =
  List.filter (fun r -> (not r.correct) || r.failed > 0) results

(* The comparison fails on a regressed end-to-end metric, an exact-count
   mismatch, a metric present on one side only, or any failed run of the
   change. *)
let failing ~base ~change rows =
  let one_sided =
    let names rs = List.concat_map (fun r -> List.map (fun (m, _) -> (r.workload, m)) r.metrics) rs in
    let b = names base and c = names change in
    List.exists (fun k -> not (List.mem k c)) b || List.exists (fun k -> not (List.mem k b)) c
  in
  one_sided
  || failures change <> []
  || List.exists (fun r -> r.r_gated && (r.r_verdict = Regressed || r.r_verdict = Mismatch)) rows
