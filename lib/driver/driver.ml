type 'a job =
  | Job : {
      profiler : (module Profiler_intf.S with type result = 'r and type config = 'c);
      config : 'c option;
      fuel : int option;
      workload : Workload.t;
      input : Workload.input;
      finish : 'r -> 'a;
    }
      -> 'a job

let job ?config ?fuel ~finish profiler workload input =
  Job { profiler; config; fuel; workload; input; finish }

let job_name (Job { profiler = (module P); workload; input; _ }) =
  Printf.sprintf "%s:%s:%s" P.name workload.Workload.wname
    (Workload.string_of_input input)

(* A schedulable unit: one machine execution serving one or more jobs.
   Members keep their submission index so results scatter back into
   submission order whatever the grouping did. *)
type 'a funit = {
  u_workload : Workload.t;
  u_input : Workload.input;
  u_fuel : int option;
  u_members : (int * 'a job) list; (* ascending submission index *)
}

(* Group jobs sharing a (workload, input, fuel) key, preserving the
   submission order of first occurrences (and of members within a unit),
   so a fused schedule is a deterministic function of the job list. *)
let fuse js =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun i (Job { workload; input; fuel; _ } as j) ->
      let key = (workload.Workload.wname, input, fuel) in
      match Hashtbl.find_opt tbl key with
      | Some cell -> cell := (i, j) :: !cell
      | None ->
        let cell = ref [ (i, j) ] in
        Hashtbl.add tbl key cell;
        order := cell :: !order)
    js;
  List.rev_map
    (fun cell ->
      match List.rev !cell with
      | [] -> assert false
      | (_, Job { workload; input; fuel; _ }) :: _ as members ->
        { u_workload = workload; u_input = input; u_fuel = fuel;
          u_members = members })
    !order

let unit_members u = u.u_members

let unit_name u =
  match u.u_members with
  | [ (_, j) ] -> job_name j
  | members ->
    Printf.sprintf "fused[%s]:%s:%s"
      (String.concat "+"
         (List.map
            (fun (_, Job { profiler = (module P); _ }) -> P.name)
            members))
      u.u_workload.Workload.wname
      (Workload.string_of_input u.u_input)

let unit_fuel u = u.u_fuel

let m_units = Obs.Metrics.counter "driver.units"
let m_fused_units = Obs.Metrics.counter "driver.fused_units"

let run_unit_with_fuel ~fuel:override u =
  let fuel = match override with Some _ -> override | None -> u.u_fuel in
  let prog = u.u_workload.Workload.wbuild u.u_input in
  Obs.Metrics.incr m_units;
  Obs.Trace.with_span ~cat:"driver" "driver.unit" @@ fun () ->
  match u.u_members with
  | [ (i, Job { profiler = (module P); config; finish; _ }) ] ->
    (* solo units take the profiler's own entry point, exactly the
       pre-fusion code path *)
    [ (i, finish (P.run ?config ?fuel prog)) ]
  | members ->
    Obs.Metrics.incr m_fused_units;
    let items =
      List.map
        (fun (_, Job { profiler; config; finish; _ }) ->
          Fused.item ?config ~finish profiler)
        members
    in
    let f = Fused.run ?fuel prog items in
    List.map2 (fun (i, _) r -> (i, r)) members f.Fused.results

let run_unit u = run_unit_with_fuel ~fuel:None u

let scatter n per_unit =
  let slots = Array.make n None in
  List.iter (List.iter (fun (i, v) -> slots.(i) <- Some v)) per_unit;
  Array.to_list slots
  |> List.map (function Some v -> v | None -> assert false)

let run_jobs ?jobs js =
  match js with
  | [] -> []
  | _ -> Pool.map ?jobs run_unit (fuse js) |> scatter (List.length js)

let plan js = List.map unit_name (fuse js)

let default_jobs = Pool.default_jobs

let map = Pool.map
