(* The benchmark's measuring program. `ledger/run.py` builds it and runs
   one subcommand per child process:

     run      one workload: set-up (timed three times), then requests for
              --seconds, every output checked; --trace-dir adds a traced
              second half and writes its trace
     oracle   the independent Oracle check on all 24 programs
     ladder   the per-layer ladder, on go, compress and swim
     check    smoke: every workload with one set-up and one request,
              plus the Oracle check; exits 1 on any wrong output
     bless    rewrite the golden digests from this tree
     manifest print BENCHMARK.json as the catalog defines it

   Each subcommand that measures prints one JSON object as the last line
   of its standard output. *)

let workload = ref ""
let seed = ref 1
let seconds = ref (float_of_int Ledger_catalog.run_seconds)
let trace_dir = ref ""
let vprof = ref "_build/default/bin/vprof.exe"
let golden_dir = ref "ledger/golden"
let scratch = ref "_ledger"

(* set-ups timed per run (the median is reported) and ladder repetitions *)
let setups = 3
let reps = 15

let specs =
  [ ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N seed drawing request order and store operations");
    ("--seconds", Arg.Set_float seconds, "S seconds of measured requests");
    ("--trace-dir", Arg.Set_string trace_dir, "DIR write traces and rollups here");
    ("--vprof", Arg.Set_string vprof, "PATH the vprof binary");
    ("--golden", Arg.Set_string golden_dir, "DIR golden digests");
    ("--scratch", Arg.Set_string scratch, "DIR scratch directory for stores") ]

let emit ~correct ~attempted ~failed metrics =
  let open Obs.Json in
  let metric (name, value, unit) = (name, Obj [ ("value", Num value); ("unit", Str unit) ]) in
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool correct);
            ("attempted", Num (float_of_int attempted));
            ("failed", Num (float_of_int failed));
            ("metrics", Obj (List.map metric metrics)) ]))

let ctx () =
  { Work.seed = !seed; golden = Golden.load !golden_dir; vprof = !vprof; scratch = !scratch }

(* --- run --- *)

type phase = {
  by_kind : (string, Probe.samples) Hashtbl.t;
  mutable count : int;
  mutable failed : int;
}

let phase () = { by_kind = Hashtbl.create 64; count = 0; failed = 0 }

let summary ph =
  Ledger_stats.summary (Hashtbl.fold (fun _ s l -> Probe.to_array s :: l) ph.by_kind [])

(* Issue requests pass by pass until [budget] seconds have passed (checked
   between passes) or [limit] requests were made. Each request of a
   [fresh_heap] workload starts from a collected heap, as in a fresh
   process; the collection is off the clock. *)
let measure (w : Work.t) ~next_pass ~budget ~limit ph =
  let deadline = Probe.now () +. budget in
  while Probe.now () < deadline && ph.count < limit do
    Array.iter
      (fun (r : Work.request) ->
        if ph.count < limit then begin
          ph.count <- ph.count + 1;
          if w.fresh_heap then Gc.full_major ();
          let span s f = Obs.Trace.with_span ~cat:"ledger" ("ledger." ^ s ^ ":" ^ r.kind) f in
          let check, dt =
            Probe.time (fun () -> try Some (span "request" r.exec) with _ -> None)
          in
          (match Hashtbl.find_opt ph.by_kind r.kind with
           | Some s -> Probe.push s dt
           | None ->
             let s = Probe.samples () in
             Probe.push s dt;
             Hashtbl.replace ph.by_kind r.kind s);
          let ok = match check with Some c -> (try span "check" c with _ -> false) | None -> false in
          if not ok then ph.failed <- ph.failed + 1
        end)
      (w.pass (next_pass ()))
  done

let run_cmd () =
  let w = Work.find !workload (ctx ()) in
  Probe.mkdir_p !scratch;
  let setup_times = Array.init setups (fun _ -> snd (Probe.time w.setup)) in
  let pass = ref (-1) in
  let next_pass () = incr pass; !pass in
  let untraced = phase () and traced = phase () in
  if !trace_dir = "" then measure w ~next_pass ~budget:!seconds ~limit:max_int untraced
  else begin
    measure w ~next_pass ~budget:(!seconds /. 2.) ~limit:max_int untraced;
    Obs.Trace.reset ();
    Obs.Trace.set_enabled true;
    measure w ~next_pass ~budget:(!seconds /. 2.) ~limit:max_int traced;
    Obs.Trace.set_enabled false;
    Probe.dump_trace ~dir:!trace_dir !workload
  end;
  let finish_ok = w.finish () in
  let l = summary untraced in
  Printf.eprintf
    "%s: set-up %s s; %d requests of %d kinds: p50 %.4f ms, p90 %.4f ms, %.2f/s%s\n" !workload
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_times)))
    l.count (Hashtbl.length untraced.by_kind) l.p50_ms l.p90_ms l.rate
    (if finish_ok then "" else "; final-state check FAILED");
  let failed = untraced.failed + traced.failed in
  let metrics =
    if !trace_dir = "" then
      [ ("req_per_s", l.rate, "1/s");
        ("req_ms_p50", l.p50_ms, "ms");
        ("req_ms_p90", l.p90_ms, "ms");
        ("setup_s", Ledger_stats.median setup_times, "s") ]
    else [ ("obs.trace_overhead", (summary traced).rate /. l.rate, "x") ]
  in
  emit ~correct:(failed = 0 && finish_ok) ~attempted:(untraced.count + traced.count) ~failed
    metrics

(* --- oracle --- *)

let oracle_cmd () =
  let r = Golden.oracle_check (Golden.load !golden_dir) in
  let nv = List.length r.violations in
  List.iteri (fun i v -> if i < 20 then prerr_endline ("oracle: " ^ v)) r.violations;
  Printf.eprintf "oracle: %d points checked, %d violations\n" r.points nv;
  emit ~correct:(nv = 0) ~attempted:r.points ~failed:nv []

(* --- ladder --- *)

let ladder_cmd () =
  Probe.mkdir_p !scratch;
  let traced = !trace_dir <> "" in
  if traced then begin
    Obs.Trace.reset ();
    Obs.Trace.set_enabled true
  end;
  let stats = Ladder.run { Ladder.vprof = !vprof; scratch = !scratch; reps } in
  Obs.Trace.set_enabled false;
  if traced then begin
    Probe.dump_trace ~dir:!trace_dir "ladder";
    Ladder.report (Filename.concat !trace_dir "ladder.txt") stats
  end;
  let metrics =
    List.filter_map
      (fun (l : Ledger_catalog.layer_metric) ->
        Option.map (fun (s : Ladder.stat) -> (l.l_name, s.median, l.l_unit))
          (List.assoc_opt l.l_name stats))
      Ledger_catalog.per_layer
  in
  emit ~correct:true ~attempted:reps ~failed:0 metrics

(* --- check --- *)

let check_cmd () =
  let c = ctx () in
  Probe.mkdir_p !scratch;
  let bad = ref 0 in
  List.iter
    (fun (name, make) ->
      let w : Work.t = make c in
      w.setup ();
      let ph = phase () in
      measure w ~next_pass:(fun () -> 0) ~budget:infinity ~limit:1 ph;
      let ok = ph.failed = 0 && ph.count = 1 && w.finish () in
      Printf.printf "check %-16s %s\n%!" name (if ok then "ok" else "WRONG OUTPUT");
      if not ok then incr bad)
    Work.all;
  let r = Golden.oracle_check c.golden in
  Printf.printf "check %-16s %s (%d points)\n" "oracle"
    (if r.violations = [] then "ok" else "VIOLATED") r.points;
  List.iter prerr_endline r.violations;
  if !bad > 0 || r.violations <> [] then exit 1

let () =
  let cmd = ref "" in
  Arg.parse specs (fun a -> if !cmd = "" then cmd := a else raise (Arg.Bad a))
    "ledger.exe (run|oracle|ladder|check|bless|manifest) [options]";
  match !cmd with
  | "run" -> run_cmd ()
  | "oracle" -> oracle_cmd ()
  | "ladder" -> ladder_cmd ()
  | "check" -> check_cmd ()
  | "bless" ->
    let n = Golden.bless ~dir:!golden_dir ~vprof:!vprof ~scratch:!scratch in
    Printf.printf "wrote %d digests to %s\n" n (Golden.file !golden_dir)
  | "manifest" -> print_endline (Obs.Json.to_string (Ledger_catalog.manifest ()))
  | c ->
    prerr_endline ("ledger.exe: unknown subcommand " ^ c);
    exit 2
