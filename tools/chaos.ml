(* chaos: seeded multi-fault campaign harness for the vprof binary.

   Each seed drives one campaign of five scenarios against a REAL vprof
   subprocess (no in-process shortcuts — the assertions cover the exit
   codes and on-disk artifacts users actually see):

     1. usage     — a malformed VPROF_FAULT spec must be rejected with a
                    usage error (exit 2), not silently ignored.
     2. storm     — a randomly generated multi-site fault schedule is
                    armed over a checkpointed experiment run; whatever it
                    kills, the exit code must stay in {0, 1} (never a
                    hang, never an internal error) and a fault-free rerun
                    against the same directory must reproduce the
                    fault-free reference bytes exactly.
     3. deadline  — a run under an impossible --deadline must exit 3 and
                    still leave complete --trace/--metrics dumps behind.
     4. degrade   — a run under --max-heap 0 --degrade must complete
                    (exit 0) and report its degradation in the metrics.
     5. truncate  — the committed checkpoint manifest is cut at a random
                    byte; a rerun must salvage the intact prefix and
                    still reproduce the reference bytes exactly.

   With --kill-loop the harness instead runs the crash-point survival
   campaign: a store is seeded with an acknowledged profile, then the
   real binary is SIGKILLed (Fault.Kill, a genuine kill -9) in each
   window of a put — before anything, before its payload rename, and
   between its payload and manifest renames; after each crash the
   store is reopened and two invariants are asserted — `store verify`
   exits 0 and a warm run of the seeded workload is still served from
   cache (no acknowledged profile lost). A `store gc` killed between
   its manifest rename and its file removals must leave a store that
   verifies clean and serves what it kept, and the next gc must leave
   only payload files a manifest row names. A checkpointed suite killed
   at its first store.commit must rerun to byte-identical reference
   output.

   Every subprocess runs under coreutils `timeout` (the hard deadline):
   exit 124 means the binary hung, which fails the campaign on its own.

   Usage: chaos [--vprof PATH] [--seeds N,N,...] [--report FILE]
                [--timeout SECONDS] [--kill-loop]
   Exit codes: 0 all campaigns passed, 1 at least one assertion failed,
   2 usage error. *)

let usage () =
  prerr_endline
    "usage: chaos [--vprof PATH] [--seeds N,N,...] [--report FILE] \
     [--timeout SECONDS] [--kill-loop]";
  exit 2

type opts = {
  mutable vprof : string;
  mutable seeds : int list;
  mutable report : string option;
  mutable timeout : int;
  mutable kill_loop : bool;
}

let parse_args () =
  let o =
    { vprof = "_build/default/bin/vprof.exe";
      seeds = [ 101; 202; 303 ];
      report = None;
      timeout = 120;
      kill_loop = false }
  in
  let rec go = function
    | [] -> o
    | "--vprof" :: v :: rest ->
      o.vprof <- v;
      go rest
    | "--seeds" :: v :: rest ->
      (match
         String.split_on_char ',' v |> List.map String.trim
         |> List.filter (fun s -> s <> "")
         |> List.map int_of_string
       with
       | [] -> usage ()
       | seeds -> o.seeds <- seeds
       | exception Failure _ -> usage ());
      go rest
    | "--report" :: v :: rest ->
      o.report <- Some v;
      go rest
    | "--timeout" :: v :: rest ->
      (match int_of_string_opt v with
       | Some t when t > 0 -> o.timeout <- t
       | _ -> usage ());
      go rest
    | "--kill-loop" :: rest ->
      o.kill_loop <- true;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* --- subprocess plumbing --- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

(* Run vprof with [args] under the hard deadline. [fault]/[fault_seed]
   set the injection environment; both are explicitly cleared otherwise,
   so a campaign is immune to whatever the caller's shell exports. The
   exit code comes back raw: 124 is the watchdog's "it hung". *)
let run_vprof opts ?fault ?fault_seed ~out ~err args =
  let env =
    match fault with
    | None -> "env -u VPROF_FAULT -u VPROF_FAULT_SEED"
    | Some spec ->
      Printf.sprintf "env VPROF_FAULT=%s VPROF_FAULT_SEED=%s"
        (Filename.quote spec)
        (Filename.quote
           (match fault_seed with Some s -> string_of_int s | None -> "1"))
  in
  let cmd =
    Printf.sprintf "%s timeout %d %s %s > %s 2> %s" env opts.timeout
      (Filename.quote opts.vprof)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  Sys.command cmd

(* --- campaign state --- *)

type check = { c_seed : int; c_name : string; c_ok : bool; c_detail : string }

let checks : check list ref = ref []

let record ~seed ~name ok detail =
  checks := { c_seed = seed; c_name = name; c_ok = ok; c_detail = detail }
           :: !checks;
  Printf.printf "%s seed=%d %-10s %s\n%!"
    (if ok then "PASS" else "FAIL")
    seed name detail

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* --- random fault schedules (scenario 2) --- *)

(* Sites the schedule draws from, with a plausible trip-count range each:
   machine.step fires deep inside a run, the driver/supervisor sites on
   the first few crossings. The generated spec exercises the multi-site
   grammar (comma-separated, N-shot and probabilistic entries). *)
let sites =
  [| ("machine.step", 1_000, 200_000);
     ("supervisor.job", 1, 4);
     ("pool.worker", 1, 4);
     ("checkpoint.load", 1, 2);
     ("shard.merge", 1, 2);
     ("store.commit", 1, 4);
     ("store.orphan", 1, 4) |]

let random_schedule rng =
  let picks = 1 + Rng.int rng 3 in
  let chosen = Array.copy sites in
  Rng.shuffle rng chosen;
  List.init picks (fun i ->
      let site, lo, hi = chosen.(i) in
      if site = "machine.step" && Rng.bool rng then
        (* probabilistic arming: fires eventually, seeded so the same
           campaign seed replays the same run *)
        Printf.sprintf "%s@~%g" site 0.00001
      else begin
        let at = lo + Rng.int rng (hi - lo + 1) in
        let count = 1 + Rng.int rng 2 in
        if count = 1 then Printf.sprintf "%s@%d" site at
        else Printf.sprintf "%s@%d#%d" site at count
      end)
  |> String.concat ","

(* --- the five scenarios --- *)

let scenario_usage opts ~seed ~dir =
  let out = Filename.concat dir "usage.out"
  and err = Filename.concat dir "usage.err" in
  let code =
    run_vprof opts ~fault:"machine.step@@bogus" ~out ~err [ "list" ]
  in
  record ~seed ~name:"usage" (code = 2)
    (Printf.sprintf "malformed VPROF_FAULT -> exit %d (want 2)" code)

(* The fault-free reference bytes every salvage scenario compares
   against; collected once per campaign. *)
let reference opts ~dir =
  let ref_dir = Filename.concat dir "ref-ck" in
  let out = Filename.concat dir "ref.out"
  and err = Filename.concat dir "ref.err" in
  let code =
    run_vprof opts ~out ~err
      [ "experiments"; "--smoke"; "--checkpoint"; ref_dir ]
  in
  if code <> 0 then None
  else
    match read_file out with Some bytes -> Some bytes | None -> None

let scenario_storm opts rng ~seed ~dir ~ref_bytes =
  let ck = Filename.concat dir "storm-ck" in
  let out = Filename.concat dir "storm.out"
  and err = Filename.concat dir "storm.err" in
  let spec = random_schedule rng in
  let code =
    run_vprof opts ~fault:spec ~fault_seed:seed ~out ~err
      [ "experiments"; "--smoke"; "--checkpoint"; ck ]
  in
  let code_ok = code = 0 || code = 1 in
  record ~seed ~name:"storm" code_ok
    (Printf.sprintf "VPROF_FAULT=%S -> exit %d (want 0|1, 124 = hang)" spec
       code);
  (* whatever the storm did to the run, a clean rerun must finish the
     suite and reproduce the reference bytes exactly *)
  let out2 = Filename.concat dir "storm-resume.out" in
  let code2 =
    run_vprof opts ~out:out2 ~err
      [ "experiments"; "--smoke"; "--checkpoint"; ck ]
  in
  let bytes = read_file out2 in
  record ~seed ~name:"storm" (code2 = 0 && bytes = Some ref_bytes)
    (Printf.sprintf "fault-free rerun -> exit %d, bytes %s reference" code2
       (if bytes = Some ref_bytes then "==" else "!="))

let scenario_deadline opts ~seed ~dir =
  let trace = Filename.concat dir "deadline-trace.json"
  and metrics = Filename.concat dir "deadline-metrics.json" in
  let out = Filename.concat dir "deadline.out"
  and err = Filename.concat dir "deadline.err" in
  let code =
    run_vprof opts ~out ~err
      [ "profile"; "-w"; "go"; "--deadline"; "0.001"; "--trace"; trace;
        "--metrics"; metrics ]
  in
  let trace_ok =
    match read_file trace with
    | Some t -> String.length t > 0 && contains ~needle:"budget.deadline" t
    | None -> false
  in
  let metrics_ok =
    match read_file metrics with
    | Some m -> contains ~needle:"budget.deadline_trips" m
    | None -> false
  in
  record ~seed ~name:"deadline"
    (code = 3 && trace_ok && metrics_ok)
    (Printf.sprintf
       "--deadline 0.001 -> exit %d (want 3), trace dump %s, metrics dump %s"
       code
       (if trace_ok then "complete" else "MISSING")
       (if metrics_ok then "complete" else "MISSING"))

let scenario_degrade opts ~seed ~dir =
  let metrics = Filename.concat dir "degrade-metrics.json" in
  let out = Filename.concat dir "degrade.out"
  and err = Filename.concat dir "degrade.err" in
  let code =
    run_vprof opts ~out ~err
      [ "profile"; "-w"; "go"; "--max-heap"; "0"; "--degrade"; "--metrics";
        metrics ]
  in
  let degraded =
    match read_file metrics with
    | Some m -> contains ~needle:"degrade.steps" m
    | None -> false
  in
  record ~seed ~name:"degrade" (code = 0 && degraded)
    (Printf.sprintf
       "--max-heap 0 --degrade -> exit %d (want 0), degrade.steps %s" code
       (if degraded then "recorded" else "MISSING"))

let scenario_truncate opts rng ~seed ~dir ~ref_bytes =
  let ck = Filename.concat dir "trunc-ck" in
  let out = Filename.concat dir "trunc.out"
  and err = Filename.concat dir "trunc.err" in
  let code =
    run_vprof opts ~out ~err
      [ "experiments"; "--smoke"; "--checkpoint"; ck ]
  in
  if code <> 0 then
    record ~seed ~name:"truncate" false
      (Printf.sprintf "seeding run -> exit %d (want 0)" code)
  else begin
    let manifest = Filename.concat ck "manifest" in
    (match read_file manifest with
     | None -> record ~seed ~name:"truncate" false "no manifest written"
     | Some text ->
       let cut = Rng.int rng (String.length text + 1) in
       let oc = open_out_bin manifest in
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () -> output_string oc (String.sub text 0 cut));
       let out2 = Filename.concat dir "trunc-resume.out" in
       let code2 =
         run_vprof opts ~out:out2 ~err
           [ "experiments"; "--smoke"; "--checkpoint"; ck ]
       in
       let bytes = read_file out2 in
       record ~seed ~name:"truncate"
         (code2 = 0 && bytes = Some ref_bytes)
         (Printf.sprintf
            "manifest cut at byte %d/%d, rerun -> exit %d, bytes %s \
             reference"
            cut (String.length text) code2
            (if bytes = Some ref_bytes then "==" else "!=")))
  end

(* --- the kill-loop campaign (--kill-loop) --- *)

let write_text path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* Two tiny assembly pseudo-workloads (the CLI accepts .vasm paths as
   workloads): distinct basenames and bodies, so their store fingerprints
   can never alias. Each executes in microseconds, which keeps every
   crash-reopen-verify iteration cheap. *)
let seeded_program =
  ".entry main\n.proc main\n  ldi t0, #3\n  add t1, t0, t0\n  add t2, t1, t0\n\
  \  halt\n.end\n"

let victim_program =
  ".entry main\n.proc main\n  ldi t0, #5\n  add t1, t0, #2\n  add t2, t1, t1\n\
  \  halt\n.end\n"

let kill_campaign opts seed =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vprof-chaos-kill-%d-%d" (Unix.getpid ()) seed)
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let seeded = Filename.concat dir "seeded.vasm" in
      let victim = Filename.concat dir "victim.vasm" in
      write_text seeded seeded_program;
      write_text victim victim_program;
      let st = Filename.concat dir "kill-store" in
      let out = Filename.concat dir "kill.out"
      and err = Filename.concat dir "kill.err" in
      (* seed the store with one ACKNOWLEDGED profile (exit 0 is the
         acknowledgment) — the entry every later crash must not lose *)
      let code =
        run_vprof opts ~out ~err
          [ "profile"; "-w"; seeded; "--store"; st ]
      in
      if code <> 0 then
        record ~seed ~name:"kill-seed" false
          (Printf.sprintf "seeding run -> exit %d (want 0)" code)
      else begin
        record ~seed ~name:"kill-seed" true "store seeded (exit 0)";
        let iters = ref 0 and failures = ref [] in
        let warm_hit w =
          let warm_err = Filename.concat dir "warm.err" in
          let wcode =
            run_vprof opts ~out ~err:warm_err
              [ "profile"; "-w"; w; "--store"; st ]
          in
          wcode = 0
          && (match read_file warm_err with
              | Some e -> contains ~needle:"store: hit" e
              | None -> false)
        in
        let verify () =
          run_vprof opts ~out ~err [ "store"; "verify"; "--store"; st ]
        in
        (* one crash-reopen-verify iteration: the victim run is SIGKILLed
           under [spec]; reopening must leave a store that verifies clean
           and still serves the seeded profile from cache *)
        let crash_and_check spec =
          incr iters;
          let ccode =
            run_vprof opts ~fault:spec ~fault_seed:seed ~out ~err
              [ "profile"; "-w"; victim; "--store"; st ]
          in
          let vcode = verify () in
          let hit = warm_hit seeded in
          if not (ccode = 137 && vcode = 0 && hit) then
            failures :=
              Printf.sprintf
                "%s: crash exit %d (want 137), verify exit %d (want 0), \
                 seeded entry %s"
                spec ccode vcode
                (if hit then "served" else "LOST")
              :: !failures
        in
        (* a put's windows: before anything, before its payload rename,
           between its payload and manifest renames *)
        List.iter crash_and_check
          [ "store.commit@1@kill"; "store.payload.write@1@kill";
            "store.orphan@1@kill" ];
        record ~seed ~name:"kill-loop" (!failures = [])
          (match !failures with
           | [] ->
             Printf.sprintf
               "%d crash points survived (verify 0, seeded entry served)"
               !iters
           | f :: rest ->
             Printf.sprintf "%d of %d crash points failed; first: %s"
               (List.length !failures) !iters
               (if rest = [] then f else f ^ " (+ more)"));
        (* a gc killed between its manifest rename and its removals: the
           victim, committed last, is kept; the seeded entry, older than
           the last generation, is dropped *)
        let pcode =
          run_vprof opts ~out ~err [ "profile"; "-w"; victim; "--store"; st ]
        in
        let gcode =
          run_vprof opts ~fault:"store.orphan@1@kill" ~fault_seed:seed ~out
            ~err
            [ "store"; "gc"; "--store"; st; "--keep"; "1" ]
        in
        (* payload files on disk, and manifest rows naming one *)
        let files_and_rows () =
          let files =
            Array.fold_left
              (fun n f -> if Filename.check_suffix f ".out" then n + 1 else n)
              0 (Sys.readdir st)
          in
          let rows =
            match read_file (Filename.concat st "manifest") with
            | None -> 0
            | Some m ->
              List.length
                (List.filter
                   (fun l -> String.starts_with ~prefix:"done " l)
                   (String.split_on_char '\n' m))
          in
          (files, rows)
        in
        let files, rows = files_and_rows () in
        let vcode = verify () in
        let kept = warm_hit victim in
        record ~seed ~name:"kill-gc"
          (pcode = 0 && gcode = 137 && files > rows && vcode = 0 && kept)
          (Printf.sprintf
             "gc killed after its manifest rename -> exit %d (want 137), %d \
              payload files for %d rows, verify exit %d (want 0), kept \
              entry %s"
             gcode files rows vcode
             (if kept then "served" else "LOST"));
        (* the next gc removes every file the crashes left unnamed *)
        let gcode =
          run_vprof opts ~out ~err
            [ "store"; "gc"; "--store"; st; "--keep"; "1000" ]
        in
        let files, rows = files_and_rows () in
        record ~seed ~name:"kill-gc"
          (gcode = 0 && files = rows)
          (Printf.sprintf
             "clean gc -> exit %d (want 0), %d payload files for %d rows" gcode
             files rows)
      end;
      (* a supervised suite killed at its first store commit: a
         fault-free rerun against the same directory must reproduce the
         fault-free reference bytes exactly *)
      match reference opts ~dir with
      | None ->
        record ~seed ~name:"kill-ck" false
          "fault-free reference run failed; skipping checkpoint kill"
      | Some ref_bytes ->
        let ck = Filename.concat dir "kill-ck" in
        let out = Filename.concat dir "ck.out"
        and err = Filename.concat dir "ck.err" in
        let code =
          run_vprof opts ~fault:"store.commit@1@kill" ~fault_seed:seed
            ~out ~err
            [ "experiments"; "--smoke"; "--checkpoint"; ck ]
        in
        let out2 = Filename.concat dir "ck-resume.out" in
        let code2 =
          run_vprof opts ~out:out2 ~err
            [ "experiments"; "--smoke"; "--checkpoint"; ck ]
        in
        let bytes = read_file out2 in
        record ~seed ~name:"kill-ck"
          (code = 137 && code2 = 0 && bytes = Some ref_bytes)
          (Printf.sprintf
             "kill at store.commit -> exit %d (want 137), rerun -> exit %d, \
              bytes %s reference"
             code code2
             (if bytes = Some ref_bytes then "==" else "!=")))

let campaign opts seed =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vprof-chaos-%d-%d" (Unix.getpid ()) seed)
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let rng = Rng.create (Int64.of_int seed) in
      scenario_usage opts ~seed ~dir;
      match reference opts ~dir with
      | None ->
        record ~seed ~name:"reference" false
          "fault-free reference run failed; skipping salvage scenarios"
      | Some ref_bytes ->
        scenario_storm opts rng ~seed ~dir ~ref_bytes;
        scenario_deadline opts ~seed ~dir;
        scenario_degrade opts ~seed ~dir;
        scenario_truncate opts rng ~seed ~dir ~ref_bytes)

let write_report path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let all = List.rev !checks in
      let failed = List.filter (fun c -> not c.c_ok) all in
      Printf.fprintf oc "chaos campaign report\n";
      List.iter
        (fun c ->
          Printf.fprintf oc "%s seed=%d %s: %s\n"
            (if c.c_ok then "PASS" else "FAIL")
            c.c_seed c.c_name c.c_detail)
        all;
      Printf.fprintf oc "%d checks, %d failed\n" (List.length all)
        (List.length failed))

let () =
  let opts = parse_args () in
  if not (Sys.file_exists opts.vprof) then begin
    Printf.eprintf "chaos: no vprof binary at %s (build first, or pass \
                    --vprof)\n" opts.vprof;
    exit 2
  end;
  List.iter (if opts.kill_loop then kill_campaign opts else campaign opts)
    opts.seeds;
  let all = List.rev !checks in
  let failed = List.filter (fun c -> not c.c_ok) all in
  (match opts.report with Some path -> write_report path | None -> ());
  Printf.printf "chaos: %d checks across %d seeds, %d failed\n"
    (List.length all) (List.length opts.seeds) (List.length failed);
  exit (if failed = [] then 0 else 1)
