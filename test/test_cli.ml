(* End-to-end tests of the vprof binary: each subcommand runs against the
   real executable (declared as a dune dependency) and its output is
   checked for the expected shape. *)

let vprof = "../bin/vprof.exe"

(* Runs the binary, returns (exit_code, combined output). [env] is a
   shell-syntax variable prefix, e.g. ["VPROF_FAULT=site@1"]. *)
let run_cli ?(env = "") args =
  let out = Filename.temp_file "vprof_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s%s %s > %s 2>&1"
          (if env = "" then "" else env ^ " ")
          (Filename.quote vprof) args (Filename.quote out)
      in
      let code = Sys.command cmd in
      let ic = open_in out in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      (code, text))

(* Like [run_cli], but returns stdout alone (stderr is discarded), for
   byte-identity checks that the store's stderr accounting would spoil. *)
let run_stdout args =
  let out = Filename.temp_file "vprof_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2>/dev/null" (Filename.quote vprof) args
             (Filename.quote out))
      in
      (code, In_channel.with_open_bin out In_channel.input_all))

let check_ok name args expectations =
  let code, out = run_cli args in
  Alcotest.(check int) (name ^ ": exit code") 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: output mentions %S" name needle)
        true
        (Astring_contains.contains out needle))
    expectations

let test_binary_present () =
  Alcotest.(check bool) "vprof.exe built" true (Sys.file_exists vprof)

let test_list () =
  check_ok "list" "list" [ "compress"; "m88ksim"; "fpppp"; "SPEC95" ]

let test_run () = check_ok "run" "run -w li" [ "li"; "dynamic instructions" ]

let test_profile () =
  check_ok "profile" "profile -w go -s loads -t 3"
    [ "Inv-Top"; "LVP"; "predictor"; "eval" ]

let test_memory () =
  check_ok "memory" "memory -w alvinn -t 2" [ "locations"; "invariant" ]

let test_procs () = check_ok "procs" "procs -w m88ksim" [ "execute"; "calls" ]

let test_specialize () =
  check_ok "specialize" "specialize -w m88ksim"
    [ "execute"; "results identical" ]

let test_memoize () =
  check_ok "memoize" "memoize -w vortex -p find -a 2"
    [ "memoized find/2"; "results identical" ]

let test_experiment () =
  check_ok "experiment" "experiment e01" [ "Table III.1"; "compress" ]

let test_experiments_parallel () =
  check_ok "experiments -j" "experiments e01 -j 2" [ "Table III.1"; "compress" ]

(* The exit-code contract: 0 success, 1 runtime failure (trap, injected
   fault, failed experiment), 2 usage error. *)
let test_fuel_trap () =
  let code, out = run_cli "run -w li --fuel 1000" in
  Alcotest.(check int) "runtime failures exit 1" 1 code;
  Alcotest.(check bool) "reports the trap" true
    (Astring_contains.contains out "fuel exhausted")

(* A negative effective address is the program's fault, not vprof's: a
   machine trap (exit 1), never an internal error (exit 125). *)
let test_negative_address_trap () =
  let path = Filename.temp_file "vprof_cli" ".s" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            ".entry main\n.proc main\n  ldi t0, #-5\n  ld t1, [t0+0]\n  halt\n.end\n");
      let code, out = run_cli ("profile -w " ^ Filename.quote path) in
      Alcotest.(check int) "runtime failures exit 1" 1 code;
      Alcotest.(check bool) "reports the trap" true
        (Astring_contains.contains out "vprof: machine trap: negative address at pc 1"))

let test_diff () = check_ok "diff" "diff -w cc -t 3" [ "correlation" ]

let test_emit_roundtrip () =
  let code, out = run_cli "emit -w perl" in
  Alcotest.(check int) "emit exit" 0 code;
  let path = Filename.temp_file "vprof_cli" ".vasm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc out;
      close_out oc;
      check_ok "run emitted file"
        (Printf.sprintf "run -w %s" (Filename.quote path))
        [ "dynamic instructions" ])

let test_unknown_workload_fails () =
  let code, out = run_cli "run -w doom" in
  Alcotest.(check int) "usage errors exit 2" 2 code;
  Alcotest.(check bool) "helpful message" true
    (Astring_contains.contains out "unknown workload")

let test_unknown_experiment_fails () =
  let code, _ = run_cli "experiment e99" in
  Alcotest.(check int) "usage errors exit 2" 2 code

let test_bad_flag_usage_error () =
  let code, _ = run_cli "run --no-such-flag" in
  Alcotest.(check int) "cmdliner usage errors exit 2" 2 code

let test_jobs_only_where_it_acts () =
  (* run executes one machine, so it offers no -j *)
  let code, _ = run_cli "run -w go -j 2" in
  Alcotest.(check int) "run -j is a usage error" 2 code

let test_malformed_fault_spec_usage_error () =
  let code, out = run_cli ~env:"VPROF_FAULT=broken" "list" in
  Alcotest.(check int) "bad VPROF_FAULT exits 2" 2 code;
  Alcotest.(check bool) "names the bad entry" true
    (Astring_contains.contains out "broken");
  (* a trailing byte count is not an action *)
  let code, out = run_cli ~env:"VPROF_FAULT=x@1@512" "list" in
  Alcotest.(check int) "SITE@AT@BYTES exits 2" 2 code;
  Alcotest.(check bool) "names that entry" true
    (Astring_contains.contains out "x@1@512")

let temp_dir () =
  let path = Filename.temp_file "vprof_cli_ck" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let test_checkpoint_resume_byte_identical () =
  (* the acceptance scenario end-to-end through the binary: a run killed
     by an injected fault, rerun against its checkpoint, must print
     exactly what a fault-free run prints *)
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let plain_code, plain = run_stdout "experiments e01" in
      Alcotest.(check int) "fault-free run" 0 plain_code;
      let crash_code, crash_out =
        run_cli ~env:"VPROF_FAULT=supervisor.job@1"
          (Printf.sprintf "experiments e01 --checkpoint %s --retries 0"
             (Filename.quote dir))
      in
      Alcotest.(check int) "injected crash exits 1" 1 crash_code;
      Alcotest.(check bool) "reports the injected fault" true
        (Astring_contains.contains crash_out "injected fault");
      let resume_code, resumed =
        run_stdout
          (Printf.sprintf "experiments e01 --checkpoint %s"
             (Filename.quote dir))
      in
      Alcotest.(check int) "resume succeeds" 0 resume_code;
      Alcotest.(check string) "resume byte-identical to fault-free run"
        plain resumed)

let test_checkpoint_completes_and_resume_skips () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let args =
        Printf.sprintf "experiments e01 --checkpoint %s" (Filename.quote dir)
      in
      let code, first = run_stdout args in
      Alcotest.(check int) "checkpointed run" 0 code;
      let code, second = run_stdout args in
      Alcotest.(check int) "rerun of a complete run" 0 code;
      Alcotest.(check string) "served from the store, same bytes" first
        second;
      let _, combined = run_cli args in
      Alcotest.(check bool) "nothing recomputed" true
        (Astring_contains.contains combined
           "1 of 1 experiments served from cache"))

(* Checkpointed work is keyed by its fingerprint, shard count included:
   a checkpoint filled by a sharded run must not be served to a serial
   one, whose tables differ. *)
let test_sharded_checkpoint_not_served_stale () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let code, plain = run_stdout "experiments e04" in
      Alcotest.(check int) "plain run" 0 code;
      let code, sharded =
        run_stdout
          (Printf.sprintf "experiments e04 --checkpoint %s --shards 2"
             (Filename.quote dir))
      in
      Alcotest.(check int) "sharded checkpointed run" 0 code;
      Alcotest.(check bool) "sharded tables differ from serial ones" false
        (String.equal plain sharded);
      let code, rerun =
        run_stdout
          (Printf.sprintf "experiments e04 --checkpoint %s"
             (Filename.quote dir))
      in
      Alcotest.(check int) "serial rerun" 0 code;
      Alcotest.(check string) "serial rerun prints the serial tables" plain
        rerun)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_files suffixes f =
  let files = List.map (fun s -> Filename.temp_file "vprof_cli" s) suffixes in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) files)
    (fun () -> f files)

(* ---- the profile store through the binary --------------------------

   run_cli merges stdout and stderr, so byte-identity of the rendered
   tables is asserted by redirecting stdout alone; the stderr accounting
   lines are checked by substring. *)

let test_store_warm_run_served_from_cache () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      with_temp_files [ ".cold.out"; ".warm.out"; ".metrics" ] @@ function
      | [ cold_out; warm_out; metrics ] ->
        let cold_code =
          Sys.command
            (Printf.sprintf "%s experiments e01 --store %s > %s 2>/dev/null"
               (Filename.quote vprof) (Filename.quote dir)
               (Filename.quote cold_out))
        in
        Alcotest.(check int) "cold run" 0 cold_code;
        let warm_code =
          Sys.command
            (Printf.sprintf
               "%s experiments e01 --store %s --metrics %s > %s 2>/dev/null"
               (Filename.quote vprof) (Filename.quote dir)
               (Filename.quote metrics) (Filename.quote warm_out))
        in
        Alcotest.(check int) "warm run" 0 warm_code;
        Alcotest.(check string) "stdout byte-identical" (read_file cold_out)
          (read_file warm_out);
        let m = read_file metrics in
        Alcotest.(check bool) "warm run is all store hits" true
          (Astring_contains.contains m
             "{\"name\":\"store.hits\",\"type\":\"counter\",\"value\":1}");
        Alcotest.(check bool) "warm run executes zero machines" true
          (Astring_contains.contains m
             "{\"name\":\"machine.runs\",\"type\":\"counter\",\"value\":0}");
        (* the hit accounting goes to stderr, not the table stream *)
        let _, combined =
          run_cli
            (Printf.sprintf "experiments e01 --store %s" (Filename.quote dir))
        in
        Alcotest.(check bool) "stderr reports the cache service" true
          (Astring_contains.contains combined
             "1 of 1 experiments served from cache")
      | _ -> assert false)

let test_store_profile_and_inspection_subcommands () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let code, out =
        run_cli (Printf.sprintf "profile -w li -t 3 --store %s" (Filename.quote dir))
      in
      Alcotest.(check int) "profile with store" 0 code;
      Alcotest.(check bool) "first run misses" true
        (Astring_contains.contains out "store: miss");
      let code, out =
        run_cli (Printf.sprintf "profile -w li -t 3 --store %s" (Filename.quote dir))
      in
      Alcotest.(check int) "repeat profile" 0 code;
      Alcotest.(check bool) "repeat run hits" true
        (Astring_contains.contains out "store: hit");
      let code, out =
        run_cli (Printf.sprintf "store ls --store %s" (Filename.quote dir))
      in
      Alcotest.(check int) "store ls" 0 code;
      Alcotest.(check bool) "lists the profile entry" true
        (Astring_contains.contains out "profile.li.test");
      let code, out =
        run_cli (Printf.sprintf "store stats --store %s" (Filename.quote dir))
      in
      Alcotest.(check int) "store stats" 0 code;
      Alcotest.(check bool) "reports the entry count" true
        (Astring_contains.contains out "entries");
      (* every profiling invocation bumped the generation, so a tight gc
         removes the (old-generation) entry *)
      let code, out =
        run_cli (Printf.sprintf "store gc --store %s --keep 1" (Filename.quote dir))
      in
      Alcotest.(check int) "store gc" 0 code;
      Alcotest.(check bool) "removed the stale entry" true
        (Astring_contains.contains out "removed 1 entry");
      let code, out =
        run_cli (Printf.sprintf "store ls --store %s" (Filename.quote dir))
      in
      Alcotest.(check int) "store ls after gc" 0 code;
      Alcotest.(check bool) "entry gone" true
        (not (Astring_contains.contains out "profile.li.test")))

let test_store_get_and_missing_key () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let code, _ =
        run_cli (Printf.sprintf "profile -w li -t 3 --store %s" (Filename.quote dir))
      in
      Alcotest.(check int) "seed the store" 0 code;
      let _, ls = run_cli (Printf.sprintf "store ls --store %s" (Filename.quote dir)) in
      let key =
        String.split_on_char '\n' ls
        |> List.find_map (fun line ->
               String.split_on_char ' ' line
               |> List.find_opt (fun tok ->
                      String.length tok > 11
                      && String.sub tok 0 11 = "profile.li."))
      in
      match key with
      | None -> Alcotest.fail "store ls should show the committed key"
      | Some key ->
        let code, out =
          run_cli
            (Printf.sprintf "store get --store %s -w li %s" (Filename.quote dir)
               (Filename.quote key))
        in
        Alcotest.(check int) "store get decodes" 0 code;
        Alcotest.(check bool) "prints the v2 text form" true
          (Astring_contains.contains out "vprof-profile 2");
        let code, out =
          run_cli (Printf.sprintf "store get --store %s no-such-key" (Filename.quote dir))
        in
        Alcotest.(check int) "missing key exits 1" 1 code;
        Alcotest.(check bool) "names the key" true
          (Astring_contains.contains out "no-such-key"))

(* [store merge] merges into an absent key and into an existing one; each
   time the entry, read back through [store get -w], is Profile.merge of
   the command's inputs. *)
let test_store_merge_matches_profile_merge () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      with_temp_files [ ".merged" ] @@ function
      | [ merged_out ] ->
        List.iter
          (fun sel ->
            let code, _ =
              run_cli
                (Printf.sprintf "profile -w li -t 3 -s %s --store %s" sel
                   (Filename.quote dir))
            in
            Alcotest.(check int) ("seed the " ^ sel ^ " profile") 0 code)
          [ "all"; "loads" ];
        let prog = (Workloads.find "li").Workload.wbuild Workload.Test in
        let s = Store.open_dir dir in
        let load key =
          match Store.get_profile s ~program:prog ~key with
          | Some p -> p
          | None -> Alcotest.failf "seeded entry %s does not decode" key
        in
        let k1, k2 =
          match Store.entries s with
          | [ a; b ] -> (a.Store.i_key, b.Store.i_key)
          | es -> Alcotest.failf "expected two entries, found %d" (List.length es)
        in
        let p1 = load k1 and p2 = load k2 in
        let merge_into_m keys ~expected =
          let code, out =
            run_cli
              (Printf.sprintf "store merge --store %s -w li --into m %s"
                 (Filename.quote dir)
                 (String.concat " " (List.map Filename.quote keys)))
          in
          Alcotest.(check int) "store merge" 0 code;
          Alcotest.(check bool) "reports the merge" true
            (Astring_contains.contains out
               (Printf.sprintf "merged %d profile" (List.length keys)));
          let code, _ =
            run_cli
              (Printf.sprintf "store get --store %s -w li m -o %s"
                 (Filename.quote dir) (Filename.quote merged_out))
          in
          Alcotest.(check int) "store get -w" 0 code;
          Alcotest.(check string) "entry equals Profile.merge of the inputs"
            (Profile_io.to_string expected) (read_file merged_out)
        in
        let first = Profile.merge [ p1; p2 ] in
        merge_into_m [ k1; k2 ] ~expected:first;
        merge_into_m [ k2 ] ~expected:(Profile.merge [ first; Profile.merge [ p2 ] ])
      | _ -> assert false)

(* ---- resource governance through the binary -----------------------

   The exit-code contract grows exit 3 (resource budget exceeded), and a
   budget trip must still write its telemetry dump on the way out. *)

let test_deadline_exits_3_with_full_dump () =
  with_temp_files [ ".trace.json"; ".metrics" ] @@ function
  | [ trace; metrics ] ->
    let code, out =
      run_cli
        (Printf.sprintf "profile -w go --deadline 0.001 --trace %s --metrics %s"
           (Filename.quote trace) (Filename.quote metrics))
    in
    Alcotest.(check int) "budget trips exit 3" 3 code;
    Alcotest.(check bool) "message names the deadline" true
      (Astring_contains.contains out "deadline exceeded");
    (* the dump is complete despite the early death *)
    Alcotest.(check bool) "trace records the trip" true
      (Astring_contains.contains (read_file trace) "budget.deadline");
    Alcotest.(check bool) "metrics record the trip" true
      (Astring_contains.contains (read_file metrics) "budget.deadline_trips")
  | _ -> assert false

let test_mem_pressure_exits_3_without_degrade () =
  let code, out = run_cli "profile -w li --max-heap 0" in
  Alcotest.(check int) "watermark trips exit 3" 3 code;
  Alcotest.(check bool) "message suggests --degrade" true
    (Astring_contains.contains out "--degrade")

let test_mem_pressure_degrades_and_completes () =
  with_temp_files [ ".metrics" ] @@ function
  | [ metrics ] ->
    let code, out =
      run_cli
        (Printf.sprintf
           "profile -w li -s loads -t 3 --max-heap 0 --degrade --metrics %s"
           (Filename.quote metrics))
    in
    Alcotest.(check int) "degraded run completes" 0 code;
    Alcotest.(check bool) "still prints the table" true
      (Astring_contains.contains out "Inv-Top");
    let m = read_file metrics in
    Alcotest.(check bool) "degradation steps counted" true
      (Astring_contains.contains m "degrade.steps");
    Alcotest.(check bool) "final ladder level exported" true
      (Astring_contains.contains m "degrade.level")
  | _ -> assert false

let test_experiments_deadline_fails_jobs_not_process () =
  (* under supervision a budget trip is a per-job failure: the suite
     reports it and exits 1, not 3 *)
  let code, out = run_cli "experiments e01 --deadline 0.0001 --retries 0" in
  Alcotest.(check int) "supervised budget trips exit 1" 1 code;
  Alcotest.(check bool) "failure names the deadline" true
    (Astring_contains.contains out "deadline exceeded");
  Alcotest.(check bool) "experiment recorded as failed" true
    (Astring_contains.contains out "FAILED")

let test_multi_site_fault_spec_malformed_entry () =
  (* a campaign spec dies on its malformed entry, naming it *)
  let code, out =
    run_cli ~env:"VPROF_FAULT=supervisor.job@1,machine.step@~2" "list"
  in
  Alcotest.(check int) "bad entry in a campaign exits 2" 2 code;
  Alcotest.(check bool) "names the offending entry" true
    (Astring_contains.contains out "machine.step@~2")

(* ---- store durability through the binary ---------------------------

   The crash-consistency contract end-to-end: verify exits 4 on damage,
   the next run recomputes the damaged entry byte-identically, scrub
   quarantines rather than deletes, and a kill -9 at any commit site
   never loses an acknowledged profile. *)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let payload_file dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".out")
  |> function
  | [ f ] -> Filename.concat dir f
  | fs -> Alcotest.failf "expected one payload file, found %d" (List.length fs)

let flip_byte path =
  let text = read_file path in
  let b = Bytes.of_string text in
  Bytes.set b (Bytes.length b / 2)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 0xFF));
  write_file path (Bytes.to_string b)

let test_store_verify_scrub_recompute_cycle () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let profile =
        Printf.sprintf "profile -w li -t 3 --store %s" (Filename.quote dir)
      in
      let verify () =
        run_cli (Printf.sprintf "store verify --store %s" (Filename.quote dir))
      in
      let code, first = run_stdout profile in
      Alcotest.(check int) "seed the store" 0 code;
      let payload = payload_file dir in
      let pristine = read_file payload in
      let code, out = verify () in
      Alcotest.(check int) "clean store verifies 0" 0 code;
      Alcotest.(check bool) "reports the copies" true
        (Astring_contains.contains out "copies ok");
      (* the rerun after damage recomputes the entry: same stdout, the
         same payload bytes, a clean store *)
      let rerun_restores what =
        let code, out = run_stdout profile in
        Alcotest.(check int) (what ^ ": rerun") 0 code;
        Alcotest.(check string) (what ^ ": same stdout") first out;
        Alcotest.(check string) (what ^ ": payload rewritten byte-identical")
          pristine (read_file payload);
        Alcotest.(check int) (what ^ ": verify clean again") 0 (fst (verify ()))
      in
      flip_byte payload;
      Alcotest.(check int) "damage exits 4" 4 (fst (verify ()));
      rerun_restores "after verify";
      (* scrub path: the corrupt payload is moved aside, never deleted *)
      flip_byte payload;
      let mangled = read_file payload in
      let code, _ =
        run_cli (Printf.sprintf "store scrub --store %s" (Filename.quote dir))
      in
      Alcotest.(check int) "scrub exits 0" 0 code;
      Alcotest.(check bool) "wreckage quarantined" true
        (Sys.file_exists (payload ^ ".corrupt"));
      Alcotest.(check string) "quarantined bytes preserved" mangled
        (read_file (payload ^ ".corrupt"));
      rerun_restores "after scrub")

let test_kill_mid_put_never_loses_acknowledged_profile () =
  (* the acceptance scenario: a profile acknowledged by exit 0 must
     survive a SIGKILL delivered inside any later commit, in each window
     of a put: before anything, before its payload rename, and between
     its payload and manifest renames *)
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let code, _ =
        run_cli
          (Printf.sprintf "profile -w li -t 3 --store %s" (Filename.quote dir))
      in
      Alcotest.(check int) "acknowledged seed" 0 code;
      let specs =
        [ "store.commit@1@kill";
          "store.payload.write@1@kill";
          "store.orphan@1@kill" ]
      in
      List.iteri
        (fun i spec ->
          (* fuel rides the fingerprint, so each spec's victim put is a
             fresh key — a victim committed by an earlier run must not
             let a later one hit the cache and skip the site under
             test *)
          let code, _ =
            run_cli ~env:("VPROF_FAULT=" ^ spec)
              (Printf.sprintf "profile -w go -t 3 --fuel %d --store %s"
                 (10_000_000 + i) (Filename.quote dir))
          in
          Alcotest.(check int) (spec ^ ": killed by SIGKILL") 137 code;
          let code, _ =
            run_cli
              (Printf.sprintf "store verify --store %s" (Filename.quote dir))
          in
          Alcotest.(check int) (spec ^ ": store verifies clean after crash")
            0 code;
          let code, out =
            run_cli
              (Printf.sprintf "profile -w li -t 3 --store %s"
                 (Filename.quote dir))
          in
          Alcotest.(check int) (spec ^ ": warm run succeeds") 0 code;
          Alcotest.(check bool)
            (spec ^ ": acknowledged profile still served") true
            (Astring_contains.contains out "store: hit"))
        specs)

(* Out-of-range sampler and TNV numbers are usage errors naming their
   flag, rejected before anything runs — never an internal error from
   deep in a run, nor a value silently misread. *)
let check_usage_error args flag =
  let code, out = run_cli args in
  Alcotest.(check int) (args ^ ": usage error") 2 code;
  Alcotest.(check bool) (args ^ ": names the flag") true
    (Astring_contains.contains out flag);
  Alcotest.(check bool) (args ^ ": not an internal error") false
    (Astring_contains.contains out "internal error")

let test_bad_burst () =
  check_usage_error "sample -w go --burst 0" "--burst";
  check_usage_error "sample -w go --burst=-3" "--burst"

let test_bad_skip () = check_usage_error "sample -w go --skip=-5" "--skip"

let test_bad_epsilon () =
  check_usage_error "sample -w go --epsilon=nan" "--epsilon";
  check_usage_error "sample -w go --epsilon=-1" "--epsilon"

let test_bad_tnv_size () =
  check_usage_error "profile -w go --tnv-size=0" "--tnv-size"

let test_bad_clear_interval () =
  check_usage_error "profile -w go --clear-interval=0" "--clear-interval"

(* A failed experiment is reported by one line, worded the same with and
   without a store. *)
let test_failure_line_same_with_store () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let failure_lines args =
        let code, out =
          run_cli ~env:"VPROF_FAULT=supervisor.job@1"
            ("experiments e01 --retries 0" ^ args)
        in
        Alcotest.(check int) ("exit 1" ^ args) 1 code;
        List.filter
          (fun l -> Astring_contains.contains l "FAILED")
          (String.split_on_char '\n' out)
      in
      let plain = failure_lines "" in
      Alcotest.(check (list string)) "one failure line"
        [ "experiment e01 FAILED after 1 attempt: injected fault at site \
           \"supervisor.job\"" ]
        plain;
      Alcotest.(check (list string)) "the same line with --store" plain
        (failure_lines (" --store " ^ Filename.quote dir)))

(* --csv adds files and their "wrote" lines, and nothing else: stdout is
   the plain run's followed by one line per table, and each file holds
   that table's CSV rendering. *)
let test_experiment_csv () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      Harness.clear_cache ())
    (fun () ->
      let code, plain = run_stdout "experiment e01" in
      Alcotest.(check int) "plain run" 0 code;
      let code, out =
        run_stdout (Printf.sprintf "experiment e01 --csv %s" (Filename.quote dir))
      in
      Alcotest.(check int) "--csv run" 0 code;
      let tables = (Experiments.find "e01").Experiments.run () in
      let paths =
        List.mapi
          (fun i _ -> Filename.concat dir (Printf.sprintf "e01_%d.csv" i))
          tables
      in
      Alcotest.(check string) "stdout: the plain run, then its wrote lines"
        (plain
        ^ String.concat "" (List.map (Printf.sprintf "wrote %s\n") paths))
        out;
      List.iter2
        (fun path t ->
          Alcotest.(check string) (path ^ " is the table's CSV")
            (Table.to_csv t) (read_file path))
        paths tables)

let suite =
  [ Alcotest.test_case "binary present" `Quick test_binary_present;
    Alcotest.test_case "list" `Slow test_list;
    Alcotest.test_case "run" `Slow test_run;
    Alcotest.test_case "profile" `Slow test_profile;
    Alcotest.test_case "memory" `Slow test_memory;
    Alcotest.test_case "procs" `Slow test_procs;
    Alcotest.test_case "specialize" `Slow test_specialize;
    Alcotest.test_case "memoize" `Slow test_memoize;
    Alcotest.test_case "experiment" `Slow test_experiment;
    Alcotest.test_case "experiments -j" `Slow test_experiments_parallel;
    Alcotest.test_case "fuel trap" `Quick test_fuel_trap;
    Alcotest.test_case "diff" `Slow test_diff;
    Alcotest.test_case "emit roundtrip" `Slow test_emit_roundtrip;
    Alcotest.test_case "unknown workload" `Quick test_unknown_workload_fails;
    Alcotest.test_case "unknown experiment" `Quick test_unknown_experiment_fails;
    Alcotest.test_case "bad flag" `Quick test_bad_flag_usage_error;
    Alcotest.test_case "malformed VPROF_FAULT" `Quick
      test_malformed_fault_spec_usage_error;
    Alcotest.test_case "malformed entry in a multi-site campaign" `Quick
      test_multi_site_fault_spec_malformed_entry;
    Alcotest.test_case "deadline exits 3 with a full dump" `Quick
      test_deadline_exits_3_with_full_dump;
    Alcotest.test_case "memory watermark exits 3 without --degrade" `Slow
      test_mem_pressure_exits_3_without_degrade;
    Alcotest.test_case "memory pressure degrades and completes" `Slow
      test_mem_pressure_degrades_and_completes;
    Alcotest.test_case "supervised deadline fails jobs, not the process"
      `Slow test_experiments_deadline_fails_jobs_not_process;
    Alcotest.test_case "checkpoint kill/resume byte-identical" `Slow
      test_checkpoint_resume_byte_identical;
    Alcotest.test_case "resume skips completed work" `Slow
      test_checkpoint_completes_and_resume_skips;
    Alcotest.test_case "sharded checkpoint not served stale" `Slow
      test_sharded_checkpoint_not_served_stale;
    Alcotest.test_case "store warm run served from cache" `Slow
      test_store_warm_run_served_from_cache;
    Alcotest.test_case "store profile and inspection subcommands" `Slow
      test_store_profile_and_inspection_subcommands;
    Alcotest.test_case "store get and missing key" `Slow
      test_store_get_and_missing_key;
    Alcotest.test_case "store merge matches Profile.merge" `Slow
      test_store_merge_matches_profile_merge;
    Alcotest.test_case "store verify/scrub recompute cycle" `Slow
      test_store_verify_scrub_recompute_cycle;
    Alcotest.test_case "kill -9 mid-put never loses an acknowledged profile"
      `Slow test_kill_mid_put_never_loses_acknowledged_profile;
    Alcotest.test_case "negative address trap" `Quick test_negative_address_trap;
    Alcotest.test_case "bad --burst" `Quick test_bad_burst;
    Alcotest.test_case "bad --skip" `Quick test_bad_skip;
    Alcotest.test_case "bad --epsilon" `Quick test_bad_epsilon;
    Alcotest.test_case "bad --tnv-size" `Quick test_bad_tnv_size;
    Alcotest.test_case "bad --clear-interval" `Quick test_bad_clear_interval;
    Alcotest.test_case "failure line same with --store" `Slow
      test_failure_line_same_with_store;
    Alcotest.test_case "run takes no -j" `Quick test_jobs_only_where_it_acts;
    Alcotest.test_case "experiment --csv" `Slow test_experiment_csv ]
