open Isa

let program () =
  let b = Asm.create () in
  let values = Array.init 64 (fun i -> Int64.of_int (i mod 5)) in
  let base = Asm.data b values in
  Asm.proc b "main" (fun b ->
      Asm.ldi b t0 0L;
      Asm.ldi b t1 base;
      Asm.label b "loop";
      Asm.cmplti b ~dst:t2 t0 64L;
      Asm.br b Eq t2 "done";
      Asm.add b ~dst:t3 t1 t0;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.addi b ~dst:t0 t0 1L;
      Asm.jmp b "loop";
      Asm.label b "done";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let metrics_equal (a : Metrics.t) (b : Metrics.t) =
  a.Metrics.total = b.Metrics.total
  && a.Metrics.lvp = b.Metrics.lvp
  && a.Metrics.inv_top = b.Metrics.inv_top
  && a.Metrics.inv_all = b.Metrics.inv_all
  && a.Metrics.zero = b.Metrics.zero
  && a.Metrics.distinct = b.Metrics.distinct
  && a.Metrics.distinct_saturated = b.Metrics.distinct_saturated
  && a.Metrics.top_values = b.Metrics.top_values
  && a.Metrics.stride_top = b.Metrics.stride_top
  && a.Metrics.top_stride = b.Metrics.top_stride

let test_roundtrip () =
  let prog = program () in
  let p = Profile.run prog in
  let p' = Profile_io.of_string ~program:prog (Profile_io.to_string p) in
  Alcotest.(check int) "instrumented" p.Profile.instrumented p'.Profile.instrumented;
  Alcotest.(check int) "events" p.Profile.profiled_events p'.Profile.profiled_events;
  Alcotest.(check int) "dynamic" p.Profile.dynamic_instructions
    p'.Profile.dynamic_instructions;
  Alcotest.(check int) "point count" (Array.length p.Profile.points)
    (Array.length p'.Profile.points);
  Array.iteri
    (fun i (a : Profile.point) ->
      let b = p'.Profile.points.(i) in
      Alcotest.(check int) "pc" a.p_pc b.Profile.p_pc;
      Alcotest.(check string) "proc" a.p_proc b.Profile.p_proc;
      Alcotest.(check string) "instr"
        (Isa.to_string a.p_instr) (Isa.to_string b.Profile.p_instr);
      Alcotest.(check bool) "metrics" true
        (metrics_equal a.p_metrics b.Profile.p_metrics))
    p.Profile.points

let test_file_roundtrip () =
  let prog = program () in
  let p = Profile.run ~selection:`Loads prog in
  let path = Filename.temp_file "vprof" ".profile" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile_io.write_file p path;
      let p' = Profile_io.read_file ~program:prog path in
      Alcotest.(check int) "points" (Array.length p.Profile.points)
        (Array.length p'.Profile.points))

(* A v2 file from its body: the body plus the [crc32] trailer over it, so
   the fixtures below pass the checksum and fail only on their defect. *)
let with_trailer body =
  body ^ Printf.sprintf "crc32 %s\n" (Crc32.to_hex (Crc32.string body))

(* The load must fail, and its message must name [defect]: a fixture that
   fails on its version or checksum instead does not count. *)
let expect_failure ~defect text =
  let prog = program () in
  match Profile_io.of_string ~program:prog text with
  | _ -> Alcotest.failf "%s: expected Failure" defect
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S names %S" msg defect)
      true
      (Astring_contains.contains msg defect)

let test_rejects_bad_version () =
  expect_failure ~defect:"unsupported version 99"
    (with_trailer "vprof-profile 99\nmeta instrumented=0 events=0 dynamic=0\n")

let test_rejects_missing_meta () =
  expect_failure ~defect:"missing meta" (with_trailer "vprof-profile 2\n")

let test_rejects_bad_pc () =
  expect_failure ~defect:"pc 999 outside the program"
    (with_trailer
       "vprof-profile 2\nmeta instrumented=1 events=1 dynamic=1\npoint pc=999 proc=- total=1 lvp=0 invtop=0 invall=0 zero=0 distinct=1 saturated=0 stridetop=0 stride=none\n")

let test_rejects_non_value_pc () =
  (* the final halt produces no value *)
  let prog = program () in
  let halt_pc = Array.length prog.Asm.code - 1 in
  expect_failure ~defect:"not a value-producing instruction"
    (with_trailer
       (Printf.sprintf
          "vprof-profile 2\nmeta instrumented=1 events=1 dynamic=1\npoint pc=%d proc=- total=1 lvp=0 invtop=0 invall=0 zero=0 distinct=1 saturated=0 stridetop=0 stride=none\n"
          halt_pc))

let test_rejects_orphan_tv () =
  expect_failure ~defect:"tv line before any point"
    (with_trailer
       "vprof-profile 2\nmeta instrumented=0 events=0 dynamic=0\ntv 1 2\n")

let test_rejects_garbage () =
  expect_failure ~defect:"unknown line tag \"wibble\""
    (with_trailer
       "vprof-profile 2\nmeta instrumented=0 events=0 dynamic=0\nwibble\n")

let test_roundtrip_real_workload () =
  (* not just the synthetic loop: a full built-in workload's profile must
     survive the trip, down to byte-identical re-serialization *)
  let w = Workloads.find "go" in
  let prog = w.Workload.wbuild Workload.Test in
  let p = Profile.run prog in
  let s = Profile_io.to_string p in
  let p' = Profile_io.of_string ~program:prog s in
  Alcotest.(check int) "points" (Array.length p.Profile.points)
    (Array.length p'.Profile.points);
  Alcotest.(check string) "re-serialization is byte-identical" s
    (Profile_io.to_string p')

let test_bad_pc_failure_cites_line () =
  let prog = program () in
  match
    Profile_io.of_string ~program:prog
      (with_trailer
         "vprof-profile 2\nmeta instrumented=1 events=1 dynamic=1\npoint pc=999 proc=- total=1 lvp=0 invtop=0 invall=0 zero=0 distinct=1 saturated=0 stridetop=0 stride=none\n")
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    Alcotest.(check bool) "cites line 3" true
      (Astring_contains.contains msg "line 3");
    Alcotest.(check bool) "names the bad pc" true
      (Astring_contains.contains msg "pc 999")

(* --- the v2 checksummed format --- *)

let find_sub s sub =
  let sl = String.length sub in
  let rec go i =
    if i + sl > String.length s then -1
    else if String.sub s i sl = sub then i
    else go (i + 1)
  in
  go 0

(* A v2 text without its crc trailer line. *)
let body_of_v2 s =
  let body_end = String.rindex_from s (String.length s - 2) '\n' + 1 in
  String.sub s 0 body_end

(* Rewrite the first [" key=<token>"] occurrence, length-changing allowed. *)
let mutate_field text key value =
  let needle = " " ^ key ^ "=" in
  let i = find_sub text needle in
  Alcotest.(check bool) (Printf.sprintf "text has field %s" key) true (i >= 0);
  let start = i + String.length needle in
  let stop = ref start in
  while
    !stop < String.length text && text.[!stop] <> ' ' && text.[!stop] <> '\n'
  do
    incr stop
  done;
  String.sub text 0 start ^ value
  ^ String.sub text !stop (String.length text - !stop)

let test_v2_header_and_trailer () =
  let p = Profile.run (program ()) in
  let s = Profile_io.to_string p in
  Alcotest.(check string) "v2 header" "vprof-profile 2\n" (String.sub s 0 16);
  let tail_start = String.rindex_from s (String.length s - 2) '\n' + 1 in
  let tail = String.sub s tail_start (String.length s - tail_start) in
  Alcotest.(check int) "trailer is crc32 + 8 hex digits" 15 (String.length tail);
  Alcotest.(check string) "trailer tag" "crc32 " (String.sub tail 0 6)

let test_corruption_detected () =
  let prog = program () in
  let s = Profile_io.to_string (Profile.run prog) in
  (* flip one digit without changing the length: only the checksum can
     notice *)
  let i = find_sub s "total=" + 6 in
  let b = Bytes.of_string s in
  Bytes.set b i (if Bytes.get b i = '9' then '8' else '9');
  match Profile_io.of_string ~program:prog (Bytes.to_string b) with
  | _ -> Alcotest.fail "expected checksum failure"
  | exception Failure msg ->
    Alcotest.(check bool) "names the checksum" true
      (Astring_contains.contains msg "crc32 mismatch")

let test_truncation_detected_and_salvageable () =
  let prog = program () in
  let p = Profile.run prog in
  let s = Profile_io.to_string p in
  let cut = String.sub s 0 (String.length s * 2 / 3) in
  (match Profile_io.of_string ~program:prog cut with
   | _ -> Alcotest.fail "expected checksum failure"
   | exception Failure msg ->
     Alcotest.(check bool) "blames the checksum or truncation" true
       (Astring_contains.contains msg "crc32"
        || Astring_contains.contains msg "truncated"));
  let r = Profile_io.of_string ~salvage:true ~program:prog cut in
  Alcotest.(check bool) "salvage keeps a strict prefix" true
    (Array.length r.Profile.points < Array.length p.Profile.points);
  Array.iteri
    (fun i (pt : Profile.point) ->
      Alcotest.(check int) "salvaged pc matches the original"
        p.Profile.points.(i).Profile.p_pc pt.Profile.p_pc)
    r.Profile.points

let prop_salvage_any_truncation =
  let prog = program () in
  let p = Profile.run prog in
  let s = Profile_io.to_string p in
  let full = String.length s in
  (* cuts from just after the meta line to one byte short of the trailer's
     newline: strict parsing must always fail (the checksum line is
     damaged or gone), salvage must always recover a pc-prefix *)
  let first_point = find_sub s "\npoint " + 1 in
  QCheck.Test.make ~name:"any truncation: strict fails, salvage recovers"
    ~count:200
    (QCheck.make QCheck.Gen.(int_range first_point (full - 2)))
    (fun cut_at ->
      let cut = String.sub s 0 cut_at in
      let strict_fails =
        match Profile_io.of_string ~program:prog cut with
        | _ -> false
        | exception Failure _ -> true
      in
      let r = Profile_io.of_string ~salvage:true ~program:prog cut in
      let prefix_ok = ref (Array.length r.Profile.points <= Array.length p.Profile.points) in
      Array.iteri
        (fun i (pt : Profile.point) ->
          if p.Profile.points.(i).Profile.p_pc <> pt.Profile.p_pc then
            prefix_ok := false)
        r.Profile.points;
      strict_fails && !prefix_ok)

let test_v1_rejected () =
  (* what a pre-v2 writer produced: the same body claiming version 1,
     with no trailer *)
  let body = body_of_v2 (Profile_io.to_string (Profile.run (program ()))) in
  let header_end = String.index body '\n' in
  expect_failure ~defect:"unsupported version 1"
    ("vprof-profile 1"
    ^ String.sub body header_end (String.length body - header_end))

let test_rejects_negative_total () =
  let prog = program () in
  let body = body_of_v2 (Profile_io.to_string (Profile.run prog)) in
  match
    Profile_io.of_string ~program:prog
      (with_trailer (mutate_field body "total" "-5"))
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    Alcotest.(check bool) "names the field" true
      (Astring_contains.contains msg "total is negative");
    Alcotest.(check bool) "cites line 3" true
      (Astring_contains.contains msg "line 3")

let test_rejects_negative_meta_count () =
  let prog = program () in
  let body = body_of_v2 (Profile_io.to_string (Profile.run prog)) in
  match
    Profile_io.of_string ~program:prog
      (with_trailer (mutate_field body "dynamic" "-1"))
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    Alcotest.(check bool) "names the field" true
      (Astring_contains.contains msg "dynamic is negative");
    Alcotest.(check bool) "cites line 2" true
      (Astring_contains.contains msg "line 2")

let test_rejects_nan_metric () =
  let prog = program () in
  let body = body_of_v2 (Profile_io.to_string (Profile.run prog)) in
  match
    Profile_io.of_string ~program:prog
      (with_trailer (mutate_field body "lvp" "nan"))
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    Alcotest.(check bool) "names the NaN" true
      (Astring_contains.contains msg "lvp is NaN");
    Alcotest.(check bool) "cites line 3" true
      (Astring_contains.contains msg "line 3")

let test_rejects_negative_tv_count () =
  let prog = program () in
  let body = body_of_v2 (Profile_io.to_string (Profile.run prog)) in
  let lineno = ref 0 in
  let mutated =
    String.split_on_char '\n' body
    |> List.mapi (fun i l ->
           if !lineno = 0 && String.length l > 3 && String.sub l 0 3 = "tv "
           then begin
             lineno := i + 1;
             match String.split_on_char ' ' l with
             | [ "tv"; v; _ ] -> Printf.sprintf "tv %s -3" v
             | _ -> l
           end
           else l)
    |> String.concat "\n" |> with_trailer
  in
  Alcotest.(check bool) "profile has a tv line" true (!lineno > 0);
  match Profile_io.of_string ~program:prog mutated with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    Alcotest.(check bool) "names the tv count" true
      (Astring_contains.contains msg "tv count is negative");
    Alcotest.(check bool) "cites the line" true
      (Astring_contains.contains msg (Printf.sprintf "line %d" !lineno))

let test_missing_trailer_named () =
  (* a v2 body cut exactly before its trailer: every line parses, so only
     the missing checksum line can reject it *)
  let body = body_of_v2 (Profile_io.to_string (Profile.run (program ()))) in
  expect_failure ~defect:"no trailing crc32 line" body

let test_injected_torn_write_salvageable () =
  let prog = program () in
  let p = Profile.run prog in
  (* write_file defaults to binary v3; the truncation offset must land
     inside what is actually written *)
  let full = String.length (Profile_io.to_binary p) in
  let path = Filename.temp_file "vprof" ".profile" in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Fault.arm
        ~action:(Fault.Truncate (full * 2 / 3))
        ~site:"profile_io.write" ~at:1 ();
      (match Profile_io.write_file p path with
       | () -> Alcotest.fail "expected the injected crash"
       | exception Fault.Injected _ -> ());
      Fault.disarm ();
      (* the torn file fails its checksum on a strict load... *)
      (match Profile_io.read_file ~program:prog path with
       | _ -> Alcotest.fail "expected checksum failure"
       | exception Failure _ -> ());
      (* ...and salvage recovers the surviving prefix *)
      let r = Profile_io.read_file ~salvage:true ~program:prog path in
      Alcotest.(check bool) "recovered a prefix" true
        (Array.length r.Profile.points <= Array.length p.Profile.points))

let test_write_leaves_no_temp_files () =
  let p = Profile.run (program ()) in
  let dir = Filename.temp_file "vprof_dir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Profile_io.write_file p (Filename.concat dir "p.profile");
      Alcotest.(check (list string)) "only the committed file"
        [ "p.profile" ]
        (Sys.readdir dir |> Array.to_list))

let test_loaded_profile_drives_predictor_filtering () =
  (* the round-tripped profile is as usable as the fresh one *)
  let prog = program () in
  let p = Profile.run prog in
  let p' = Profile_io.of_string ~program:prog (Profile_io.to_string p) in
  let fresh = Predictor.filtered ~profile:p ~threshold:0.5 (Predictor.lvp ()) in
  let loaded = Predictor.filtered ~profile:p' ~threshold:0.5 (Predictor.lvp ()) in
  Alcotest.(check string) "same construction" (Predictor.name fresh)
    (Predictor.name loaded)

(* --- the v3 binary format --- *)

let test_v3_magic_and_sniff () =
  let prog = program () in
  let p = Profile.run prog in
  let b = Profile_io.to_binary p in
  Alcotest.(check string) "magic" "\x89VP3" (String.sub b 0 4);
  (* of_string dispatches on the first byte: both formats load through
     the same entry point *)
  let from_bin = Profile_io.of_string ~program:prog b in
  let from_text = Profile_io.of_string ~program:prog (Profile_io.to_string p) in
  Alcotest.(check string) "same profile either way"
    (Profile_io.to_string from_bin) (Profile_io.to_string from_text)

let test_v3_roundtrip_exact () =
  let prog = program () in
  let p = Profile.run prog in
  let p' = Profile_io.of_string ~program:prog (Profile_io.to_binary p) in
  Alcotest.(check string) "text rendering identical" (Profile_io.to_string p)
    (Profile_io.to_string p');
  Alcotest.(check string) "binary re-encoding identical"
    (Profile_io.to_binary p) (Profile_io.to_binary p')

let test_v3_smaller_than_v2 () =
  List.iter
    (fun name ->
      let w = Workloads.find name in
      let prog = w.Workload.wbuild Workload.Test in
      let p = Profile.run prog in
      let v2 = String.length (Profile_io.to_string p) in
      let v3 = String.length (Profile_io.to_binary p) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: v3 (%d) < v2 (%d)" name v3 v2)
        true (v3 < v2))
    [ "go"; "compress"; "li" ]

(* A random-but-valid profile over the synthetic program: any subset of
   its value-producing pcs, arbitrary metric values. Exercises encodings
   the profiler itself never produces (negative strides, saturated
   distinct counts, empty TNV tables, extreme totals). *)
let random_profile =
  let prog = program () in
  let eligible =
    List.filter
      (fun pc -> Isa.dest_reg prog.Asm.code.(pc) <> None)
      (List.init (Array.length prog.Asm.code) Fun.id)
  in
  let open QCheck.Gen in
  let metrics =
    let* total = int_bound 1_000_000 in
    let* lvp = float_bound_inclusive 1. in
    let* inv_top = float_bound_inclusive 1. in
    let* inv_all = float_bound_inclusive 1. in
    let* zero = float_bound_inclusive 1. in
    let* distinct = int_bound 4096 in
    let* distinct_saturated = bool in
    let* stride_top = float_bound_inclusive 1. in
    let* top_stride = opt (map Int64.of_int (int_range (-1000000) 1000000)) in
    let* top_values =
      list_size (int_bound 8)
        (pair (map Int64.of_int int) (int_bound 1_000_000))
    in
    return
      { Metrics.total; lvp; inv_top; inv_all; zero; distinct;
        distinct_saturated; top_values = Array.of_list top_values;
        stride_top; top_stride }
  in
  let profile =
    let* mask = list_repeat (List.length eligible) bool in
    let pcs =
      List.filteri (fun i _ -> List.nth mask i) eligible
    in
    let* points =
      flatten_l
        (List.map
           (fun pc ->
             let* m = metrics in
             return
               { Profile.p_pc = pc;
                 p_instr = prog.Asm.code.(pc);
                 p_proc = (if pc mod 2 = 0 then "main" else "");
                 p_metrics = m })
           pcs)
    in
    let* instrumented = int_bound 1000 in
    let* profiled_events = int_bound 1_000_000 in
    let* dynamic_instructions = int_bound 10_000_000 in
    return
      { Profile.points = Array.of_list points; instrumented; profiled_events;
        dynamic_instructions; stats = Counters.create () }
  in
  (prog, profile)

let prop_v3_equals_v2_on_random_profiles =
  let prog, gen = random_profile in
  QCheck.Test.make ~name:"v3 and v2 agree on random profiles" ~count:100
    (QCheck.make gen) (fun p ->
      let via_v3 = Profile_io.of_string ~program:prog (Profile_io.to_binary p) in
      let via_v2 = Profile_io.of_string ~program:prog (Profile_io.to_string p) in
      Profile_io.to_string via_v3 = Profile_io.to_string via_v2
      && Profile_io.to_string via_v3 = Profile_io.to_string p)

let prop_v3_salvage_any_truncation =
  let prog = program () in
  let p = Profile.run prog in
  let b = Profile_io.to_binary p in
  let full = String.length b in
  QCheck.Test.make
    ~name:"v3 truncation: strict fails, salvage recovers a prefix or fails clean"
    ~count:300
    (QCheck.make QCheck.Gen.(int_bound (full - 1)))
    (fun cut_at ->
      let cut = String.sub b 0 cut_at in
      let strict_fails =
        match Profile_io.of_string ~program:prog cut with
        | _ -> false
        | exception Failure _ -> true
      in
      let salvage_ok =
        match Profile_io.of_string ~salvage:true ~program:prog cut with
        | r ->
          (* whatever survives must be a pc-prefix of the original *)
          Array.length r.Profile.points <= Array.length p.Profile.points
          && Array.for_all
               (fun i ->
                 r.Profile.points.(i).Profile.p_pc
                 = p.Profile.points.(i).Profile.p_pc)
               (Array.init (Array.length r.Profile.points) Fun.id)
        | exception Failure _ ->
          (* acceptable only while the meta section itself is torn *)
          true
      in
      strict_fails && salvage_ok)

let test_v3_telemetry_counters () =
  let prog = program () in
  let p = Profile.run prog in
  let value name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let r0 = value "profile_io.reads" in
  let w0 = value "profile_io.writes" in
  let path = Filename.temp_file "vprof" ".profile" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile_io.write_file p path;
      ignore (Profile_io.read_file ~program:prog path);
      Alcotest.(check int) "one write" (w0 + 1) (value "profile_io.writes");
      Alcotest.(check int) "one read" (r0 + 1) (value "profile_io.reads"))

let suite =
  [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "rejects bad version" `Quick test_rejects_bad_version;
    Alcotest.test_case "rejects missing meta" `Quick test_rejects_missing_meta;
    Alcotest.test_case "rejects bad pc" `Quick test_rejects_bad_pc;
    Alcotest.test_case "rejects non-value pc" `Quick test_rejects_non_value_pc;
    Alcotest.test_case "rejects orphan tv" `Quick test_rejects_orphan_tv;
    Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
    Alcotest.test_case "roundtrip on a real workload" `Quick
      test_roundtrip_real_workload;
    Alcotest.test_case "bad pc failure cites its line" `Quick
      test_bad_pc_failure_cites_line;
    Alcotest.test_case "v2 header and crc trailer" `Quick
      test_v2_header_and_trailer;
    Alcotest.test_case "corruption detected by checksum" `Quick
      test_corruption_detected;
    Alcotest.test_case "truncation detected, salvageable" `Quick
      test_truncation_detected_and_salvageable;
    QCheck_alcotest.to_alcotest prop_salvage_any_truncation;
    Alcotest.test_case "v1 files rejected" `Quick test_v1_rejected;
    Alcotest.test_case "rejects negative total" `Quick
      test_rejects_negative_total;
    Alcotest.test_case "rejects negative meta count" `Quick
      test_rejects_negative_meta_count;
    Alcotest.test_case "rejects NaN metric" `Quick test_rejects_nan_metric;
    Alcotest.test_case "rejects negative tv count" `Quick
      test_rejects_negative_tv_count;
    Alcotest.test_case "v2 body without crc32 trailer rejected" `Quick
      test_missing_trailer_named;
    Alcotest.test_case "injected torn write is salvageable" `Quick
      test_injected_torn_write_salvageable;
    Alcotest.test_case "atomic write leaves no temp files" `Quick
      test_write_leaves_no_temp_files;
    Alcotest.test_case "loaded profile usable" `Quick
      test_loaded_profile_drives_predictor_filtering;
    Alcotest.test_case "v3 magic and format sniff" `Quick
      test_v3_magic_and_sniff;
    Alcotest.test_case "v3 roundtrip exact" `Quick test_v3_roundtrip_exact;
    Alcotest.test_case "v3 smaller than v2" `Quick test_v3_smaller_than_v2;
    QCheck_alcotest.to_alcotest prop_v3_equals_v2_on_random_profiles;
    QCheck_alcotest.to_alcotest prop_v3_salvage_any_truncation;
    Alcotest.test_case "v3 telemetry counters" `Quick
      test_v3_telemetry_counters ]
