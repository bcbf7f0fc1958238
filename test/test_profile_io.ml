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
  let p' = Profile_io.of_string ~program:prog (Profile_io.to_binary p) in
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

(* --- v3 files with one defect each ---------------------------------- *)

let encode f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

(* The sections of a v3 file in order, the end section included: tag,
   the section's byte offset, payload. An independent walk over the
   framing, so a case can name the offset its rejection must cite. *)
let sections bytes =
  let r = Codec.reader ~pos:4 bytes in
  ignore (Codec.read_uvarint r);
  let rec go acc =
    if Codec.at_end r then List.rev acc
    else
      let off = Codec.pos r in
      let tag, payload = Codec.read_section r in
      go ((tag, off, payload) :: acc)
  in
  go []

let offset_of tag bytes =
  let _, off, _ = List.find (fun (t, _, _) -> t = tag) (sections bytes) in
  off

(* Frames [secs] as a v3 file under [version], closed (unless
   [~trailer:false]) by an end section whose whole-file CRC is right: a
   hand-framed file fails only on the defect it was built with. *)
let frame ?(version = 3) ?(trailer = true) secs =
  let b = Buffer.create 256 in
  Buffer.add_string b "\x89VP3";
  Codec.put_uvarint b version;
  List.iter (fun (tag, payload) -> Codec.put_section b ~tag payload) secs;
  if trailer then begin
    let crc = encode (fun t -> Codec.put_u32 t (Crc32.string (Buffer.contents b))) in
    Codec.put_section b ~tag:'E' crc
  end;
  Buffer.contents b

(* The sections of [bytes] before its end section, as [frame] takes them. *)
let body_sections bytes =
  List.filter_map
    (fun (tag, _, payload) -> if tag = 'E' then None else Some (tag, payload))
    (sections bytes)

(* The synthetic program's profile cut down to its first point, edited by
   [f]. [to_binary] frames whatever it is given, so every checksum of the
   result holds and only the edit can fail. *)
let one_point ?(meta = Fun.id) f =
  let p = meta (Profile.run (program ())) in
  { p with Profile.points = [| f p.Profile.points.(0) |] }

let with_metrics f (pt : Profile.point) =
  { pt with Profile.p_metrics = f pt.Profile.p_metrics }

(* A count no profile reaches, so its uvarint occurs once in a payload. *)
let sentinel = 0x0ABCDEF

(* Nine uvarint bytes for 2^62: past [max_int], this reads back as a
   negative OCaml int unless the decoder refuses it. *)
let negative_uvarint = String.make 8 '\x80' ^ "\x40"

let find_sub s sub =
  let sl = String.length sub in
  let rec go i =
    if i + sl > String.length s then -1
    else if String.sub s i sl = sub then i
    else go (i + 1)
  in
  go 0

(* [bytes] re-framed with the [tag] section's [sentinel] count replaced by
   [negative_uvarint]. *)
let negative_count ~tag bytes =
  let needle = encode (fun b -> Codec.put_uvarint b sentinel) in
  let edited = ref false in
  let secs =
    List.map
      (fun (t, payload) ->
        let i = find_sub payload needle in
        if t <> tag || !edited || i < 0 then (t, payload)
        else begin
          edited := true;
          let rest = i + String.length needle in
          ( t,
            String.sub payload 0 i ^ negative_uvarint
            ^ String.sub payload rest (String.length payload - rest) )
        end)
      (body_sections bytes)
  in
  Alcotest.(check bool) "the sentinel was found" true !edited;
  frame secs

(* The load must fail, and its message must name [defect] at byte [at]: a
   file that fails on its framing or checksum instead does not count. *)
let expect_failure ?at ~defect text =
  let prog = program () in
  let want =
    match at with
    | None -> defect
    | Some off -> Printf.sprintf "byte %d: %s" off defect
  in
  match Profile_io.of_string ~program:prog text with
  | _ -> Alcotest.failf "%s: expected Failure" defect
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S names %S" msg want)
      true
      (Astring_contains.contains msg want)

let test_rejects_bad_version () =
  let good = Profile_io.to_binary (Profile.run (program ())) in
  expect_failure ~at:4 ~defect:"unsupported binary version 99"
    (frame ~version:99 (body_sections good))

let test_rejects_missing_meta () =
  expect_failure ~defect:"missing meta section" (frame [])

let test_rejects_bad_pc () =
  let b =
    Profile_io.to_binary (one_point (fun pt -> { pt with Profile.p_pc = 999 }))
  in
  expect_failure ~at:(offset_of 'P' b) ~defect:"pc 999 outside the program" b

let test_rejects_non_value_pc () =
  (* the final halt produces no value *)
  let halt_pc = Array.length (program ()).Asm.code - 1 in
  let b =
    Profile_io.to_binary
      (one_point (fun pt -> { pt with Profile.p_pc = halt_pc }))
  in
  expect_failure ~at:(offset_of 'P' b)
    ~defect:
      (Printf.sprintf "pc %d is not a value-producing instruction" halt_pc)
    b

let test_rejects_garbage () =
  (* a checksum-valid section of a kind v3 does not have *)
  let good = Profile_io.to_binary (Profile.run (program ())) in
  let secs =
    List.concat_map
      (fun ((tag, _) as s) -> if tag = 'S' then [ s; ('Z', "wibble") ] else [ s ])
      (body_sections good)
  in
  let b = frame secs in
  expect_failure ~at:(offset_of 'Z' b) ~defect:"unknown section tag 'Z'" b

let test_rejects_negative_total () =
  let b =
    negative_count ~tag:'P'
      (Profile_io.to_binary
         (one_point
            (with_metrics (fun m -> { m with Metrics.total = sentinel }))))
  in
  expect_failure ~at:(offset_of 'P' b) ~defect:"varint overflows int" b

let test_rejects_negative_meta_count () =
  let b =
    negative_count ~tag:'M'
      (Profile_io.to_binary
         (one_point
            ~meta:(fun p -> { p with Profile.dynamic_instructions = sentinel })
            Fun.id))
  in
  expect_failure ~at:(offset_of 'M' b) ~defect:"varint overflows int" b

let test_rejects_nan_metric () =
  let b =
    Profile_io.to_binary
      (one_point (with_metrics (fun m -> { m with Metrics.lvp = Float.nan })))
  in
  expect_failure ~at:(offset_of 'P' b) ~defect:"field lvp is NaN" b

let test_rejects_negative_tv_count () =
  let b =
    negative_count ~tag:'P'
      (Profile_io.to_binary
         (one_point
            (with_metrics (fun m ->
                 { m with Metrics.top_values = [| (7L, sentinel) |] }))))
  in
  expect_failure ~at:(offset_of 'P' b) ~defect:"varint overflows int" b

let test_rejects_bytes_after_end () =
  let good = Profile_io.to_binary (Profile.run (program ())) in
  expect_failure ~at:(String.length good) ~defect:"bytes after the end section"
    (good ^ "\000")

let test_rejects_missing_end () =
  let good = Profile_io.to_binary (Profile.run (program ())) in
  let b = frame ~trailer:false (body_sections good) in
  expect_failure ~at:(String.length b) ~defect:"missing end section" b

let test_corruption_detected () =
  let good = Profile_io.to_binary (Profile.run (program ())) in
  (* flip the first byte of the first point's payload: its length and
     framing still hold, so only the section's checksum can notice *)
  let off = offset_of 'P' good in
  let _, _, payload = List.find (fun (t, _, _) -> t = 'P') (sections good) in
  let at =
    off + 1
    + String.length
        (encode (fun b -> Codec.put_uvarint b (String.length payload)))
  in
  let b = Bytes.of_string good in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xff));
  expect_failure ~at ~defect:"section 'P' checksum mismatch" (Bytes.to_string b)

(* --- text is rendered, never read ------------------------------------ *)

(* A v2 text without its crc trailer line. *)
let body_of_v2 s =
  let body_end = String.rindex_from s (String.length s - 2) '\n' + 1 in
  String.sub s 0 body_end

let test_v2_header_and_trailer () =
  let p = Profile.run (program ()) in
  let s = Profile_io.to_string p in
  Alcotest.(check string) "v2 header" "vprof-profile 2\n" (String.sub s 0 16);
  let tail_start = String.rindex_from s (String.length s - 2) '\n' + 1 in
  let tail = String.sub s tail_start (String.length s - tail_start) in
  Alcotest.(check int) "trailer is crc32 + 8 hex digits" 15 (String.length tail);
  Alcotest.(check string) "trailer tag" "crc32 " (String.sub tail 0 6)

let test_v1_rejected () =
  (* what a pre-v2 writer produced: the same body claiming version 1,
     with no trailer *)
  let body = body_of_v2 (Profile_io.to_string (Profile.run (program ()))) in
  let header_end = String.index body '\n' in
  expect_failure ~at:0 ~defect:"not a v3 profile"
    ("vprof-profile 1"
    ^ String.sub body header_end (String.length body - header_end))

let test_missing_trailer_named () =
  let body = body_of_v2 (Profile_io.to_string (Profile.run (program ()))) in
  expect_failure ~at:0 ~defect:"not a v3 profile" body

let test_roundtrip_real_workload () =
  (* not just the synthetic loop: a full built-in workload's profile must
     survive the trip, down to byte-identical re-serialization *)
  let w = Workloads.find "go" in
  let prog = w.Workload.wbuild Workload.Test in
  let p = Profile.run prog in
  let b = Profile_io.to_binary p in
  let p' = Profile_io.of_string ~program:prog b in
  Alcotest.(check int) "points" (Array.length p.Profile.points)
    (Array.length p'.Profile.points);
  Alcotest.(check string) "re-serialization is byte-identical" b
    (Profile_io.to_binary p');
  Alcotest.(check string) "same text rendering" (Profile_io.to_string p)
    (Profile_io.to_string p')

(* --- truncation: every cut fails ------------------------------------- *)

let fails_to_load ~program bytes =
  match Profile_io.of_string ~program bytes with
  | _ -> false
  | exception Failure _ -> true

let test_truncation_detected () =
  let prog = program () in
  let b = Profile_io.to_binary (Profile.run prog) in
  let cut = String.sub b 0 (String.length b * 2 / 3) in
  match Profile_io.of_string ~program:prog cut with
  | _ -> Alcotest.fail "expected a truncation failure"
  | exception Failure msg ->
    Alcotest.(check bool) (Printf.sprintf "%S blames the truncation" msg) true
      (Astring_contains.contains msg "truncated"
       || Astring_contains.contains msg "end of input")

let prop_any_truncation_of_go_fails =
  let prog = (Workloads.find "go").Workload.wbuild Workload.Test in
  let b = Profile_io.to_binary (Profile.run prog) in
  QCheck.Test.make ~name:"go profile: any cut fails" ~count:200
    (QCheck.make QCheck.Gen.(int_bound (String.length b - 1)))
    (fun cut_at -> fails_to_load ~program:prog (String.sub b 0 cut_at))

let test_every_cut_fails () =
  let prog = program () in
  let b = Profile_io.to_binary (Profile.run prog) in
  for cut_at = 0 to String.length b - 1 do
    if not (fails_to_load ~program:prog (String.sub b 0 cut_at)) then
      Alcotest.failf "a cut at byte %d of %d loaded" cut_at (String.length b)
  done

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
  let p' = Profile_io.of_string ~program:prog (Profile_io.to_binary p) in
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
  Alcotest.(check bool) "v3 loads" true
    (Profile_io.to_string (Profile_io.of_string ~program:prog b)
     = Profile_io.to_string p);
  (* the text rendering is for reading: of_string turns it away at once *)
  expect_failure ~at:0 ~defect:"not a v3 profile" (Profile_io.to_string p)

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

(* The v3 round trip, compared through the v2 text rendering. *)
let prop_v3_equals_v2_on_random_profiles =
  let prog, gen = random_profile in
  QCheck.Test.make ~name:"v3 and v2 agree on random profiles" ~count:100
    (QCheck.make gen) (fun p ->
      let b = Profile_io.to_binary p in
      let p' = Profile_io.of_string ~program:prog b in
      Profile_io.to_string p' = Profile_io.to_string p
      && Profile_io.to_binary p' = b)

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
    Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
    Alcotest.test_case "roundtrip on a real workload" `Quick
      test_roundtrip_real_workload;
    Alcotest.test_case "v2 header and crc trailer" `Quick
      test_v2_header_and_trailer;
    Alcotest.test_case "corruption detected by checksum" `Quick
      test_corruption_detected;
    Alcotest.test_case "truncated file rejected" `Quick
      test_truncation_detected;
    QCheck_alcotest.to_alcotest prop_any_truncation_of_go_fails;
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
    Alcotest.test_case "rejects bytes after the end section" `Quick
      test_rejects_bytes_after_end;
    Alcotest.test_case "rejects a missing end section" `Quick
      test_rejects_missing_end;
    Alcotest.test_case "atomic write leaves no temp files" `Quick
      test_write_leaves_no_temp_files;
    Alcotest.test_case "loaded profile usable" `Quick
      test_loaded_profile_drives_predictor_filtering;
    Alcotest.test_case "v3 magic and format sniff" `Quick
      test_v3_magic_and_sniff;
    Alcotest.test_case "v3 roundtrip exact" `Quick test_v3_roundtrip_exact;
    Alcotest.test_case "v3 smaller than v2" `Quick test_v3_smaller_than_v2;
    QCheck_alcotest.to_alcotest prop_v3_equals_v2_on_random_profiles;
    Alcotest.test_case "v3 truncation: every cut fails" `Quick
      test_every_cut_fails;
    Alcotest.test_case "v3 telemetry counters" `Quick
      test_v3_telemetry_counters ]
