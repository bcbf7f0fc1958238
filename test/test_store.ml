(* The profile store: fingerprint keys, both backends' get/put/reload
   behavior, checksum distrust, generations + gc, the profile-entry layer
   (v3 bytes), and every path that replaces an entry's bytes. *)

let temp_dir () =
  let path = Filename.temp_file "vprof_store" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let counter_value name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let fp ?fuel ?(shards = 1) ?(config = "") ?(workload = "go") () =
  Store.Fingerprint.make ?fuel ~shards ~config ~profiler:"full"
    ~workload ~input:"test" ()

let program () =
  let w = Workloads.find "go" in
  w.Workload.wbuild Workload.Test

let test_fingerprint_key_stable_and_distinct () =
  let base = Store.Fingerprint.key (fp ()) in
  Alcotest.(check string) "same fields, same key" base
    (Store.Fingerprint.key (fp ()));
  let variants =
    [ Store.Fingerprint.key (fp ~fuel:1000 ());
      Store.Fingerprint.key (fp ~shards:4 ());
      Store.Fingerprint.key (fp ~config:"tnv=16" ());
      Store.Fingerprint.key (fp ~workload:"li" ());
      Store.Fingerprint.key
        (Store.Fingerprint.make ~profiler:"experiment" ~workload:"go"
           ~input:"test" ()) ]
  in
  List.iter
    (fun k -> Alcotest.(check bool) "field change changes key" true (k <> base))
    variants;
  Alcotest.(check int) "all variants distinct" (List.length variants)
    (List.length (List.sort_uniq compare variants))

let test_fingerprint_key_filesystem_safe () =
  let t =
    Store.Fingerprint.make ~config:"tnv=8 policy=lfu-clear"
      ~profiler:"full" ~workload:"a workload/with bad:chars"
      ~input:"test" ()
  in
  let k = Store.Fingerprint.key t in
  String.iter
    (fun c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '_'
      in
      Alcotest.(check bool) (Printf.sprintf "safe char %C in %s" c k) true ok)
    k

let test_mem_get_put_and_counters () =
  let s = Store.create_mem () in
  let h0 = counter_value "store.hits" in
  let m0 = counter_value "store.misses" in
  let b0 = counter_value "store.bytes_written" in
  Alcotest.(check (option string)) "miss" None (Store.get s "k");
  Store.put s ~key:"k" ~payload:"bytes";
  Alcotest.(check (option string)) "hit" (Some "bytes") (Store.get s "k");
  Alcotest.(check int) "one hit" (h0 + 1) (counter_value "store.hits");
  Alcotest.(check int) "one miss" (m0 + 1) (counter_value "store.misses");
  Alcotest.(check int) "bytes counted" (b0 + 5)
    (counter_value "store.bytes_written");
  (* overwrite in place *)
  Store.put s ~key:"k" ~payload:"other";
  Alcotest.(check (option string)) "overwritten" (Some "other")
    (Store.get s "k");
  let st = Store.stats s in
  Alcotest.(check int) "one entry" 1 st.Store.st_entries;
  Alcotest.(check int) "stats bytes" 5 st.Store.st_bytes

let test_put_rejects_newline_key () =
  let s = Store.create_mem () in
  match Store.put s ~key:"a\nb" ~payload:"x" with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_dir_persists_across_reopen () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"alpha key" ~payload:"payload one";
      Store.put s ~key:"beta" ~payload:"";
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "payload survives" (Some "payload one")
        (Store.find s' "alpha key");
      Alcotest.(check (option string)) "empty payload survives" (Some "")
        (Store.find s' "beta");
      Alcotest.(check (option string)) "unknown key" None (Store.find s' "x");
      Alcotest.(check int) "entries" 2 (Store.stats s').Store.st_entries)

let test_dir_reset_starts_empty () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"k" ~payload:"x";
      let s' = Store.open_dir ~reset:true dir in
      Alcotest.(check int) "reset is empty" 0 (Store.stats s').Store.st_entries)

let test_corrupt_payload_not_trusted () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"good" ~payload:"intact";
      Store.put s ~key:"bad" ~payload:"to be corrupted";
      (* smash every payload file that belongs to [bad] *)
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".out" then begin
            let path = Filename.concat dir f in
            let ic = open_in_bin path in
            let text =
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            if text = "to be corrupted" then begin
              let oc = open_out_bin path in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () -> output_string oc "to be CORRUPTED")
            end
          end)
        (Sys.readdir dir);
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "intact entry served" (Some "intact")
        (Store.find s' "good");
      Alcotest.(check (option string)) "corrupt entry treated as absent" None
        (Store.find s' "bad"))

let test_generations_and_gc () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      let g0 = Store.generation s in
      ignore (Store.new_generation s);
      Store.put s ~key:"old" ~payload:"old bytes";
      ignore (Store.new_generation s);
      Store.put s ~key:"mid" ~payload:"mid bytes";
      ignore (Store.new_generation s);
      Store.put s ~key:"new" ~payload:"new bytes";
      Alcotest.(check int) "three bumps" (g0 + 3) (Store.generation s);
      (* keep the last 2 generations: only [old] is past the cutoff *)
      Alcotest.(check int) "one removed" 1 (Store.gc s ~keep:2);
      Alcotest.(check (option string)) "old gone" None (Store.find s "old");
      Alcotest.(check (option string)) "mid kept" (Some "mid bytes")
        (Store.find s "mid");
      (* the removal is durable and its payload file is gone *)
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "gc durable" None (Store.find s' "old");
      Alcotest.(check int) "payload files match entries" 2
        (Array.to_list (Sys.readdir dir)
        |> List.filter (fun f -> Filename.check_suffix f ".out")
        |> List.length);
      (* generation survives reopen *)
      Alcotest.(check int) "generation persisted" (g0 + 3)
        (Store.generation s'))

let test_entries_sorted_with_generations () =
  let s = Store.create_mem () in
  ignore (Store.new_generation s);
  Store.put s ~key:"zeta" ~payload:"zz";
  ignore (Store.new_generation s);
  Store.put s ~key:"alpha" ~payload:"a";
  let infos = Store.entries s in
  Alcotest.(check (list string)) "sorted by key" [ "alpha"; "zeta" ]
    (List.map (fun (i : Store.info) -> i.Store.i_key) infos);
  Alcotest.(check (list int)) "write generations" [ 2; 1 ]
    (List.map (fun (i : Store.info) -> i.Store.i_gen) infos);
  Alcotest.(check (list int)) "byte sizes" [ 1; 2 ]
    (List.map (fun (i : Store.info) -> i.Store.i_bytes) infos)

let test_profile_roundtrip_exact () =
  with_dir (fun dir ->
      let prog = program () in
      let p = Profile.run prog in
      let s = Store.open_dir dir in
      Store.put_profile s ~key:"p" p;
      let s' = Store.open_dir dir in
      match Store.get_profile s' ~program:prog ~key:"p" with
      | None -> Alcotest.fail "expected a stored profile"
      | Some p' ->
        Alcotest.(check string) "text rendering identical"
          (Profile_io.to_string p) (Profile_io.to_string p'))

let test_decode_failure_is_a_miss () =
  let prog = program () in
  let p = Profile.run prog in
  let s = Store.create_mem () in
  Store.put_profile s ~key:"p" p;
  (* a program the stored pcs cannot validate against *)
  let b = Asm.create () in
  Asm.proc b "main" (fun b -> Asm.halt b);
  let tiny = Asm.assemble b ~entry:"main" in
  let d0 = counter_value "store.decode_failures" in
  Alcotest.(check bool) "decode failure reads as a miss" true
    (Store.get_profile s ~program:tiny ~key:"p" = None);
  Alcotest.(check int) "counted" (d0 + 1)
    (counter_value "store.decode_failures")

(* --- durability & self-healing ------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let payload_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".out")
  |> List.sort compare

let test_replicas_mirror_and_heal () =
  with_dir (fun dir ->
      let s = Store.open_dir ~replicas:2 dir in
      Store.put s ~key:"k" ~payload:"replicated-bytes";
      Alcotest.(check int) "stats replicas" 2
        (Store.stats s).Store.st_replicas;
      let name =
        match payload_files dir with
        | [ f ] -> f
        | fs -> Alcotest.failf "expected one payload, found %d" (List.length fs)
      in
      let primary = Filename.concat dir name in
      let mirror i =
        Filename.concat
          (Filename.concat dir (Printf.sprintf "replica%d" i))
          name
      in
      List.iter
        (fun p ->
          Alcotest.(check string) ("copy at " ^ p) "replicated-bytes"
            (read_file p))
        [ primary; mirror 1; mirror 2 ];
      (* smash the primary: same size, wrong bytes — only the checksum
         can tell, and the replicas keep the entry alive *)
      write_file primary "replicated-BYTES";
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "served from replica"
        (Some "replicated-bytes") (Store.find s' "k");
      let r0 = counter_value "store.read_repairs" in
      Alcotest.(check (option string)) "get read-repairs"
        (Some "replicated-bytes") (Store.get s' "k");
      Alcotest.(check int) "read repair counted" (r0 + 1)
        (counter_value "store.read_repairs");
      Alcotest.(check string) "primary healed byte-identical"
        "replicated-bytes" (read_file primary))

let test_scrub_quarantines_never_deletes () =
  with_dir (fun dir ->
      let s = Store.open_dir ~replicas:1 dir in
      Store.put s ~key:"k" ~payload:"precious-bytes!!";
      let name = List.hd (payload_files dir) in
      let replica = Filename.concat (Filename.concat dir "replica1") name in
      write_file replica "precious-BYTES!!";
      let q0 = counter_value "store.quarantined" in
      let c = Store.scrub s in
      Alcotest.(check int) "one entry surveyed" 1 c.Store.c_entries;
      Alcotest.(check int) "primary copy ok" 1 c.Store.c_copies_ok;
      Alcotest.(check int) "one bad copy" 1 c.Store.c_copies_bad;
      Alcotest.(check int) "quarantined" 1 c.Store.c_quarantined;
      Alcotest.(check int) "quarantine counted" (q0 + 1)
        (counter_value "store.quarantined");
      Alcotest.(check bool) "moved aside, not deleted" true
        (Sys.file_exists (replica ^ ".corrupt"));
      Alcotest.(check string) "wreckage preserved byte-for-byte"
        "precious-BYTES!!"
        (read_file (replica ^ ".corrupt"));
      Alcotest.(check bool) "original name gone" false
        (Sys.file_exists replica))

let test_repair_restores_byte_identical () =
  with_dir (fun dir ->
      let s = Store.open_dir ~replicas:1 dir in
      Store.put s ~key:"k" ~payload:"golden-payload-bytes";
      let name = List.hd (payload_files dir) in
      let primary = Filename.concat dir name in
      write_file primary "mangled";
      let s' = Store.open_dir dir in
      Alcotest.(check bool) "verify flags the damage" false
        (Store.check_clean (Store.verify s'));
      let r = Store.repair s' in
      Alcotest.(check int) "one copy repaired" 1 r.Store.c_repaired;
      Alcotest.(check int) "nothing lost" 0 r.Store.c_lost;
      Alcotest.(check string) "byte-identical restoration"
        "golden-payload-bytes" (read_file primary);
      Alcotest.(check bool) "clean after repair" true
        (Store.check_clean (Store.verify s')))

let test_orphan_tmp_swept_on_open () =
  with_dir (fun dir ->
      let s = Store.open_dir ~replicas:1 dir in
      Store.put s ~key:"k" ~payload:"v";
      (* a crashed atomic commit leaves temp files behind, in the
         primary and in replica trees alike *)
      write_file (Filename.concat dir "stranded.tmp") "half-written";
      write_file
        (Filename.concat (Filename.concat dir "replica1") "also.tmp")
        "x";
      let o0 = counter_value "store.orphans_swept" in
      let s' = Store.open_dir dir in
      Alcotest.(check int) "both orphans counted" (o0 + 2)
        (counter_value "store.orphans_swept");
      Alcotest.(check bool) "primary orphan gone" false
        (Sys.file_exists (Filename.concat dir "stranded.tmp"));
      Alcotest.(check (option string)) "entries untouched" (Some "v")
        (Store.find s' "k"))

let test_decode_failure_quarantined_on_disk () =
  with_dir (fun dir ->
      let prog = program () in
      let p = Profile.run prog in
      let s = Store.open_dir dir in
      Store.put_profile s ~key:"p" p;
      let name = List.hd (payload_files dir) in
      (* bytes that pass their CRC yet cannot decode against [tiny] *)
      let b = Asm.create () in
      Asm.proc b "main" (fun b -> Asm.halt b);
      let tiny = Asm.assemble b ~entry:"main" in
      let q0 = counter_value "store.quarantined" in
      Alcotest.(check bool) "undecodable bytes dropped" true
        (Store.get_profile s ~program:tiny ~key:"p" = None);
      Alcotest.(check bool) "poisoned payload quarantined" true
        (Sys.file_exists (Filename.concat dir (name ^ ".corrupt")));
      Alcotest.(check int) "quarantine counted" (q0 + 1)
        (counter_value "store.quarantined");
      let m0 = counter_value "store.misses" in
      Alcotest.(check bool) "second lookup is a plain miss" true
        (Store.get_profile s ~program:tiny ~key:"p" = None);
      Alcotest.(check int) "miss counted" (m0 + 1)
        (counter_value "store.misses");
      (* the quarantined entry stays gone across a reopen *)
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "absent after reopen" None
        (Store.find s' "p"))

(* --- paths that replace an entry's bytes ----------------------------

   Each installs new bytes under an existing key. The manifest row written
   afterwards must carry the checksum of the new bytes: a stale one would
   match no copy on the next open, and the entry would come back lost. *)

(* A three-instruction program: [program ()]'s profile names pcs outside
   it, so those bytes pass their checksum yet never decode against it. *)
let small_program () =
  let open Isa in
  let b = Asm.create () in
  Asm.proc b "main" (fun b ->
      Asm.ldi b t0 5L;
      Asm.addi b ~dst:t1 t0 3L;
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let test_recover_from_mirror_survives_reopen () =
  with_dir (fun dir ->
      let small = small_program () in
      let small_profile = Profile.run small in
      let small_bytes = Profile_io.to_binary small_profile in
      let want = Profile_io.to_string small_profile in
      let s = Store.open_dir ~replicas:1 dir in
      Store.put_profile s ~key:"p" (Profile.run (program ()));
      (* the primary keeps its CRC-valid bytes; the replica now holds a
         profile of [small] *)
      let name = List.hd (payload_files dir) in
      write_file (Filename.concat (Filename.concat dir "replica1") name)
        small_bytes;
      let served s =
        match Store.get_profile s ~program:small ~key:"p" with
        | Some p -> Profile_io.to_string p
        | None -> Alcotest.fail "expected the replica's profile"
      in
      let s = Store.open_dir dir in
      Alcotest.(check string) "replica's profile served" want (served s);
      Alcotest.(check string) "primary healed from the replica" small_bytes
        (read_file (Filename.concat dir name));
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "entry survives a reopen"
        (Some small_bytes) (Store.find s' "p");
      Alcotest.(check string) "and still decodes" want (served s');
      Alcotest.(check bool) "verify clean" true
        (Store.check_clean (Store.verify s'));
      Alcotest.(check int) "nothing lost" 0 (Store.stats s').Store.st_lost)

let test_roll_forward_over_existing_entry () =
  with_dir (fun dir ->
      let s = Store.open_dir ~replicas:1 dir in
      Store.put s ~key:"k" ~payload:"old bytes";
      (* a crash mid-put of new bytes: the journal holds the intent, the
         primary already has the new bytes, the replica and the manifest
         still have the old ones *)
      let fresh = "new bytes, longer than the old" in
      Journal.append_intent ~dir
        (Journal.Put
           { key = "k"; gen = Store.generation s; bytes = String.length fresh;
             crc = Crc32.string fresh });
      let name = List.hd (payload_files dir) in
      write_file (Filename.concat dir name) fresh;
      let s' = Store.open_dir dir in
      Alcotest.(check (option string)) "rolled forward" (Some fresh)
        (Store.find s' "k");
      Alcotest.(check string) "replica healed" fresh
        (read_file (Filename.concat (Filename.concat dir "replica1") name));
      let s'' = Store.open_dir dir in
      Alcotest.(check (option string)) "still served after a second reopen"
        (Some fresh) (Store.find s'' "k");
      Alcotest.(check bool) "verify clean" true
        (Store.check_clean (Store.verify s''));
      Alcotest.(check int) "nothing lost" 0 (Store.stats s'').Store.st_lost)

(* Random commit sequences against a model: a key maps to the bytes and
   the generation of its last put. *)
type op = Put of int * string | Gc of int | New_generation | Reopen

(* a space and a '%' exercise the manifest's key escaping *)
let model_keys = [| "a"; "b key"; "c%20"; "d" |]

let gen_payload =
  let open QCheck.Gen in
  frequency
    [ (1, return "");
      (4, string_size ~gen:char (int_range 1 64));
      (2,
       map2
         (fun n seed ->
           String.init n (fun i ->
               Char.chr (((i * ((2 * seed) + 1)) + seed) land 0xFF)))
         (int_range 1024 70_000) (int_bound 255)) ]

let gen_op =
  let open QCheck.Gen in
  frequency
    [ (6,
       map2 (fun k p -> Put (k, p))
         (int_bound (Array.length model_keys - 1))
         gen_payload);
      (1, map (fun keep -> Gc keep) (int_bound 3));
      (2, return New_generation);
      (2, return Reopen) ]

let print_case (replicas, ops) =
  Printf.sprintf "replicas=%d [%s]" replicas
    (String.concat "; "
       (List.map
          (function
            | Put (k, p) ->
              Printf.sprintf "put %S (%d bytes)" model_keys.(k) (String.length p)
            | Gc keep -> Printf.sprintf "gc ~keep:%d" keep
            | New_generation -> "new_generation"
            | Reopen -> "reopen")
          ops))

let prop_commits_match_model =
  QCheck.Test.make ~count:40
    ~name:"put/overwrite/gc/generation/reopen sequences match a model"
    (QCheck.make ~print:print_case
       QCheck.Gen.(pair (int_bound 1) (list_size (int_range 1 25) gen_op)))
    (fun (replicas, ops) ->
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let s = ref (Store.open_dir ~replicas dir) in
          let model = Hashtbl.create 8 in
          let gen = ref 0 in
          let reopen () =
            s := Store.open_dir dir;
            let want =
              Hashtbl.fold
                (fun k (p, g) acc -> (k, g, String.length p) :: acc)
                model []
              |> List.sort compare
            in
            let got =
              List.map
                (fun (i : Store.info) -> (i.Store.i_key, i.i_gen, i.i_bytes))
                (Store.entries !s)
            in
            if got <> want then
              QCheck.Test.fail_reportf "live keys: got [%s], want [%s]"
                (String.concat "; " (List.map (fun (k, _, _) -> k) got))
                (String.concat "; " (List.map (fun (k, _, _) -> k) want));
            Array.iter
              (fun k ->
                let want = Option.map fst (Hashtbl.find_opt model k) in
                if Store.find !s k <> want then
                  QCheck.Test.fail_reportf "key %S served the wrong bytes" k)
              model_keys;
            if Store.generation !s <> !gen then
              QCheck.Test.fail_reportf "generation %d, want %d"
                (Store.generation !s) !gen;
            if not (Store.check_clean (Store.verify !s)) then
              QCheck.Test.fail_reportf "verify is not clean";
            if (Store.stats !s).Store.st_lost <> 0 then
              QCheck.Test.fail_reportf "%d lost rows"
                (Store.stats !s).Store.st_lost
          in
          List.iter
            (function
              | Put (k, payload) ->
                Store.put !s ~key:model_keys.(k) ~payload;
                Hashtbl.replace model model_keys.(k) (payload, !gen)
              | Gc keep ->
                let dead =
                  Hashtbl.fold
                    (fun k (_, g) acc -> if g <= !gen - keep then k :: acc else acc)
                    model []
                in
                List.iter (Hashtbl.remove model) dead;
                let removed = Store.gc !s ~keep in
                if removed <> List.length dead then
                  QCheck.Test.fail_reportf "gc ~keep:%d removed %d, want %d"
                    keep removed (List.length dead)
              | New_generation ->
                incr gen;
                ignore (Store.new_generation !s)
              | Reopen -> reopen ())
            ops;
          reopen ();
          true))

let suite =
  [ Alcotest.test_case "fingerprint key stable and distinct" `Quick
      test_fingerprint_key_stable_and_distinct;
    Alcotest.test_case "fingerprint key filesystem-safe" `Quick
      test_fingerprint_key_filesystem_safe;
    Alcotest.test_case "mem get/put and counters" `Quick
      test_mem_get_put_and_counters;
    Alcotest.test_case "put rejects newline key" `Quick
      test_put_rejects_newline_key;
    Alcotest.test_case "dir persists across reopen" `Quick
      test_dir_persists_across_reopen;
    Alcotest.test_case "reset starts empty" `Quick test_dir_reset_starts_empty;
    Alcotest.test_case "corrupt payload not trusted" `Quick
      test_corrupt_payload_not_trusted;
    Alcotest.test_case "generations and gc" `Quick test_generations_and_gc;
    Alcotest.test_case "entries sorted with generations" `Quick
      test_entries_sorted_with_generations;
    Alcotest.test_case "profile roundtrip exact" `Quick
      test_profile_roundtrip_exact;
    Alcotest.test_case "decode failure is a miss" `Quick
      test_decode_failure_is_a_miss;
    Alcotest.test_case "replicas mirror and heal" `Quick
      test_replicas_mirror_and_heal;
    Alcotest.test_case "scrub quarantines, never deletes" `Quick
      test_scrub_quarantines_never_deletes;
    Alcotest.test_case "repair restores byte-identical" `Quick
      test_repair_restores_byte_identical;
    Alcotest.test_case "orphan tmp swept on open" `Quick
      test_orphan_tmp_swept_on_open;
    Alcotest.test_case "decode failure quarantined on disk" `Quick
      test_decode_failure_quarantined_on_disk;
    Alcotest.test_case "mirror recovery survives reopen" `Quick
      test_recover_from_mirror_survives_reopen;
    Alcotest.test_case "roll-forward over an existing entry" `Quick
      test_roll_forward_over_existing_entry;
    QCheck_alcotest.to_alcotest prop_commits_match_model ]
