(* The profile store: fingerprint keys, both backends' get/put/reload
   behavior, checksum distrust, salvage-shaped loading, generations + gc,
   the profile-entry layer (v3 bytes), recompute after corruption, every
   path that replaces an entry's bytes, and crashes in each commit
   window. *)

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

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let payload_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".out")
  |> List.sort compare

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

(* --- salvage-shaped loading ------------------------------------------ *)

let manifest dir = Filename.concat dir "manifest"

let test_torn_manifest_tail_dropped () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"first" ~payload:"p1";
      Store.put s ~key:"second" ~payload:"p2";
      (* tear the manifest mid-way through its last line, as a crash
         during a non-atomic write would *)
      let text = read_file (manifest dir) in
      write_file (manifest dir) (String.sub text 0 (String.length text - 5));
      let s' = Store.open_dir dir in
      Alcotest.(check int) "torn entry dropped" 1
        (Store.stats s').Store.st_entries;
      Alcotest.(check (option string)) "earlier entry survives" (Some "p1")
        (Store.find s' "first");
      Alcotest.(check (option string)) "torn entry not trusted" None
        (Store.find s' "second"))

let test_garbage_manifest_line_stops_load () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"a" ~payload:"p";
      let text = read_file (manifest dir) in
      write_file (manifest dir) (text ^ "done not-a-real-entry\n");
      Alcotest.(check int) "checksummed prefix kept" 1
        (Store.stats (Store.open_dir dir)).Store.st_entries)

let test_truncated_payload_not_trusted () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"job" ~payload:"precious bytes";
      write_file (Filename.concat dir (List.hd (payload_files dir))) "precious";
      Alcotest.(check (option string)) "size check rejects the payload" None
        (Store.find (Store.open_dir dir) "job"))

(* A committed store whose manifest is cut at EVERY byte offset either
   loads a salvaged prefix or fails cleanly — each surviving entry
   byte-equal to what was committed, never a corrupt payload slipping
   past its checksum, and salvage is prefix-shaped (an entry only
   survives if every earlier one does). *)
let committed = [ ("alpha", "payload one\n"); ("beta two", "p2\x00bin") ]

let check_salvage ~ctx s =
  let n = (Store.stats s).Store.st_entries in
  Alcotest.(check bool) (ctx ^ ": no more entries than committed") true
    (n <= List.length committed);
  let found =
    List.map
      (fun (key, payload) ->
        match Store.find s key with
        | None -> false
        | Some got ->
          Alcotest.(check string) (ctx ^ ": " ^ key ^ " byte-equal") payload
            got;
          true)
      committed
  in
  Alcotest.(check int) (ctx ^ ": entries counts the survivors") n
    (List.length (List.filter Fun.id found));
  (* prefix-shaped: true, true, ..., false, false, ... *)
  let rec is_prefix = function
    | [] -> true
    | true :: rest -> is_prefix rest
    | false :: rest -> not (List.exists Fun.id rest)
  in
  Alcotest.(check bool) (ctx ^ ": salvage is a prefix") true (is_prefix found)

let test_manifest_cut_at_every_offset () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      List.iter (fun (key, payload) -> Store.put s ~key ~payload) committed;
      let text = read_file (manifest dir) in
      for cut = 0 to String.length text do
        write_file (manifest dir) (String.sub text 0 cut);
        check_salvage ~ctx:(Printf.sprintf "cut at %d" cut) (Store.open_dir dir)
      done;
      (* the intact manifest still loads everything *)
      write_file (manifest dir) text;
      Alcotest.(check int) "intact manifest loads all" (List.length committed)
        (Store.stats (Store.open_dir dir)).Store.st_entries)

(* The same property, under random payloads (arbitrary bytes, newlines
   included) and a random cut offset. *)
let prop_truncated_manifest_salvages_cleanly =
  QCheck.Test.make
    ~name:"truncated manifest: salvaged prefix or clean failure" ~count:40
    QCheck.(pair (small_list string) small_nat)
    (fun (payloads, cutpick) ->
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (* a reset store commits its (empty) manifest up front *)
          let s = Store.open_dir ~reset:true dir in
          let keyed =
            List.mapi (fun i p -> (Printf.sprintf "job-%d" i, p)) payloads
          in
          List.iter (fun (key, payload) -> Store.put s ~key ~payload) keyed;
          let text = read_file (manifest dir) in
          let cut = cutpick mod (String.length text + 1) in
          write_file (manifest dir) (String.sub text 0 cut);
          let s' = Store.open_dir dir in
          (Store.stats s').Store.st_entries <= List.length keyed
          && List.for_all
               (fun (key, payload) ->
                 match Store.find s' key with
                 | None -> true
                 | Some got -> String.equal got payload)
               keyed))

let test_rejects_file_as_dir () =
  let path = Filename.temp_file "vprof_store" "" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Store.open_dir path with
      | _ -> Alcotest.fail "expected Sys_error"
      | exception Sys_error _ -> ())

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

(* --- durability ------------------------------------------------------ *)

(* The cache contract: bytes that fail their checksum are never served.
   The entry is a miss, and the caller's put of the recomputed bytes
   rewrites the file byte-identically. *)
let test_corrupt_payload_recomputed_byte_identical () =
  with_dir (fun dir ->
      let pristine = "deterministic-payload-bytes" in
      let s = Store.open_dir dir in
      Store.put s ~key:"k" ~payload:pristine;
      let path = Filename.concat dir (List.hd (payload_files dir)) in
      (* one flipped byte: same size, so only the checksum can tell *)
      let b = Bytes.of_string (read_file path) in
      Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lxor 0xFF));
      write_file path (Bytes.to_string b);
      let s = Store.open_dir dir in
      Alcotest.(check (option string)) "get misses" None (Store.get s "k");
      let c = Store.verify s in
      Alcotest.(check bool) "verify flags the entry" false
        (Store.check_clean c);
      Alcotest.(check int) "as lost" 1 c.Store.c_lost;
      (* the caller recomputes and puts the same bytes *)
      Store.put s ~key:"k" ~payload:pristine;
      Alcotest.(check string) "file rewritten byte-identical" pristine
        (read_file path);
      let s = Store.open_dir dir in
      Alcotest.(check (option string)) "served after a reopen" (Some pristine)
        (Store.get s "k");
      Alcotest.(check bool) "verify clean" true
        (Store.check_clean (Store.verify s)))

let test_scrub_quarantines_never_deletes () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"k" ~payload:"precious-bytes!!";
      let payload = Filename.concat dir (List.hd (payload_files dir)) in
      write_file payload "precious-BYTES!!";
      let q0 = counter_value "store.quarantined" in
      let c = Store.scrub s in
      Alcotest.(check int) "one entry surveyed" 1 c.Store.c_entries;
      Alcotest.(check int) "no copy ok" 0 c.Store.c_copies_ok;
      Alcotest.(check int) "one bad copy" 1 c.Store.c_copies_bad;
      Alcotest.(check int) "quarantined" 1 c.Store.c_quarantined;
      Alcotest.(check int) "quarantine counted" (q0 + 1)
        (counter_value "store.quarantined");
      Alcotest.(check bool) "moved aside, not deleted" true
        (Sys.file_exists (payload ^ ".corrupt"));
      Alcotest.(check string) "wreckage preserved byte-for-byte"
        "precious-BYTES!!"
        (read_file (payload ^ ".corrupt"));
      Alcotest.(check bool) "original name gone" false
        (Sys.file_exists payload))

let test_orphan_tmp_swept_on_open () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"k" ~payload:"v";
      (* a crashed atomic commit leaves a temp file behind *)
      write_file (Filename.concat dir "stranded.tmp") "half-written";
      let o0 = counter_value "store.orphans_swept" in
      let s' = Store.open_dir dir in
      Alcotest.(check int) "orphan counted" (o0 + 1)
        (counter_value "store.orphans_swept");
      Alcotest.(check bool) "orphan gone" false
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

(* Runs [f] with [site] armed to raise on its next hit, and requires it
   to fire: the in-process stand-in for a crash at that site. *)
let interrupted ~site f =
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  Fault.arm ~site ~at:1 ();
  match ignore (f ()) with
  | () -> Alcotest.failf "%s never fired" site
  | exception Fault.Injected _ -> ()

(* Reopens [dir] and requires a sound store: verify clean, nothing lost. *)
let reopen_sound ~ctx dir =
  let s = Store.open_dir dir in
  Alcotest.(check bool) (ctx ^ ": verify clean") true
    (Store.check_clean (Store.verify s));
  Alcotest.(check int) (ctx ^ ": nothing lost") 0 (Store.stats s).Store.st_lost;
  s

(* --- paths that replace an entry's bytes ----------------------------

   Each installs new bytes under an existing key. The new bytes go to a
   file of their own, so the old row stays sound until the manifest
   rename, and the row written then carries the new bytes' checksum. *)

let test_roll_forward_over_existing_entry () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"k" ~payload:"old bytes";
      (* a crash between the payload and the manifest renames *)
      let fresh = "new bytes, longer than the old" in
      interrupted ~site:"store.orphan" (fun () ->
          Store.put s ~key:"k" ~payload:fresh);
      let s = reopen_sound ~ctx:"before the manifest rename" dir in
      Alcotest.(check (option string)) "old bytes served" (Some "old bytes")
        (Store.find s "k");
      Alcotest.(check int) "new bytes beside the old" 2
        (List.length (payload_files dir));
      Store.put s ~key:"k" ~payload:fresh;
      let s = reopen_sound ~ctx:"after the manifest rename" dir in
      Alcotest.(check (option string)) "new bytes served" (Some fresh)
        (Store.find s "k");
      ignore (Store.gc s ~keep:1);
      Alcotest.(check int) "gc removes the replaced file" 1
        (List.length (payload_files dir)))

(* Random commit sequences against a model: each live key's bytes and
   write generation, and the current generation. Each case arms one
   commit-path fault site to raise on its next hit from a random op on;
   the store reopened after it fires must equal the model before or
   after the interrupted op. *)
type op = Put of int * string | Gc of int | New_generation | Reopen

(* a space and a '%' exercise the manifest's key escaping *)
let model_keys = [| "a"; "b key"; "c%20"; "d" |]

let commit_sites = [| "store.commit"; "store.payload.write"; "store.orphan" |]

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
      (2, map (fun keep -> Gc keep) (int_bound 3));
      (2, return New_generation);
      (2, return Reopen) ]

let gen_case =
  let open QCheck.Gen in
  pair
    (list_size (int_range 1 25) gen_op)
    (pair (int_bound (Array.length commit_sites - 1)) (int_bound 24))

let print_op = function
  | Put (k, p) ->
    Printf.sprintf "put %S (%d bytes)" model_keys.(k) (String.length p)
  | Gc keep -> Printf.sprintf "gc ~keep:%d" keep
  | New_generation -> "new_generation"
  | Reopen -> "reopen"

let print_case (ops, (site, from)) =
  Printf.sprintf "[%s] with %s armed from op %d"
    (String.concat "; " (List.map print_op ops))
    commit_sites.(site) from

(* The model after [op]: live keys sorted, each with its bytes and write
   generation, and the current generation. *)
let step (m, gen) = function
  | Put (k, p) ->
    let key = model_keys.(k) in
    (List.sort compare ((key, (p, gen)) :: List.remove_assoc key m), gen)
  | Gc keep -> (List.filter (fun (_, (_, g)) -> g > gen - keep) m, gen)
  | New_generation -> (m, gen + 1)
  | Reopen -> (m, gen)

let live s =
  List.map
    (fun (i : Store.info) -> (i.Store.i_key, i.i_gen, i.i_bytes))
    (Store.entries s)

let matches s (m, gen) =
  live s = List.map (fun (k, (p, g)) -> (k, g, String.length p)) m
  && Array.for_all
       (fun k -> Store.find s k = Option.map fst (List.assoc_opt k m))
       model_keys
  && Store.generation s = gen

let prop_commits_match_model =
  QCheck.Test.make ~count:100
    ~name:"put/overwrite/gc/generation/reopen sequences match a model"
    (QCheck.make ~print:print_case gen_case)
    (fun (ops, (site, from)) ->
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () ->
          Fault.disarm ();
          rm_rf dir)
        (fun () ->
          let s = ref (Store.open_dir dir) in
          let sound what =
            if not (Store.check_clean (Store.verify !s)) then
              QCheck.Test.fail_reportf "%s: verify is not clean" what;
            if (Store.stats !s).Store.st_lost <> 0 then
              QCheck.Test.fail_reportf "%s: %d lost rows" what
                (Store.stats !s).Store.st_lost
          in
          let reopen ((m, gen) as model) =
            s := Store.open_dir dir;
            if not (matches !s model) then
              QCheck.Test.fail_reportf
                "live keys: got [%s] at generation %d, want [%s] at %d"
                (String.concat "; " (List.map (fun (k, _, _) -> k) (live !s)))
                (Store.generation !s)
                (String.concat "; " (List.map fst m))
                gen;
            sound "reopen"
          in
          let apply model op =
            let after = step model op in
            match
              match op with
              | Put (k, payload) -> Store.put !s ~key:model_keys.(k) ~payload
              | Gc keep ->
                let removed = Store.gc !s ~keep in
                let want = List.length (fst model) - List.length (fst after) in
                if removed <> want then
                  QCheck.Test.fail_reportf "gc ~keep:%d removed %d, want %d"
                    keep removed want
              | New_generation -> ignore (Store.new_generation !s)
              | Reopen -> reopen after
            with
            | () -> after
            | exception Fault.Injected site ->
              (* the crash: what reopens is one side of the op *)
              s := Store.open_dir dir;
              let model =
                if matches !s model then model
                else if matches !s after then after
                else
                  QCheck.Test.fail_reportf
                    "after %s fired in %s the store matches neither side" site
                    (print_op op)
              in
              sound ("after " ^ site);
              model
          in
          let model =
            List.fold_left
              (fun (i, model) op ->
                if i = from then Fault.arm ~site:commit_sites.(site) ~at:1 ();
                (i + 1, apply model op))
              (0, ([], 0))
              ops
            |> snd
          in
          reopen model;
          (* a completed gc leaves only files a row names *)
          Fault.disarm ();
          let model = apply model (Gc 1) in
          reopen model;
          let files = List.length (payload_files dir) in
          if files <> List.length (fst model) then
            QCheck.Test.fail_reportf "%d payload files for %d rows after gc"
              files (List.length (fst model));
          true))

(* --- crash windows ---------------------------------------------------

   The manifest rename is the one commit point: a crash before it leaves
   the old store, after it the new one, and a file no row names is the
   only leftover either way. *)

(* A put is durable once its manifest rename lands: its entry, with its
   generation, is served after a crash in the next put. *)
let test_recovery_rolls_forward () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      for _ = 1 to 9 do
        ignore (Store.new_generation s)
      done;
      Store.put s ~key:"k" ~payload:"hello-payload";
      interrupted ~site:"store.orphan" (fun () ->
          Store.put s ~key:"next" ~payload:"never committed");
      let s = reopen_sound ~ctx:"reopened" dir in
      Alcotest.(check (option string))
        "rolled forward" (Some "hello-payload") (Store.find s "k");
      Alcotest.(check (option string)) "the interrupted put is absent" None
        (Store.find s "next");
      Alcotest.(check (list int)) "its generation" [ 9 ]
        (List.map (fun (i : Store.info) -> i.Store.i_gen) (Store.entries s)))

(* A put that dies before its payload rename leaves nothing durable: the
   acknowledged entry is untouched and no payload file is added. *)
let test_recovery_rolls_back () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"k" ~payload:"old";
      let files = payload_files dir in
      List.iter
        (fun site ->
          interrupted ~site (fun () -> Store.put s ~key:"k" ~payload:"new");
          let s = reopen_sound ~ctx:site dir in
          Alcotest.(check (option string))
            (site ^ ": old entry survives") (Some "old") (Store.find s "k");
          Alcotest.(check (list string))
            (site ^ ": no payload file added") files (payload_files dir))
        [ "store.commit"; "store.payload.write" ])

(* A gc that dies between its manifest rename and its removals has
   dropped its rows; the files they named wait for the next gc. *)
let test_recovery_completes_gc () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"drop" ~payload:"dd";
      ignore (Store.new_generation s);
      Store.put s ~key:"keep" ~payload:"kk";
      interrupted ~site:"store.orphan" (fun () -> Store.gc s ~keep:1);
      let s = reopen_sound ~ctx:"after the crash" dir in
      Alcotest.(check (option string)) "kept" (Some "kk") (Store.find s "keep");
      Alcotest.(check (option string)) "dropped" None (Store.find s "drop");
      Alcotest.(check int) "its file outlives the crash" 2
        (List.length (payload_files dir));
      let o0 = counter_value "store.orphans_swept" in
      Alcotest.(check int) "the next gc drops no row" 0 (Store.gc s ~keep:1);
      Alcotest.(check int) "but removes the file" 1
        (List.length (payload_files dir));
      Alcotest.(check int) "counted" (o0 + 1)
        (counter_value "store.orphans_swept"))

(* Opening replays nothing: after a put dies between its renames, every
   open sees the same store and leaves the unnamed file alone, and the
   retried put commits that same file. *)
let test_recovery_is_idempotent () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      interrupted ~site:"store.orphan" (fun () ->
          Store.put s ~key:"k" ~payload:"payload-bytes");
      let files = payload_files dir in
      Alcotest.(check int) "the payload file is on disk" 1 (List.length files);
      for i = 1 to 2 do
        let ctx = Printf.sprintf "open %d" i in
        let s = reopen_sound ~ctx dir in
        Alcotest.(check (option string)) (ctx ^ ": not committed") None
          (Store.find s "k");
        Alcotest.(check (list string)) (ctx ^ ": file left alone") files
          (payload_files dir)
      done;
      Store.put (Store.open_dir dir) ~key:"k" ~payload:"payload-bytes";
      let s = reopen_sound ~ctx:"after the retry" dir in
      Alcotest.(check (option string))
        "still there" (Some "payload-bytes") (Store.find s "k");
      Alcotest.(check int) "one entry, not two" 1
        (List.length (Store.entries s));
      Alcotest.(check (list string)) "the retry committed the same file" files
        (payload_files dir))

(* A generation bump is one manifest rename: it survives a crash in the
   put after it. *)
let test_generation_survives_crash () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"k" ~payload:"v";
      let g = Store.new_generation s in
      interrupted ~site:"store.orphan" (fun () ->
          Store.put s ~key:"k2" ~payload:"w");
      Alcotest.(check int) "generation persisted" g
        (Store.generation (Store.open_dir dir)))

(* A store written under the previous manifest version (payload files
   named by key alone) opens empty and sound rather than as lost rows,
   and gc removes its files. *)
let test_old_version_opens_empty () =
  with_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let old = Filename.concat dir "full.go.test-0a1b2c3d-5e6f7a8b.out" in
      write_file old "payload";
      write_file (manifest dir) "vprof-store 1\n";
      let s = reopen_sound ~ctx:"version 1" dir in
      Alcotest.(check int) "no entries" 0 (Store.stats s).Store.st_entries;
      Alcotest.(check int) "nothing to drop" 0 (Store.gc s ~keep:1);
      Alcotest.(check bool) "gc removes the old file" false
        (Sys.file_exists old))

(* A store written before the v2 manifest kept a write-ahead journal
   beside it. A v2 store holding such a [journal] keeps every row and
   verifies clean without touching it; one gc removes it, counted as an
   orphan. *)
let test_gc_removes_retired_journal () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.put s ~key:"a" ~payload:"first";
      Store.put s ~key:"b" ~payload:"second";
      let journal = Filename.concat dir "journal" in
      write_file journal "retired journal bytes";
      let s = reopen_sound ~ctx:"stray journal" dir in
      Alcotest.(check int) "every row kept" 2 (Store.stats s).Store.st_entries;
      Alcotest.(check bool) "open and verify leave it" true (Sys.file_exists journal);
      let o0 = counter_value "store.orphans_swept" in
      Alcotest.(check int) "gc drops no row" 0 (Store.gc s ~keep:1);
      Alcotest.(check bool) "gc removes the journal" false (Sys.file_exists journal);
      Alcotest.(check int) "counted as an orphan" (o0 + 1)
        (counter_value "store.orphans_swept");
      let s = reopen_sound ~ctx:"after gc" dir in
      Alcotest.(check (list (option string))) "rows served" [ Some "first"; Some "second" ]
        [ Store.find s "a"; Store.find s "b" ];
      Alcotest.(check int) "one file per row" 2 (List.length (payload_files dir)))

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
    Alcotest.test_case "torn manifest tail dropped" `Quick
      test_torn_manifest_tail_dropped;
    Alcotest.test_case "garbage manifest line stops load" `Quick
      test_garbage_manifest_line_stops_load;
    Alcotest.test_case "truncated payload not trusted" `Quick
      test_truncated_payload_not_trusted;
    Alcotest.test_case "manifest cut at every byte offset" `Quick
      test_manifest_cut_at_every_offset;
    QCheck_alcotest.to_alcotest prop_truncated_manifest_salvages_cleanly;
    Alcotest.test_case "rejects a file where a dir is needed" `Quick
      test_rejects_file_as_dir;
    Alcotest.test_case "generations and gc" `Quick test_generations_and_gc;
    Alcotest.test_case "entries sorted with generations" `Quick
      test_entries_sorted_with_generations;
    Alcotest.test_case "profile roundtrip exact" `Quick
      test_profile_roundtrip_exact;
    Alcotest.test_case "decode failure is a miss" `Quick
      test_decode_failure_is_a_miss;
    Alcotest.test_case "corrupt payload recomputed byte-identical" `Quick
      test_corrupt_payload_recomputed_byte_identical;
    Alcotest.test_case "scrub quarantines, never deletes" `Quick
      test_scrub_quarantines_never_deletes;
    Alcotest.test_case "orphan tmp swept on open" `Quick
      test_orphan_tmp_swept_on_open;
    Alcotest.test_case "decode failure quarantined on disk" `Quick
      test_decode_failure_quarantined_on_disk;
    Alcotest.test_case "roll-forward over an existing entry" `Quick
      test_roll_forward_over_existing_entry;
    QCheck_alcotest.to_alcotest prop_commits_match_model;
    Alcotest.test_case "recovery rolls forward" `Quick
      test_recovery_rolls_forward;
    Alcotest.test_case "recovery rolls back" `Quick test_recovery_rolls_back;
    Alcotest.test_case "recovery completes gc" `Quick
      test_recovery_completes_gc;
    Alcotest.test_case "recovery is idempotent" `Quick
      test_recovery_is_idempotent;
    Alcotest.test_case "generation bump survives a crash" `Quick
      test_generation_survives_crash;
    Alcotest.test_case "old manifest version opens empty" `Quick
      test_old_version_opens_empty;
    Alcotest.test_case "gc removes a retired journal" `Quick
      test_gc_removes_retired_journal ]
