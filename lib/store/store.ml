(* Version 2 names payload files by their payload's CRC-32 as well as
   their key. A version-1 manifest is not loaded: its store opens empty,
   and gc removes the old files. *)
let manifest_header = "vprof-store 2"

let m_hits = Obs.Metrics.counter "store.hits"
let m_misses = Obs.Metrics.counter "store.misses"
let m_bytes_written = Obs.Metrics.counter "store.bytes_written"
let m_decode_failures = Obs.Metrics.counter "store.decode_failures"
let m_orphans_swept = Obs.Metrics.counter "store.orphans_swept"
let m_quarantined = Obs.Metrics.counter "store.quarantined"

module Fingerprint = struct
  type t = {
    fp_profiler : string;
    fp_workload : string;
    fp_input : string;
    fp_fuel : int option;
    fp_shards : int;
    fp_config : string;
  }

  let make ?fuel ?(shards = 1) ?(config = "") ~profiler ~workload ~input () =
    { fp_profiler = profiler; fp_workload = workload; fp_input = input;
      fp_fuel = fuel; fp_shards = shards; fp_config = config }

  let canonical fp =
    Printf.sprintf "profiler=%s workload=%s input=%s fuel=%s shards=%d config=%s"
      fp.fp_profiler fp.fp_workload fp.fp_input
      (match fp.fp_fuel with None -> "none" | Some f -> string_of_int f)
      fp.fp_shards fp.fp_config

  let sanitize s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
        | _ -> '_')
      s

  let key fp =
    let stem =
      Printf.sprintf "%s.%s.%s"
        (sanitize fp.fp_profiler) (sanitize fp.fp_workload)
        (sanitize fp.fp_input)
    in
    let stem =
      match fp.fp_fuel with
      | None -> stem
      | Some f -> Printf.sprintf "%s.fuel%d" stem f
    in
    let stem =
      if fp.fp_shards = 1 then stem
      else Printf.sprintf "%s.x%d" stem fp.fp_shards
    in
    Printf.sprintf "%s-%s" stem (Crc32.to_hex (Crc32.string (canonical fp)))

  let profile_config (c : Vstate.config) ~selection =
    Printf.sprintf "tnv=%d policy=%s clear=%d distinct=%d sel=%s"
      c.Vstate.tnv_capacity
      (match c.Vstate.tnv_policy with
       | Tnv.Lfu_clear -> "lfu_clear"
       | Tnv.Lfu -> "lfu"
       | Tnv.Lru -> "lru")
      c.Vstate.clear_interval c.Vstate.distinct_cap selection
end

type backend = Memory | Dir of string

(* [e_crc] is the CRC-32 of [e_payload], recorded when the bytes were
   installed: manifest rows are rendered from it, so no commit re-hashes a
   payload. Only [set_entry] builds an entry, and it sets both. *)
type entry = { e_payload : string; e_crc : int; e_gen : int }

(* A manifest row whose payload file fails its checks: the key stays
   out of the table (lookups miss, callers recompute) but the row is
   re-emitted on persist so the damage stays visible across opens until
   a new put overwrites it or gc retires it. *)
type lost = { l_key : string; l_gen : int; l_bytes : int; l_crc : int }

type t = {
  s_backend : backend;
  s_mu : Mutex.t;
  s_table : (string, entry) Hashtbl.t;
  mutable s_order : string list; (* first-commit order, reversed *)
  mutable s_gen : int;
  mutable s_lost : lost list;
}

type info = { i_key : string; i_gen : int; i_bytes : int }

type stats = {
  st_entries : int;
  st_bytes : int;
  st_generation : int;
  st_lost : int;
}

type check = {
  c_entries : int;
  c_copies_ok : int;
  c_copies_bad : int;
  c_quarantined : int;
  c_lost : int;
}

let check_clean c = c.c_copies_bad = 0 && c.c_lost = 0

(* --- small helpers --- *)

let write_atomic ~dir path content =
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:dir ~mode:[ Open_binary ]
      (Filename.basename path) ".tmp"
  in
  (try
     Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content);
     Sys.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Keys travel on one manifest line each: escape the two characters that
   would break the line/field structure. *)
let escape name =
  if String.exists (fun c -> c = ' ' || c = '%' || c = '\n') name then begin
    let buf = Buffer.create (String.length name + 8) in
    String.iter
      (fun c ->
        match c with
        | ' ' -> Buffer.add_string buf "%20"
        | '%' -> Buffer.add_string buf "%25"
        | '\n' -> Buffer.add_string buf "%0a"
        | c -> Buffer.add_char buf c)
      name;
    Buffer.contents buf
  end
  else name

let unescape s =
  if not (String.contains s '%') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let i = ref 0 in
    let n = String.length s in
    while !i < n do
      (if s.[!i] = '%' && !i + 2 < n then begin
         (match String.sub s (!i + 1) 2 with
          | "20" -> Buffer.add_char buf ' '
          | "25" -> Buffer.add_char buf '%'
          | "0a" -> Buffer.add_char buf '\n'
          | other -> Buffer.add_string buf ("%" ^ other));
         i := !i + 3
       end
       else begin
         Buffer.add_char buf s.[!i];
         incr i
       end)
    done;
    Buffer.contents buf
  end

(* Payload file name: a readable sanitized stem, the crc of the raw key
   (distinct keys never collide after sanitization) and the crc of the
   payload. New bytes for a key therefore land beside, never over, the
   bytes its committed row names, which is what makes the manifest rename
   a put's one commit point. *)
let payload_file key ~crc =
  Printf.sprintf "%s-%s-%s.out" (Fingerprint.sanitize key)
    (Crc32.to_hex (Crc32.string key)) (Crc32.to_hex crc)

let store_dir t =
  match t.s_backend with Memory -> invalid_arg "Store: no directory" | Dir d -> d

let payload_path dir key ~crc = Filename.concat dir (payload_file key ~crc)

let manifest_path t = Filename.concat (store_dir t) "manifest"

let checked_line body = Printf.sprintf "%s line=%s" body (Crc32.to_hex (Crc32.string body))

let done_line key ~gen ~bytes ~crc =
  checked_line
    (Printf.sprintf "done %s gen=%d bytes=%d payload=%s" (escape key) gen bytes
       (Crc32.to_hex crc))

let entry_line key (e : entry) =
  done_line key ~gen:e.e_gen ~bytes:(String.length e.e_payload) ~crc:e.e_crc

let gen_line g = checked_line (Printf.sprintf "gen %d" g)

let manifest_text t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf manifest_header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (gen_line t.s_gen);
  Buffer.add_char buf '\n';
  List.iter
    (fun key ->
      Buffer.add_string buf (entry_line key (Hashtbl.find t.s_table key));
      Buffer.add_char buf '\n')
    (List.rev t.s_order);
  List.iter
    (fun l ->
      Buffer.add_string buf
        (done_line l.l_key ~gen:l.l_gen ~bytes:l.l_bytes ~crc:l.l_crc);
      Buffer.add_char buf '\n')
    (List.rev t.s_lost);
  Buffer.contents buf

(* Callers hold [s_mu]. *)
let persist t =
  match t.s_backend with
  | Memory -> ()
  | Dir dir -> write_atomic ~dir (manifest_path t) (manifest_text t)

let drop_lost t key = t.s_lost <- List.filter (fun l -> l.l_key <> key) t.s_lost

(* Installs [payload] under [key]. [crc] must be its CRC-32, taken from
   bytes just written or just verified against it. A new key joins the
   commit order; a lost row for it is retired. Callers hold [s_mu]. *)
let set_entry t key ~payload ~crc ~gen =
  if not (Hashtbl.mem t.s_table key) then t.s_order <- key :: t.s_order;
  Hashtbl.replace t.s_table key { e_payload = payload; e_crc = crc; e_gen = gen };
  drop_lost t key

(* The bytes of [key]'s payload file, if they have the recorded length
   and CRC-32. *)
let read_intact dir key ~bytes ~crc =
  match read_file (payload_path dir key ~crc) with
  | exception Sys_error _ -> None
  | payload when String.length payload = bytes && Crc32.string payload = crc ->
    Some payload
  | _ -> None

(* --- loading (salvage-shaped: stop at the first damaged line) --- *)

exception Torn

(* Splits off and verifies the trailing [line=<crc>] field. *)
let checked_body line =
  match String.rindex_opt line ' ' with
  | None -> raise Torn
  | Some sp ->
    let body = String.sub line 0 sp in
    let tail = String.sub line (sp + 1) (String.length line - sp - 1) in
    (match String.split_on_char '=' tail with
     | [ "line"; hex ] ->
       (match Crc32.of_hex hex with
        | Some crc when Crc32.string body = crc -> body
        | _ -> raise Torn)
     | _ -> raise Torn)

let parse_entry t line =
  let body = checked_body line in
  match String.split_on_char ' ' body with
  | [ "gen"; g ] ->
    (match int_of_string_opt g with
     | Some g when g >= 0 -> t.s_gen <- max t.s_gen g
     | _ -> raise Torn)
  | [ "done"; key; gen; bytes; payload_crc ] ->
    let key = unescape key in
    let gen =
      match String.split_on_char '=' gen with
      | [ "gen"; n ] -> int_of_string_opt n
      | _ -> None
    in
    let bytes =
      match String.split_on_char '=' bytes with
      | [ "bytes"; n ] -> int_of_string_opt n
      | _ -> None
    in
    let pcrc =
      match String.split_on_char '=' payload_crc with
      | [ "payload"; hex ] -> Crc32.of_hex hex
      | _ -> None
    in
    (match (gen, bytes, pcrc) with
     | Some gen, Some bytes, Some pcrc ->
       (* the manifest line is sound; the payload file must still agree
          with it *)
       if not (Hashtbl.mem t.s_table key)
          && not (List.exists (fun l -> l.l_key = key) t.s_lost)
       then begin
         match read_intact (store_dir t) key ~bytes ~crc:pcrc with
         | Some payload -> set_entry t key ~payload ~crc:pcrc ~gen
         | None ->
           t.s_lost <-
             { l_key = key; l_gen = gen; l_bytes = bytes; l_crc = pcrc }
             :: t.s_lost
       end
     | _ -> raise Torn)
  | _ -> raise Torn

let load t =
  (* chaos campaigns kill the loader here to prove a failed resume never
     corrupts the store: the next resume must still salvage (the site
     keeps its historical name from the checkpoint-only days) *)
  Fault.point ~site:"checkpoint.load";
  match read_file (manifest_path t) with
  | exception Sys_error _ -> ()
  | text ->
    (match String.split_on_char '\n' text with
     | header :: lines when header = manifest_header ->
       (try
          List.iter
            (fun line -> if line <> "" then parse_entry t line)
            lines
        with Torn -> ())
     | _ -> ())

(* --- orphan sweep --- *)

(* The write-ahead journal of stores written before the [vprof-store 2]
   manifest; nothing reads it. *)
let retired_journal = "journal"

(* Removes the files of [dir] that [doomed] picks, counting each. On
   open: the [*.tmp] an atomic commit killed before its rename leaves.
   On gc: every [*.out] no row names, and [retired_journal]. *)
let sweep dir doomed =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun n ->
        if doomed n then begin
          (try Sys.remove (Filename.concat dir n) with Sys_error _ -> ());
          Obs.Metrics.incr m_orphans_swept
        end)
      names

(* --- opening --- *)

let create_mem () =
  { s_backend = Memory; s_mu = Mutex.create (); s_table = Hashtbl.create 64;
    s_order = []; s_gen = 0; s_lost = [] }

let open_dir ?(reset = false) dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      raise (Sys_error (dir ^ ": not a directory"))
  end
  else Sys.mkdir dir 0o755;
  let t =
    { s_backend = Dir dir; s_mu = Mutex.create (); s_table = Hashtbl.create 64;
      s_order = []; s_gen = 0; s_lost = [] }
  in
  if reset then persist t
  else begin
    sweep dir (fun n -> Filename.check_suffix n ".tmp");
    load t
  end;
  t

let dir t = match t.s_backend with Memory -> None | Dir d -> Some d

let generation t =
  Mutex.lock t.s_mu;
  let g = t.s_gen in
  Mutex.unlock t.s_mu;
  g

let new_generation t =
  Mutex.lock t.s_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.s_mu)
    (fun () ->
      t.s_gen <- t.s_gen + 1;
      persist t;
      t.s_gen)

(* --- lookups --- *)

let find t name =
  Mutex.lock t.s_mu;
  let r = Hashtbl.find_opt t.s_table name in
  Mutex.unlock t.s_mu;
  Option.map (fun e -> e.e_payload) r

let get t name =
  Obs.Trace.with_span ~cat:"store" "store.get" @@ fun () ->
  match find t name with
  | Some payload ->
    Obs.Metrics.incr m_hits;
    Some payload
  | None ->
    Obs.Metrics.incr m_misses;
    None

(* --- commits --- *)

let put t ~key ~payload =
  if String.contains key '\n' then
    invalid_arg "Store.put: keys may not contain newlines";
  Mutex.lock t.s_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.s_mu)
    (fun () ->
      Obs.Trace.with_span ~cat:"store" "store.commit" @@ fun () ->
      Fault.point ~site:"store.commit";
      Obs.Metrics.add m_bytes_written (String.length payload);
      let crc = Crc32.string payload in
      (match t.s_backend with
       | Memory -> ()
       | Dir dir ->
         Fault.point ~site:"store.payload.write";
         write_atomic ~dir (payload_path dir key ~crc) payload;
         (* a crash from here to the manifest rename leaves the old store;
            new bytes also leave a file no row names, which gc removes *)
         Fault.point ~site:"store.orphan");
      set_entry t key ~payload ~crc ~gen:t.s_gen;
      persist t)

(* --- inspection and gc --- *)

let entries t =
  Mutex.lock t.s_mu;
  let es =
    Hashtbl.fold
      (fun k (e : entry) acc ->
        { i_key = k; i_gen = e.e_gen; i_bytes = String.length e.e_payload }
        :: acc)
      t.s_table []
  in
  Mutex.unlock t.s_mu;
  List.sort (fun a b -> compare a.i_key b.i_key) es

let stats t =
  Mutex.lock t.s_mu;
  let bytes =
    Hashtbl.fold (fun _ e acc -> acc + String.length e.e_payload) t.s_table 0
  in
  let r =
    { st_entries = Hashtbl.length t.s_table; st_bytes = bytes;
      st_generation = t.s_gen; st_lost = List.length t.s_lost }
  in
  Mutex.unlock t.s_mu;
  r

let gc t ~keep =
  Mutex.lock t.s_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.s_mu)
    (fun () ->
      let cutoff = t.s_gen - keep in
      let dead =
        Hashtbl.fold
          (fun k (e : entry) acc -> if e.e_gen <= cutoff then k :: acc else acc)
          t.s_table []
      in
      (* lost rows age out with everything else: gc is how damage that
         was never overwritten finally leaves the manifest *)
      let dead_lost =
        List.filter_map
          (fun l -> if l.l_gen <= cutoff then Some l.l_key else None)
          t.s_lost
      in
      let all_dead = dead @ dead_lost in
      if all_dead <> [] then begin
        List.iter
          (fun k ->
            Hashtbl.remove t.s_table k;
            drop_lost t k)
          all_dead;
        t.s_order <- List.filter (Hashtbl.mem t.s_table) t.s_order;
        persist t
      end;
      (* files go only once no committed row names them, so a crash
         anywhere here leaves files that the next gc removes *)
      (match t.s_backend with
       | Memory -> ()
       | Dir dir ->
         Fault.point ~site:"store.orphan";
         let named = Hashtbl.create 64 in
         Hashtbl.iter
           (fun k (e : entry) ->
             Hashtbl.replace named (payload_file k ~crc:e.e_crc) ())
           t.s_table;
         List.iter
           (fun l -> Hashtbl.replace named (payload_file l.l_key ~crc:l.l_crc) ())
           t.s_lost;
         sweep dir (fun n ->
             (Filename.check_suffix n ".out" && not (Hashtbl.mem named n))
             || n = retired_journal));
      List.length all_dead)

(* --- integrity: verify / scrub --- *)

(* Renames [p] aside to [p.corrupt] — quarantine, never deletion; [true]
   if a file was moved. *)
let quarantine_file p =
  (try Sys.file_exists p with Sys_error _ -> false)
  && (try
        Sys.rename p (p ^ ".corrupt");
        Obs.Metrics.incr m_quarantined;
        true
      with Sys_error _ -> false)

(* The one survey loop under verify and scrub: [`Scrub] also renames
   each bad payload file aside. Callers hold [s_mu]. *)
let survey t mode =
  match t.s_backend with
  | Memory ->
    { c_entries = Hashtbl.length t.s_table;
      c_copies_ok = Hashtbl.length t.s_table; c_copies_bad = 0;
      c_quarantined = 0; c_lost = 0 }
  | Dir dir ->
    let ok = ref 0 and bad = ref 0 and quarantined = ref 0 in
    let quarantine key ~crc =
      if mode = `Scrub && quarantine_file (payload_path dir key ~crc) then
        incr quarantined
    in
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.s_table key with
        | None -> ()
        | Some e ->
          let copy_ok =
            Profile_io.structurally_sound e.e_payload
            && (match read_file (payload_path dir key ~crc:e.e_crc) with
                | exception Sys_error _ -> false
                | bytes -> bytes = e.e_payload)
          in
          if copy_ok then incr ok
          else begin
            incr bad;
            quarantine key ~crc:e.e_crc
          end)
      (List.rev t.s_order);
    (* lost rows have no valid bytes anywhere; scrub still moves the
       wreckage aside *)
    List.iter (fun l -> quarantine l.l_key ~crc:l.l_crc) t.s_lost;
    { c_entries = Hashtbl.length t.s_table; c_copies_ok = !ok;
      c_copies_bad = !bad; c_quarantined = !quarantined;
      c_lost = List.length t.s_lost }

let with_survey t name mode =
  Obs.Trace.with_span ~cat:"store" name @@ fun () ->
  Mutex.lock t.s_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.s_mu) (fun () -> survey t mode)

let verify t = with_survey t "store.verify" `Verify
let scrub t = with_survey t "store.scrub" `Scrub

(* --- profile entries --- *)

let put_profile t ~key p = put t ~key ~payload:(Profile_io.to_binary p)

(* Drops [key] from the live table (the caller will recompute) and, on
   disk, quarantines its payload so the poisoned bytes are never re-read
   — but never deleted. Holds [s_mu]. *)
let quarantine_entry t key =
  Mutex.lock t.s_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.s_mu)
    (fun () ->
      match Hashtbl.find_opt t.s_table key with
      | None -> ()
      | Some e ->
        Hashtbl.remove t.s_table key;
        t.s_order <- List.filter (Hashtbl.mem t.s_table) t.s_order;
        (match t.s_backend with
         | Memory -> ()
         | Dir dir ->
           ignore (quarantine_file (payload_path dir key ~crc:e.e_crc));
           persist t))

let get_profile t ~program ~key =
  match get t key with
  | None -> None
  | Some payload ->
    (match Profile_io.of_string ~program payload with
     | p -> Some p
     | exception Failure _ ->
       (* quarantine the poisoned file and report a miss, so the caller
          recomputes and the next put overwrites *)
       Obs.Metrics.incr m_decode_failures;
       quarantine_entry t key;
       None)
