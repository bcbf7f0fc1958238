let manifest_header = "vprof-store 1"

let m_hits = Obs.Metrics.counter "store.hits"
let m_misses = Obs.Metrics.counter "store.misses"
let m_bytes_written = Obs.Metrics.counter "store.bytes_written"
let m_decode_failures = Obs.Metrics.counter "store.decode_failures"
let m_orphans_swept = Obs.Metrics.counter "store.orphans_swept"
let m_quarantined = Obs.Metrics.counter "store.quarantined"
let m_recovered = Obs.Metrics.counter "journal.recovered"
let m_rolled_back = Obs.Metrics.counter "journal.rolled_back"

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

(* Payload file name: a readable sanitized stem plus the crc of the raw
   key, so distinct keys can never collide after sanitization. *)
let payload_file name =
  let stem =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
        | _ -> '_')
      name
  in
  Printf.sprintf "%s-%s.out" stem (Crc32.to_hex (Crc32.string name))

let store_dir t =
  match t.s_backend with Memory -> invalid_arg "Store: no directory" | Dir d -> d

let payload_path dir key = Filename.concat dir (payload_file key)

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
  match read_file (payload_path dir key) with
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

(* Atomic commits that died between temp-file creation and [rename] leave
   a [*.tmp] behind; swept on open so they cannot accumulate forever. *)
let sweep_orphans dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun n ->
        if Filename.check_suffix n ".tmp" then begin
          (try Sys.remove (Filename.concat dir n) with Sys_error _ -> ());
          Obs.Metrics.incr m_orphans_swept
        end)
      names

(* --- crash recovery --- *)

(* Replays the write-ahead journal left by a crashed invocation. Each
   pending intent rolls {e forward} when its mutation's bytes survived
   (reinstate the entry) or {e back} when they did not (the mutation
   never became durable; the loaded state is already the pre-mutation
   one). Every step is idempotent, so dying mid-recovery just replays on
   the next open. *)
let recover t =
  match t.s_backend with
  | Memory -> ()
  | Dir dir ->
    let pend = Journal.pending ~dir in
    if pend <> [] then begin
      List.iter
        (fun op ->
          match op with
          | Journal.Put { key; gen; bytes; crc } ->
            (match read_intact dir key ~bytes ~crc with
             | Some payload ->
               set_entry t key ~payload ~crc ~gen;
               Obs.Metrics.incr m_recovered
             | None ->
               (* the file does not hold the intended bytes: the put died
                  before anything durable existed, so there is nothing to
                  undo *)
               Obs.Metrics.incr m_rolled_back)
          | Journal.Gc keys ->
            List.iter
              (fun k ->
                Hashtbl.remove t.s_table k;
                drop_lost t k;
                try Sys.remove (payload_path dir k) with Sys_error _ -> ())
              keys;
            t.s_order <- List.filter (Hashtbl.mem t.s_table) t.s_order;
            Obs.Metrics.incr m_recovered
          | Journal.Generation g ->
            t.s_gen <- max t.s_gen g;
            Obs.Metrics.incr m_recovered)
        pend;
      persist t
    end;
    Journal.reset ~dir

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
  if reset then begin
    Journal.reset ~dir;
    persist t
  end
  else begin
    sweep_orphans dir;
    load t;
    recover t
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
      (match t.s_backend with
       | Memory -> ()
       | Dir dir -> Journal.append_intent ~dir (Journal.Generation t.s_gen));
      persist t;
      (match t.s_backend with
       | Memory -> ()
       | Dir dir -> Journal.append_commit ~dir);
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
         (* intent first: a crash anywhere past this line is replayed or
            rolled back on the next open from the journal record *)
         Journal.append_intent ~dir
           (Journal.Put
              { key; gen = t.s_gen; bytes = String.length payload; crc });
         Fault.point ~site:"store.payload.write";
         write_atomic ~dir (payload_path dir key) payload);
      set_entry t key ~payload ~crc ~gen:t.s_gen;
      persist t;
      match t.s_backend with
      | Memory -> ()
      | Dir dir -> Journal.append_commit ~dir)

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
        (match t.s_backend with
         | Memory -> ()
         | Dir dir -> Journal.append_intent ~dir (Journal.Gc all_dead));
        List.iter
          (fun k ->
            Hashtbl.remove t.s_table k;
            drop_lost t k;
            match t.s_backend with
            | Memory -> ()
            | Dir dir ->
              (try Sys.remove (payload_path dir k) with Sys_error _ -> ()))
          all_dead;
        t.s_order <- List.filter (Hashtbl.mem t.s_table) t.s_order;
        persist t;
        match t.s_backend with
        | Memory -> ()
        | Dir dir -> Journal.append_commit ~dir
      end;
      List.length all_dead)

(* --- integrity: verify / scrub --- *)

(* A v3-framed payload gets its sections walked (every section carries
   its own CRC-32); anything else is opaque bytes whose integrity is the
   manifest checksum alone. *)
let structurally_sound payload =
  let magic = Profile_io.binary_magic in
  let mlen = String.length magic in
  if String.length payload < mlen || String.sub payload 0 mlen <> magic then
    true
  else begin
    let r = Codec.reader ~pos:mlen payload in
    try
      ignore (Codec.read_uvarint r);
      while not (Codec.at_end r) do
        ignore (Codec.read_section r)
      done;
      true
    with Codec.Error _ -> false
  end

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
    let quarantine key =
      if mode = `Scrub then
        let p = payload_path dir key in
        if (try Sys.file_exists p with Sys_error _ -> false) then
          try
            Sys.rename p (p ^ ".corrupt");
            incr quarantined;
            Obs.Metrics.incr m_quarantined
          with Sys_error _ -> ()
    in
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.s_table key with
        | None -> ()
        | Some e ->
          let copy_ok =
            structurally_sound e.e_payload
            && (match read_file (payload_path dir key) with
                | exception Sys_error _ -> false
                | bytes -> bytes = e.e_payload)
          in
          if copy_ok then incr ok
          else begin
            incr bad;
            quarantine key
          end)
      (List.rev t.s_order);
    (* lost rows have no valid bytes anywhere; scrub still moves the
       wreckage aside *)
    List.iter (fun l -> quarantine l.l_key) t.s_lost;
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
      Hashtbl.remove t.s_table key;
      t.s_order <- List.filter (Hashtbl.mem t.s_table) t.s_order;
      match t.s_backend with
      | Memory -> ()
      | Dir dir ->
        let p = payload_path dir key in
        (if (try Sys.file_exists p with Sys_error _ -> false) then
           try
             Sys.rename p (p ^ ".corrupt");
             Obs.Metrics.incr m_quarantined
           with Sys_error _ -> ());
        persist t)

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
