let manifest_header = "vprof-store 1"

let m_hits = Obs.Metrics.counter "store.hits"
let m_misses = Obs.Metrics.counter "store.misses"
let m_bytes_written = Obs.Metrics.counter "store.bytes_written"
let m_decode_failures = Obs.Metrics.counter "store.decode_failures"
let m_orphans_swept = Obs.Metrics.counter "store.orphans_swept"
let m_quarantined = Obs.Metrics.counter "store.quarantined"
let m_read_repairs = Obs.Metrics.counter "store.read_repairs"
let m_repaired = Obs.Metrics.counter "store.repaired"
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
type entry = {
  e_payload : string;
  e_crc : int;
  e_gen : int;
  (* some on-disk copy of this entry is missing or corrupt; the next
     [get] heals it (read-repair), as do [repair] and recovery *)
  mutable e_degraded : bool;
}

(* A manifest row whose payload survives in no copy tree: the key stays
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
  mutable s_copies : int; (* copy trees including the primary; >= 1 *)
  mutable s_lost : lost list;
}

type info = { i_key : string; i_gen : int; i_bytes : int }

type stats = {
  st_entries : int;
  st_bytes : int;
  st_generation : int;
  st_replicas : int;
  st_lost : int;
}

type check = {
  c_entries : int;
  c_copies_ok : int;
  c_copies_bad : int;
  c_quarantined : int;
  c_repaired : int;
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

(* Copy tree [0] is the store directory itself; trees [1..] are sibling
   subdirectories [replica1..replicaN] mirroring its payload files. *)
let copy_dir dir i =
  if i = 0 then dir else Filename.concat dir (Printf.sprintf "replica%d" i)

let payload_path dir i key = Filename.concat (copy_dir dir i) (payload_file key)

let ensure_dir d =
  if not (Sys.file_exists d) then (try Sys.mkdir d 0o755 with Sys_error _ -> ())

let manifest_path t = Filename.concat (store_dir t) "manifest"

let checked_line body = Printf.sprintf "%s line=%s" body (Crc32.to_hex (Crc32.string body))

let done_line key ~gen ~bytes ~crc =
  checked_line
    (Printf.sprintf "done %s gen=%d bytes=%d payload=%s" (escape key) gen bytes
       (Crc32.to_hex crc))

let entry_line key (e : entry) =
  done_line key ~gen:e.e_gen ~bytes:(String.length e.e_payload) ~crc:e.e_crc

let gen_line g = checked_line (Printf.sprintf "gen %d" g)
let replicas_line m = checked_line (Printf.sprintf "replicas %d" m)

let manifest_text t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf manifest_header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (gen_line t.s_gen);
  Buffer.add_char buf '\n';
  if t.s_copies > 1 then begin
    Buffer.add_string buf (replicas_line (t.s_copies - 1));
    Buffer.add_char buf '\n'
  end;
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

(* Writes [payload] into every copy tree whose current bytes differ —
   the one healing primitive behind read-repair, [repair], replica
   growth, and journal roll-forward. Callers hold [s_mu]. *)
let heal_copies dir key payload copies =
  let healed = ref 0 in
  for i = 0 to copies - 1 do
    let p = payload_path dir i key in
    let ok =
      match read_file p with
      | exception Sys_error _ -> false
      | bytes -> bytes = payload
    in
    if not ok then begin
      let d = copy_dir dir i in
      ensure_dir d;
      write_atomic ~dir:d p payload;
      incr healed
    end
  done;
  !healed

let drop_lost t key = t.s_lost <- List.filter (fun l -> l.l_key <> key) t.s_lost

(* Installs [payload] under [key]. [crc] must be its CRC-32, taken from
   bytes just written or just verified against it. A new key joins the
   commit order; a lost row for it is retired. Callers hold [s_mu]. *)
let set_entry t key ~payload ~crc ~gen ~degraded =
  if not (Hashtbl.mem t.s_table key) then t.s_order <- key :: t.s_order;
  Hashtbl.replace t.s_table key
    { e_payload = payload; e_crc = crc; e_gen = gen; e_degraded = degraded };
  drop_lost t key

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
  | [ "replicas"; m ] ->
    (match int_of_string_opt m with
     | Some m when m >= 0 -> t.s_copies <- max t.s_copies (m + 1)
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
       (* the manifest line is sound; the payload must still agree with
          it in some copy tree, primary first — serving a replica's bytes
          flags the entry degraded so the next [get] read-repairs *)
       if not (Hashtbl.mem t.s_table key)
          && not (List.exists (fun l -> l.l_key = key) t.s_lost)
       then begin
         let dir = store_dir t in
         let rec scan i =
           if i >= t.s_copies then None
           else
             match read_file (payload_path dir i key) with
             | exception Sys_error _ -> scan (i + 1)
             | payload
               when String.length payload = bytes && Crc32.string payload = pcrc
               -> Some (i, payload)
             | _ -> scan (i + 1)
         in
         match scan 0 with
         | Some (i, payload) ->
           set_entry t key ~payload ~crc:pcrc ~gen ~degraded:(i > 0)
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
  let sweep_tree d =
    match Sys.readdir d with
    | exception Sys_error _ -> ()
    | names ->
      Array.iter
        (fun n ->
          if Filename.check_suffix n ".tmp" then begin
            (try Sys.remove (Filename.concat d n) with Sys_error _ -> ());
            Obs.Metrics.incr m_orphans_swept
          end)
        names
  in
  sweep_tree dir;
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun n ->
        if String.length n > 7 && String.sub n 0 7 = "replica" then begin
          let p = Filename.concat dir n in
          if (try Sys.is_directory p with Sys_error _ -> false) then
            sweep_tree p
        end)
      names

(* --- crash recovery --- *)

(* Replays the write-ahead journal left by a crashed invocation. Each
   pending intent rolls {e forward} when its mutation's bytes survived in
   some copy tree (heal every copy, reinstate the entry) or {e back} when
   they did not (the mutation never became durable; the loaded state is
   already the pre-mutation one). Every step is idempotent, so dying
   mid-recovery just replays on the next open. *)
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
            let rec scan i =
              if i >= t.s_copies then None
              else
                match read_file (payload_path dir i key) with
                | exception Sys_error _ -> scan (i + 1)
                | b when String.length b = bytes && Crc32.string b = crc ->
                  Some b
                | _ -> scan (i + 1)
            in
            (match scan 0 with
             | Some payload ->
               ignore (heal_copies dir key payload t.s_copies);
               set_entry t key ~payload ~crc ~gen ~degraded:false;
               Obs.Metrics.incr m_recovered
             | None ->
               (* no copy holds the intended bytes: the put died before
                  anything durable existed, so there is nothing to undo *)
               Obs.Metrics.incr m_rolled_back)
          | Journal.Gc keys ->
            List.iter
              (fun k ->
                Hashtbl.remove t.s_table k;
                drop_lost t k;
                for i = 0 to t.s_copies - 1 do
                  try Sys.remove (payload_path dir i k) with Sys_error _ -> ()
                done)
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
    s_order = []; s_gen = 0; s_copies = 1; s_lost = [] }

let open_dir ?(reset = false) ?replicas dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      raise (Sys_error (dir ^ ": not a directory"))
  end
  else Sys.mkdir dir 0o755;
  let t =
    { s_backend = Dir dir; s_mu = Mutex.create (); s_table = Hashtbl.create 64;
      s_order = []; s_gen = 0; s_copies = 1; s_lost = [] }
  in
  if reset then begin
    (match replicas with
     | Some r when r > 0 -> t.s_copies <- r + 1
     | _ -> ());
    Journal.reset ~dir;
    persist t
  end
  else begin
    sweep_orphans dir;
    load t;
    recover t;
    (* growing the mirror count mirrors every live entry into the new
       trees now, so a fresh replica is immediately a full copy;
       shrinking is never implicit — extra trees are simply kept *)
    match replicas with
    | Some r when r + 1 > t.s_copies ->
      t.s_copies <- r + 1;
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.s_table key with
          | None -> ()
          | Some e -> ignore (heal_copies dir key e.e_payload t.s_copies))
        t.s_order;
      persist t
    | _ -> ()
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
  Mutex.lock t.s_mu;
  let r = Hashtbl.find_opt t.s_table name in
  (* read-repair: a hit on an entry loaded from a replica (or flagged by
     scrub) rewrites every stale copy with the known-good bytes *)
  (match (r, t.s_backend) with
   | Some e, Dir dir when e.e_degraded ->
     (try
        ignore (heal_copies dir name e.e_payload t.s_copies);
        e.e_degraded <- false;
        Obs.Metrics.incr m_read_repairs
      with Sys_error _ -> ())
   | _ -> ());
  let payload = Option.map (fun e -> e.e_payload) r in
  Mutex.unlock t.s_mu;
  match payload with
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
         (* the disk guard charges every copy before writing any, so a
            governed run stops committing the moment the budget is blown *)
         Budget.charge_disk ~bytes:(String.length payload * t.s_copies);
         (* intent first: a crash anywhere past this line is replayed or
            rolled back on the next open from the journal record *)
         Journal.append_intent ~dir
           (Journal.Put
              { key; gen = t.s_gen; bytes = String.length payload; crc });
         for i = 0 to t.s_copies - 1 do
           Fault.point ~site:"store.payload.write";
           let d = copy_dir dir i in
           ensure_dir d;
           write_atomic ~dir:d (payload_path dir i key) payload
         done);
      set_entry t key ~payload ~crc ~gen:t.s_gen ~degraded:false;
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
      st_generation = t.s_gen; st_replicas = t.s_copies - 1;
      st_lost = List.length t.s_lost }
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
         was never repaired finally leaves the manifest *)
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
              for i = 0 to t.s_copies - 1 do
                try Sys.remove (payload_path dir i k) with Sys_error _ -> ()
              done)
          all_dead;
        t.s_order <- List.filter (Hashtbl.mem t.s_table) t.s_order;
        persist t;
        match t.s_backend with
        | Memory -> ()
        | Dir dir -> Journal.append_commit ~dir
      end;
      List.length all_dead)

(* --- integrity: verify / scrub / repair --- *)

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

(* The one survey loop under verify/scrub/repair. [mode] decides what to
   do with a bad copy: nothing (verify), rename it aside (scrub), or
   rewrite it from the in-memory bytes (repair) — which are the
   healthiest copy by construction: load already chose the first tree
   whose bytes matched the manifest checksum. Callers hold [s_mu]. *)
let survey t mode =
  match t.s_backend with
  | Memory ->
    { c_entries = Hashtbl.length t.s_table;
      c_copies_ok = Hashtbl.length t.s_table; c_copies_bad = 0;
      c_quarantined = 0; c_repaired = 0; c_lost = 0 }
  | Dir dir ->
    let ok = ref 0 and bad = ref 0 and quarantined = ref 0 and fixed = ref 0 in
    let quarantine p =
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
          let sound = structurally_sound e.e_payload in
          let entry_healed = ref true in
          for i = 0 to t.s_copies - 1 do
            let p = payload_path dir i key in
            let copy_ok =
              sound
              && (match read_file p with
                  | exception Sys_error _ -> false
                  | bytes -> bytes = e.e_payload)
            in
            if copy_ok then incr ok
            else begin
              incr bad;
              match mode with
              | `Verify -> entry_healed := false
              | `Scrub ->
                quarantine p;
                entry_healed := false
              | `Repair ->
                if sound then begin
                  let d = copy_dir dir i in
                  ensure_dir d;
                  write_atomic ~dir:d p e.e_payload;
                  incr fixed;
                  Obs.Metrics.incr m_repaired
                end
                else begin
                  quarantine p;
                  entry_healed := false
                end
            end
          done;
          (* scrub moved the bad copies aside and repair rewrote them;
             either way the degraded flag tracks what is on disk now *)
          if !entry_healed && mode = `Repair then e.e_degraded <- false
          else if not !entry_healed then e.e_degraded <- true)
      (List.rev t.s_order);
    (* lost rows: no tree holds valid bytes, so there is nothing to
       restore from — scrub still moves the wreckage aside *)
    List.iter
      (fun l ->
        if mode = `Scrub || mode = `Repair then
          for i = 0 to t.s_copies - 1 do
            quarantine (payload_path dir i l.l_key)
          done)
      t.s_lost;
    { c_entries = Hashtbl.length t.s_table; c_copies_ok = !ok;
      c_copies_bad = !bad; c_quarantined = !quarantined; c_repaired = !fixed;
      c_lost = List.length t.s_lost }

let with_survey t name mode =
  Obs.Trace.with_span ~cat:"store" name @@ fun () ->
  Mutex.lock t.s_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.s_mu) (fun () -> survey t mode)

let verify t = with_survey t "store.verify" `Verify
let scrub t = with_survey t "store.scrub" `Scrub
let repair t = with_survey t "store.repair" `Repair

(* --- profile entries --- *)

let put_profile t ~key p = put t ~key ~payload:(Profile_io.to_binary p)

(* Drops [key] from the live table (the caller will recompute) and, on
   disk, quarantines every copy of its payload so the poisoned bytes are
   never re-read — but never deleted. Holds [s_mu]. *)
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
        for i = 0 to t.s_copies - 1 do
          let p = payload_path dir i key in
          if (try Sys.file_exists p with Sys_error _ -> false) then
            try
              Sys.rename p (p ^ ".corrupt");
              Obs.Metrics.incr m_quarantined
            with Sys_error _ -> ()
        done;
        persist t)

(* When the in-memory bytes fail decode, some mirror may still hold an
   older-but-decodable copy (post-load bit-rot healed by a put that died
   half-way never reaches here; this is the defense against a payload
   that passed its CRC yet does not parse). *)
let recover_from_mirror t ~program ~key =
  match t.s_backend with
  | Memory -> None
  | Dir dir ->
    Mutex.lock t.s_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.s_mu)
      (fun () ->
        match Hashtbl.find_opt t.s_table key with
        | None -> None
        | Some e ->
          let rec scan i =
            if i >= t.s_copies then None
            else
              match read_file (payload_path dir i key) with
              | exception Sys_error _ -> scan (i + 1)
              | bytes when bytes = e.e_payload -> scan (i + 1)
              | bytes ->
                (match Profile_io.of_string ~program bytes with
                 | p -> Some (bytes, p)
                 | exception Failure _ -> scan (i + 1))
          in
          (match scan 0 with
           | None -> None
           | Some (bytes, p) ->
             set_entry t key ~payload:bytes ~crc:(Crc32.string bytes)
               ~gen:e.e_gen ~degraded:false;
             ignore (heal_copies dir key bytes t.s_copies);
             persist t;
             Obs.Metrics.incr m_read_repairs;
             Some p))

let get_profile t ~program ~key =
  match get t key with
  | None -> None
  | Some payload ->
    (match Profile_io.of_string ~program payload with
     | p -> Some p
     | exception Failure _ ->
       Obs.Metrics.incr m_decode_failures;
       (match recover_from_mirror t ~program ~key with
        | Some p -> Some p
        | None ->
          (* no copy decodes: quarantine the poisoned files and report a
             miss, so the caller recomputes and the next put overwrites *)
          quarantine_entry t key;
          None))
