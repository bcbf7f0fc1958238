let version = 2
let binary_version = 3

(* A 0x89 first byte can never start the text header, so [of_string] can
   sniff the format from the first four bytes alone. *)
let binary_magic = "\x89VP3"

let m_reads = Obs.Metrics.counter "profile_io.reads"
let m_writes = Obs.Metrics.counter "profile_io.writes"
let m_salvaged = Obs.Metrics.counter "profile_io.salvaged_lines"

let float_to_string f = Printf.sprintf "%.17g" f

let body_to_string (p : Profile.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "vprof-profile %d\n" version);
  Buffer.add_string buf
    (Printf.sprintf "meta instrumented=%d events=%d dynamic=%d\n"
       p.instrumented p.profiled_events p.dynamic_instructions);
  Array.iter
    (fun (pt : Profile.point) ->
      let m = pt.p_metrics in
      if String.contains pt.p_proc ' ' then
        invalid_arg "Profile_io: procedure names may not contain spaces";
      Buffer.add_string buf
        (Printf.sprintf
           "point pc=%d proc=%s total=%d lvp=%s invtop=%s invall=%s zero=%s \
            distinct=%d saturated=%d stridetop=%s stride=%s\n"
           pt.p_pc
           (if pt.p_proc = "" then "-" else pt.p_proc)
           m.Metrics.total
           (float_to_string m.Metrics.lvp)
           (float_to_string m.Metrics.inv_top)
           (float_to_string m.Metrics.inv_all)
           (float_to_string m.Metrics.zero)
           m.Metrics.distinct
           (if m.Metrics.distinct_saturated then 1 else 0)
           (float_to_string m.Metrics.stride_top)
           (match m.Metrics.top_stride with
            | None -> "none"
            | Some s -> Int64.to_string s));
      Array.iter
        (fun (v, c) -> Buffer.add_string buf (Printf.sprintf "tv %Ld %d\n" v c))
        m.Metrics.top_values)
    p.points;
  Buffer.contents buf

(* v2 = the text body under a trailing [crc32 <hex>\n] over every preceding
   byte, so truncation and corruption are detected instead of silently
   parsing as a shorter profile. *)
let to_string p =
  let body = body_to_string p in
  body ^ Printf.sprintf "crc32 %s\n" (Crc32.to_hex (Crc32.string body))

(* --- binary v3 --- *)

(* Section tags. A v3 file is [magic · uvarint version · sections], where
   each section is framed by {!Codec.put_section} (tag, uvarint length,
   payload, payload CRC-32): one 'M', one 'S', one 'P' per point, and a
   final 'E' whose payload is the CRC-32 of every preceding file byte. *)
let tag_meta = 'M'
let tag_strtab = 'S'
let tag_point = 'P'
let tag_end = 'E'

let to_binary (p : Profile.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf binary_magic;
  Codec.put_uvarint buf binary_version;
  let meta = Buffer.create 16 in
  Codec.put_uvarint meta p.instrumented;
  Codec.put_uvarint meta p.profiled_events;
  Codec.put_uvarint meta p.dynamic_instructions;
  Codec.put_uvarint meta (Array.length p.points);
  Codec.put_section buf ~tag:tag_meta (Buffer.contents meta);
  let strtab = Codec.Strtab.create () in
  let proc_idx =
    Array.map (fun (pt : Profile.point) -> Codec.Strtab.intern strtab pt.p_proc)
      p.points
  in
  Codec.put_section buf ~tag:tag_strtab (Codec.Strtab.encode strtab);
  Array.iteri
    (fun i (pt : Profile.point) ->
      let m = pt.p_metrics in
      let pb = Buffer.create 64 in
      Codec.put_uvarint pb pt.p_pc;
      Codec.put_uvarint pb proc_idx.(i);
      Codec.put_uvarint pb m.Metrics.total;
      Codec.put_f64 pb m.Metrics.lvp;
      Codec.put_f64 pb m.Metrics.inv_top;
      Codec.put_f64 pb m.Metrics.inv_all;
      Codec.put_f64 pb m.Metrics.zero;
      Codec.put_uvarint pb m.Metrics.distinct;
      Buffer.add_char pb (if m.Metrics.distinct_saturated then '\001' else '\000');
      Codec.put_f64 pb m.Metrics.stride_top;
      (match m.Metrics.top_stride with
       | None -> Buffer.add_char pb '\000'
       | Some s ->
         Buffer.add_char pb '\001';
         Codec.put_varint64 pb s);
      Codec.put_uvarint pb (Array.length m.Metrics.top_values);
      Array.iter
        (fun (v, c) ->
          Codec.put_varint64 pb v;
          Codec.put_uvarint pb c)
        m.Metrics.top_values;
      Codec.put_section buf ~tag:tag_point (Buffer.contents pb))
    p.points;
  let body = Buffer.contents buf in
  let trailer = Buffer.create 4 in
  Codec.put_u32 trailer (Crc32.string body);
  Codec.put_section buf ~tag:tag_end (Buffer.contents trailer);
  Buffer.contents buf

let is_binary text =
  String.length text >= String.length binary_magic
  && String.sub text 0 (String.length binary_magic) = binary_magic

let fail_at off msg = failwith (Printf.sprintf "Profile_io: byte %d: %s" off msg)

(* Decode one 'P' payload, validating against [program] exactly like the
   text parser: in-range value-producing pc, non-negative counts (uvarints
   cannot be negative), no NaN metrics. *)
let decode_point ~(program : Asm.program) ~off ~(procs : string array) payload =
  let r = Codec.reader payload in
  let f64_checked key =
    let v = Codec.read_f64 r in
    if Float.is_nan v then fail_at off (Printf.sprintf "field %s is NaN" key);
    v
  in
  let pc = Codec.read_uvarint r in
  if pc < 0 || pc >= Array.length program.code then
    fail_at off (Printf.sprintf "pc %d outside the program" pc);
  let instr = program.code.(pc) in
  if Isa.dest_reg instr = None then
    fail_at off (Printf.sprintf "pc %d is not a value-producing instruction" pc);
  let proc_i = Codec.read_uvarint r in
  if proc_i >= Array.length procs then
    fail_at off (Printf.sprintf "proc index %d outside the string table" proc_i);
  let total = Codec.read_uvarint r in
  let lvp = f64_checked "lvp" in
  let inv_top = f64_checked "invtop" in
  let inv_all = f64_checked "invall" in
  let zero = f64_checked "zero" in
  let distinct = Codec.read_uvarint r in
  let distinct_saturated = Codec.read_byte r <> 0 in
  let stride_top = f64_checked "stridetop" in
  let top_stride =
    match Codec.read_byte r with
    | 0 -> None
    | 1 -> Some (Codec.read_varint64 r)
    | _ -> fail_at off "malformed stride option tag"
  in
  let ntv = Codec.read_uvarint r in
  if ntv > String.length payload then fail_at off "tv count exceeds section";
  let top_values =
    Array.init ntv (fun _ ->
        let v = Codec.read_varint64 r in
        let c = Codec.read_uvarint r in
        (v, c))
  in
  if not (Codec.at_end r) then fail_at off "trailing bytes in point section";
  { Profile.p_pc = pc;
    p_instr = instr;
    p_proc = procs.(proc_i);
    p_metrics =
      { Metrics.total; lvp; inv_top; inv_all; zero; distinct;
        distinct_saturated; top_values; stride_top; top_stride } }

exception Stop_salvage

let of_binary ?(salvage = false) ~(program : Asm.program) text =
  let r = Codec.reader ~pos:(String.length binary_magic) text in
  let meta = ref None in
  let procs = ref None in
  let points_rev = ref [] in
  let finished = ref false in
  let sections_kept = ref 0 in
  let decode_section () =
    let section_off = Codec.pos r in
    let tag, payload = Codec.read_section r in
    if tag = tag_end then begin
      (* trailer: whole-file CRC over every byte before this section *)
      let tr = Codec.reader payload in
      let crc = Codec.read_u32 tr in
      if crc <> Crc32.sub text 0 section_off then
        fail_at section_off "file checksum mismatch (truncated or corrupted)";
      if not (Codec.at_end r) then
        fail_at (Codec.pos r) "bytes after the end section";
      finished := true
    end
    else if tag = tag_meta then begin
      if !meta <> None then fail_at section_off "duplicate meta section";
      let mr = Codec.reader payload in
      let instrumented = Codec.read_uvarint mr in
      let profiled_events = Codec.read_uvarint mr in
      let dynamic_instructions = Codec.read_uvarint mr in
      let _point_count = Codec.read_uvarint mr in
      meta := Some (instrumented, profiled_events, dynamic_instructions)
    end
    else if tag = tag_strtab then begin
      if !meta = None then fail_at section_off "string table before meta";
      procs := Some (Codec.Strtab.decode (Codec.reader payload))
    end
    else if tag = tag_point then begin
      match !procs with
      | None -> fail_at section_off "point section before the string table"
      | Some procs ->
        points_rev :=
          decode_point ~program ~off:section_off ~procs payload :: !points_rev
    end
    else fail_at section_off (Printf.sprintf "unknown section tag %C" tag)
  in
  (try
     let vers = Codec.read_uvarint r in
     if vers <> binary_version then
       fail_at 0 (Printf.sprintf "unsupported binary version %d" vers);
     while (not !finished) && not (Codec.at_end r) do
       if salvage then begin
         (* keep every whole, checksum-valid section before the first bad
            one: a torn write truncates, it does not scramble what came
            before *)
         (try decode_section ()
          with Failure _ | Codec.Error _ -> raise Stop_salvage);
         incr sections_kept
       end
       else decode_section ()
     done;
     if (not salvage) && not !finished then
       fail_at (Codec.pos r) "missing end section (truncated?)"
   with
  | Stop_salvage -> Obs.Metrics.add m_salvaged !sections_kept
  | Codec.Error (off, msg) -> fail_at off msg);
  match !meta with
  | None -> failwith "Profile_io: missing meta section"
  | Some (instrumented, profiled_events, dynamic_instructions) ->
    { Profile.points = Array.of_list (List.rev !points_rev);
      instrumented;
      profiled_events;
      dynamic_instructions;
      stats = Counters.create () }

let write_file ?(format = `Binary) p path =
  Obs.Trace.with_span ~cat:"io" "profile_io.write" @@ fun () ->
  Obs.Metrics.incr m_writes;
  let s = match format with `Binary -> to_binary p | `Text -> to_string p in
  match Fault.cut ~site:"profile_io.write" with
  | Some n ->
    (* injected torn write: emulate a pre-v2 in-place writer dying
       mid-[output_string] — the destination is left truncated at byte
       [n] and the writer crashes. The atomic path below can never
       produce this; the fault exists so salvage/checksum handling is
       testable end-to-end. *)
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (String.sub s 0 (min n (String.length s))));
    raise (Fault.Injected "profile_io.write")
  | None ->
    (* temp-file + rename commit: a crash at any point leaves either the
       old file or the new one, never a torn mix *)
    let dir = Filename.dirname path in
    let tmp, oc =
      Filename.open_temp_file ~temp_dir:dir
        ~mode:[ Open_binary ]
        (Filename.basename path) ".tmp"
    in
    (try
       Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s);
       Sys.rename tmp path
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e)

(* --- text parsing --- *)

type parse_state = {
  mutable meta : (int * int * int) option;
  mutable points_rev : Profile.point list;
  mutable pending_tvs : (int64 * int) list; (* reversed, for current point *)
  mutable current : Profile.point option;
}

let fail line_no msg = failwith (Printf.sprintf "Profile_io: line %d: %s" line_no msg)

let field line_no line key =
  let prefix = key ^ "=" in
  let tokens = String.split_on_char ' ' line in
  match
    List.find_opt (fun t -> String.length t > String.length prefix
                            && String.sub t 0 (String.length prefix) = prefix)
      tokens
  with
  | Some t ->
    String.sub t (String.length prefix) (String.length t - String.length prefix)
  | None -> fail line_no (Printf.sprintf "missing field %s" key)

let int_field line_no line key =
  match int_of_string_opt (field line_no line key) with
  | Some v -> v
  | None -> fail line_no (Printf.sprintf "field %s is not an integer" key)

(* Counts (executions, distinct values, tv occurrence counts, meta totals)
   can never be negative; a negative one means the file is corrupt, and
   building a profile from it would poison every downstream ratio. *)
let count_field line_no line key =
  let v = int_field line_no line key in
  if v < 0 then fail line_no (Printf.sprintf "field %s is negative (%d)" key v);
  v

let float_field line_no line key =
  match float_of_string_opt (field line_no line key) with
  | Some v ->
    if Float.is_nan v then fail line_no (Printf.sprintf "field %s is NaN" key);
    v
  | None -> fail line_no (Printf.sprintf "field %s is not a float" key)

let flush_current st =
  match st.current with
  | None -> ()
  | Some pt ->
    let top_values = Array.of_list (List.rev st.pending_tvs) in
    let pt =
      { pt with Profile.p_metrics = { pt.p_metrics with Metrics.top_values } }
    in
    st.points_rev <- pt :: st.points_rev;
    st.pending_tvs <- [];
    st.current <- None

(* A well-formed v2 text ends with "crc32 <8 hex>\n" checksumming every
   byte before that line. [None] when there is no trailing crc line. *)
let split_trailer text =
  let len = String.length text in
  let line_start =
    match String.rindex_opt (String.sub text 0 (max 0 (len - 1))) '\n' with
    | Some i -> i + 1
    | None -> 0
  in
  let last = String.sub text line_start (len - line_start) in
  match String.split_on_char ' ' (String.trim last) with
  | [ "crc32"; hex ] ->
    (match Crc32.of_hex hex with
     | Some crc -> Some (String.sub text 0 line_start, crc)
     | None -> None)
  | _ -> None

let of_text ?(salvage = false) ~(program : Asm.program) text =
  (* Version sniff first: v2 files must checksum-verify before any line is
     trusted (unless salvaging); every other version is rejected. *)
  let first_line =
    match String.index_opt text '\n' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  (match String.split_on_char ' ' first_line with
   | "vprof-profile" :: v :: _ ->
     (match int_of_string_opt v with
      | Some n when n = version ->
        if not salvage then begin
          match split_trailer text with
          | None -> fail 1 "v2 profile has no trailing crc32 line (truncated?)"
          | Some (body, crc) ->
            if Crc32.string body <> crc then
              fail 1 "crc32 mismatch (file truncated or corrupted)"
        end
      | _ -> fail 1 (Printf.sprintf "unsupported version %s" v))
   | _ -> fail 1 "missing vprof-profile header");
  let lines = String.split_on_char '\n' text in
  let st = { meta = None; points_rev = []; pending_tvs = []; current = None } in
  let kept = ref 0 in
  let parse_line i line =
    let line_no = i + 1 in
    if line = "" then ()
    else
      match String.split_on_char ' ' line with
      | "vprof-profile" :: _ -> ()
      | "crc32" :: _ -> ()
      | "meta" :: _ ->
        st.meta <-
          Some
            ( count_field line_no line "instrumented",
              count_field line_no line "events",
              count_field line_no line "dynamic" )
      | "point" :: _ ->
        flush_current st;
        let pc = int_field line_no line "pc" in
        if pc < 0 || pc >= Array.length program.code then
          fail line_no (Printf.sprintf "pc %d outside the program" pc);
        let instr = program.code.(pc) in
        if Isa.dest_reg instr = None then
          fail line_no
            (Printf.sprintf "pc %d is not a value-producing instruction" pc);
        let proc = field line_no line "proc" in
        let stride =
          match field line_no line "stride" with
          | "none" -> None
          | s ->
            (match Int64.of_string_opt s with
             | Some v -> Some v
             | None -> fail line_no "field stride is not an integer")
        in
        st.current <-
          Some
            { Profile.p_pc = pc;
              p_instr = instr;
              p_proc = (if proc = "-" then "" else proc);
              p_metrics =
                { Metrics.total = count_field line_no line "total";
                  lvp = float_field line_no line "lvp";
                  inv_top = float_field line_no line "invtop";
                  inv_all = float_field line_no line "invall";
                  zero = float_field line_no line "zero";
                  distinct = count_field line_no line "distinct";
                  distinct_saturated = int_field line_no line "saturated" <> 0;
                  top_values = [||];
                  stride_top = float_field line_no line "stridetop";
                  top_stride = stride } }
      | "tv" :: v :: c :: _ ->
        if st.current = None then fail line_no "tv line before any point";
        (match (Int64.of_string_opt v, int_of_string_opt c) with
         | Some v, Some c when c >= 0 -> st.pending_tvs <- (v, c) :: st.pending_tvs
         | Some _, Some _ -> fail line_no "tv count is negative"
         | _ -> fail line_no "malformed tv line")
      | tag :: _ -> fail line_no (Printf.sprintf "unknown line tag %S" tag)
      | [] -> ()
  in
  (try
     List.iteri
       (fun i line ->
         if salvage then begin
           (* keep everything up to the first malformed line: a torn write
              truncates, it does not scramble what came before *)
           (try parse_line i line with Failure _ -> raise Stop_salvage);
           if line <> "" then incr kept
         end
         else parse_line i line)
       lines
   with Stop_salvage -> Obs.Metrics.add m_salvaged !kept);
  flush_current st;
  match st.meta with
  | None -> failwith "Profile_io: missing meta line"
  | Some (instrumented, profiled_events, dynamic_instructions) ->
    { Profile.points = Array.of_list (List.rev st.points_rev);
      instrumented;
      profiled_events;
      dynamic_instructions;
      (* the on-disk format carries no run-cost counters; a loaded profile
         reports all-zero stats *)
      stats = Counters.create () }

let of_string ?salvage ~program text =
  Obs.Metrics.incr m_reads;
  if is_binary text then of_binary ?salvage ~program text
  else of_text ?salvage ~program text

let read_file ?salvage ~program path =
  Obs.Trace.with_span ~cat:"io" "profile_io.read" @@ fun () ->
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string ?salvage ~program (really_input_string ic n))
