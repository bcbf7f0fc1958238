(* The header version of the text rendering, which is printed and never
   read back. *)
let version = 2
let binary_version = 3

(* A 0x89 first byte can never start a text file, so a text rendering
   handed to [of_string] fails at byte 0. *)
let magic = "\x89VP3"

let m_reads = Obs.Metrics.counter "profile_io.reads"
let m_writes = Obs.Metrics.counter "profile_io.writes"

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

(* The text body under a trailing [crc32 <hex>\n] over every preceding
   byte: the checksum a reader of the rendering can check by hand. *)
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
  Buffer.add_string buf magic;
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

let has_magic text =
  String.length text >= String.length magic
  && String.sub text 0 (String.length magic) = magic

let fail_at off msg = failwith (Printf.sprintf "Profile_io: byte %d: %s" off msg)

(* Decode one 'P' payload, validating against [program]: in-range
   value-producing pc, non-negative counts (a uvarint past [max_int] is
   a {!Codec.Error}), no NaN metrics. *)
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

let of_string ~(program : Asm.program) text =
  Obs.Metrics.incr m_reads;
  if not (has_magic text) then fail_at 0 "not a v3 profile";
  let r = Codec.reader ~pos:(String.length magic) text in
  let meta = ref None in
  let procs = ref None in
  let points_rev = ref [] in
  let finished = ref false in
  let decode_section () =
    let section_off = Codec.pos r in
    let tag, payload = Codec.read_section r in
    (* a payload reader counts from the payload's first byte, so a
       malformed payload is reported at its section's offset *)
    try
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
    with Codec.Error (_, msg) -> fail_at section_off msg
  in
  (try
     let vers = Codec.read_uvarint r in
     if vers <> binary_version then
       fail_at (String.length magic)
         (Printf.sprintf "unsupported binary version %d" vers);
     while not !finished do
       if Codec.at_end r then
         fail_at (Codec.pos r) "missing end section (truncated?)";
       decode_section ()
     done
   with Codec.Error (off, msg) -> fail_at off msg);
  match !meta with
  | None -> failwith "Profile_io: missing meta section"
  | Some (instrumented, profiled_events, dynamic_instructions) ->
    { Profile.points = Array.of_list (List.rev !points_rev);
      instrumented;
      profiled_events;
      dynamic_instructions;
      (* the on-disk format carries no run-cost counters; a loaded profile
         reports all-zero stats *)
      stats = Counters.create () }

let structurally_sound bytes =
  (not (has_magic bytes))
  ||
  let r = Codec.reader ~pos:(String.length magic) bytes in
  match
    ignore (Codec.read_uvarint r);
    while not (Codec.at_end r) do
      ignore (Codec.read_section r)
    done
  with
  | () -> true
  | exception Codec.Error _ -> false

(* temp-file + rename commit: a crash at any point leaves either the old
   file or the new one, never a torn mix *)
let write_file p path =
  Obs.Trace.with_span ~cat:"io" "profile_io.write" @@ fun () ->
  Obs.Metrics.incr m_writes;
  let s = to_binary p in
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:dir ~mode:[ Open_binary ]
      (Filename.basename path) ".tmp"
  in
  try
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let read_file ~program path =
  Obs.Trace.with_span ~cat:"io" "profile_io.read" @@ fun () ->
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string ~program (really_input_string ic n))
