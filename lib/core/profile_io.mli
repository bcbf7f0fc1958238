(** Profile persistence.

    Value profiles are gathered once and consumed later — by a compiler
    doing specialization, by a simulator configuring predictors — so they
    need a durable form, and a PGO pipeline is only as trustworthy as the
    profile files it consumes. There is one file format, v3 (binary): a
    magic/version header, then tagged sections each framed with a uvarint
    length and its own CRC-32 ({!Codec.put_section}), closed by a
    trailer carrying the CRC-32 of the whole preceding file:

    {v
    89 56 50 33            magic "\x89VP3"
    03                     uvarint version
    'M' len payload crc    meta: instrumented, events, dynamic, #points
    'S' len payload crc    string table: interned procedure names
    'P' len payload crc    one per point: pc, proc idx, metrics, tv pairs
    'E' len payload crc    trailer: CRC-32 of every preceding byte
    v}

    Counts are LEB128 uvarints, profiled values zigzag varint64s, ratio
    metrics fixed 8-byte IEEE-754 bits, so a profile round-trips exactly.

    {!to_string} renders a profile as text for people to read
    ([vprof store get -w]); nothing reads that rendering back:

    {v
    vprof-profile 2
    meta instrumented=52 events=145011 dynamic=204852
    point pc=12 proc=compress total=3999 lvp=0.25 ... stride=none
    tv 42 1800
    tv 7 120
    crc32 9f3a1c07
    v}

    Loading re-attaches the points to a program (the same workload build),
    re-deriving each point's instruction and validating that every saved
    pc is a value-producing instruction of that program.

    Durability properties:
    - {!write_file} commits via temp-file + [rename], so a crash leaves
      the previous file intact, never a torn one;
    - loads are strict: a file that is truncated, corrupted, of another
      format or version, or carries a negative count, a NaN metric or a
      pc the program cannot profile fails as a whole, its message citing
      the byte offset of the section at fault. There is no partial load.

    Telemetry: [profile_io.reads]/[writes] counters and
    [profile_io.read]/[write] spans in {!Obs}. *)

(** The text rendering, ending in a [crc32] line over every preceding
    byte. Print-only: {!of_string} rejects it. *)
val to_string : Profile.t -> string

(** The v3 binary serialization. *)
val to_binary : Profile.t -> string

(** Atomic v3 write: a temp file in the destination directory, then
    [rename]. *)
val write_file : Profile.t -> string -> unit

(** Decodes a v3 profile. Raises [Failure] with a byte-offset message on
    input without the v3 magic (at byte 0), an unsupported version, a
    malformed or unknown section, a checksum mismatch, a missing end
    section or bytes after it, a count past [max_int], a NaN metric, or
    a pc that is not a value-producing instruction of [program]. *)
val of_string : program:Asm.program -> string -> Profile.t

val read_file : program:Asm.program -> string -> Profile.t

(** [false] iff [bytes] carry the v3 magic but their section framing
    does not hold: a section runs past the end or fails its CRC-32.
    Walks the framing without decoding a point. Bytes without the magic
    are not a profile and have no framing to check, so they pass: the
    store's integrity survey calls this on every payload it keeps. *)
val structurally_sound : string -> bool
