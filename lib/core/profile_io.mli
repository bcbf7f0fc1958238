(** Profile persistence.

    Value profiles are gathered once and consumed later — by a compiler
    doing specialization, by a simulator configuring predictors — so they
    need a durable form, and a PGO pipeline is only as trustworthy as the
    profile files it consumes. Two formats coexist:

    {b v2 (text)} — line-oriented (stable, diffable, greppable), ending in
    a CRC-32 trailer over every preceding byte:

    {v
    vprof-profile 2
    meta instrumented=52 events=145011 dynamic=204852
    point pc=12 proc=compress total=3999 lvp=0.25 ... stride=none
    tv 42 1800
    tv 7 120
    crc32 9f3a1c07
    v}

    {b v3 (binary)} — compact: a magic/version header, then tagged
    sections each framed with a uvarint length and its own CRC-32
    ({!Codec.put_section}), closed by a trailer carrying the CRC-32 of the
    whole preceding file:

    {v
    89 56 50 33            magic "\x89VP3"
    03                     uvarint version
    'M' len payload crc    meta: instrumented, events, dynamic, #points
    'S' len payload crc    string table: interned procedure names
    'P' len payload crc    one per point: pc, proc idx, metrics, tv pairs
    'E' len payload crc    trailer: CRC-32 of every preceding byte
    v}

    Counts are LEB128 uvarints, profiled values zigzag varint64s, ratio
    metrics fixed 8-byte IEEE-754 bits — so v3 round-trips v2 exactly
    while being several times smaller.

    Loading re-attaches the points to a program (the same workload build),
    re-deriving each point's instruction and validating that every saved
    pc is a value-producing instruction of that program. Text files must
    be version 2 (version 1, which had no trailer, is rejected);
    {!of_string} and {!read_file} sniff the format from the first bytes.

    Durability properties:
    - {!write_file} commits via temp-file + [rename], so a crash leaves
      the previous file intact, never a torn one;
    - a truncated or corrupted file fails its checksum on load instead
      of silently parsing as a shorter profile;
    - [~salvage:true] recovers the valid prefix of a damaged file — whole
      lines for text, whole checksum-valid sections for v3;
    - loaded metrics are validated (no negative counts, no NaNs), each
      rejection citing its line (text) or byte offset (binary).

    Telemetry: [profile_io.reads]/[writes]/[salvaged_lines] counters and
    [profile_io.read]/[write] spans in {!Obs}. *)

(** The 4-byte v3 magic ["\x89VP3"] — exposed for integrity checkers
    (the store's scrub/verify) that sniff the framing without decoding
    a whole profile. *)
val binary_magic : string

(** The v2 text serialization. *)
val to_string : Profile.t -> string

(** The v3 binary serialization. *)
val to_binary : Profile.t -> string

(** Atomic write (temp file in the destination directory, then [rename]),
    binary v3 unless [~format:`Text]. Carries the ["profile_io.write"]
    fault-injection site: arming it with [Fault.Truncate n] makes this
    call emulate a legacy in-place writer crashing mid-write — the
    destination is left truncated at byte [n] and [Fault.Injected] is
    raised. *)
val write_file : ?format:[ `Binary | `Text ] -> Profile.t -> string -> unit

(** Sniffs the format (v3 magic bytes, else text). Raises [Failure] with
    a line- or byte-offset message on malformed input, an unsupported
    version, a checksum mismatch, a negative count, a NaN metric, or a pc
    that is not a value-producing instruction of [program].

    [~salvage:true] instead keeps every well-formed line (text) or whole
    checksum-valid section (v3) before the first damaged one and skips
    whole-file checksum verification — the recovery path for a file a
    crash truncated. The header and meta must survive; everything after
    the tear is dropped. *)
val of_string : ?salvage:bool -> program:Asm.program -> string -> Profile.t

val read_file : ?salvage:bool -> program:Asm.program -> string -> Profile.t
