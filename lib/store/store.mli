(** Keyed profile repository — the one persistence code path.

    Every durable artifact the toolchain produces (cached profiles,
    rendered experiment payloads, whether the run was started with
    [--store] or [--checkpoint]) is a byte string addressed by a key;
    this module owns fingerprinting the key, checksumming the bytes, and
    committing them atomically. Every entry is a deterministic function
    of its {!Fingerprint}, so the store is a cache with one rule: never
    serve bytes that fail their checksum — report a miss, and the caller
    recomputes. Two backends share one contract:

    - {e in-memory} ({!create_mem}) — a hash table, for tests and
      single-process reuse;
    - {e directory} ({!open_dir}) — a [manifest] file with one
      checksummed line per entry
      ([done <key> gen=<g> bytes=<n> payload=<crc> line=<crc>]) plus one
      atomically-written payload file per entry, named by its key and its
      payload's CRC-32 ([<stem>-<keycrc>-<crc>.out]).

    The backend contract: {!put} is atomic (temp-file + [rename], payload
    before manifest); loading is salvage-shaped (a torn manifest line and
    everything after it is dropped; a payload failing its size or
    checksum is reported {e lost}, not served); nothing is trusted
    without its checksum. A lost or undecodable entry is a miss: the
    caller recomputes it and the next {!put} rewrites the file.

    {b Durability.} The manifest rename is the store's one commit point.
    A payload file's name carries its bytes' checksum, so a {!put} writes
    new bytes beside, never over, the bytes a committed row names, then
    renames the new manifest into place: a crash before that rename
    leaves the old store, a crash after it the new one. {!new_generation}
    is the manifest rename alone. {!gc} renames the manifest first and
    only then removes files no row names, so a crash mid-gc leaves files
    the next gc removes, never a row without its file. Opening replays
    nothing; it only sweeps the [*.tmp] files of killed atomic commits
    ([store.orphans_swept]). An acknowledged write is never lost and an
    unacknowledged one is never half-applied, even under kill -9.

    {b Integrity.} {!verify} is a read-only survey: every entry's payload
    file is byte-compared against the loaded payload, and a v3 profile
    payload additionally has its sections walked
    ({!Profile_io.structurally_sound}). {!scrub} moves each corrupt
    payload aside to [*.corrupt] ([store.quarantined] — quarantine,
    never deletion). Profile payloads decode strictly, whole or not at
    all: a {!get_profile} that hits undecodable bytes quarantines the
    poisoned file so it is never re-read, and the caller recomputes.

    {b Cost.} Each entry records its payload's length and CRC-32, and
    manifest rows are rendered from those records, so no commit
    re-hashes another entry's bytes. {!put} hashes its payload once,
    writes it and rewrites the manifest; {!new_generation} rewrites the
    manifest; {!gc} rewrites the manifest when it drops rows and lists
    the directory once to remove unnamed files. Each costs its own
    payload plus one line per manifest row, whatever the size of the
    store. {!open_dir} reads and hashes every payload once, to check it
    against its row. {!verify} reads every payload once and
    section-walks each v3 payload once. {!get} is a table lookup. The
    invariant behind this: an entry's recorded CRC changes only together
    with its bytes — on {!put} and on load — and always from bytes just
    written or just checked against it.

    {b Generations.} The manifest carries a generation counter. A writing
    invocation calls {!new_generation} once; entries committed after that
    are stamped with the new generation, and {!gc} [~keep:n] drops every
    entry last {e written} more than [n] generations ago. Reads do not
    refresh an entry's generation.

    {b Telemetry.} [store.hits]/[store.misses]/[store.bytes_written]
    counters and [store.get]/[store.commit]/[store.verify]/[store.scrub]
    spans in {!Obs}; a decode failure in {!get_profile} counts
    [store.decode_failures]. Fault sites: {!put} crosses
    ["store.commit"] first, then ["store.payload.write"] before its
    payload rename and ["store.orphan"] between its payload and manifest
    renames; {!gc} crosses ["store.orphan"] between its manifest rename
    and its file removals; loading crosses ["checkpoint.load"] — the
    spots chaos campaigns kill.

    The store is domain-safe: {!put} is called from pool workers. *)

(** A cache key names the exact provenance of a profile: same workload,
    input, fuel, profiler kind, shard count, and profiler configuration
    — change any one and the bytes are not reusable. *)
module Fingerprint : sig
  type t = {
    fp_profiler : string;  (** e.g. ["full"], ["experiment"], ["profile"] *)
    fp_workload : string;
    fp_input : string;
    fp_fuel : int option;  (** [None] = unlimited *)
    fp_shards : int;
    fp_config : string;  (** rendered profiler configuration *)
  }

  val make :
    ?fuel:int ->
    ?shards:int ->
    ?config:string ->
    profiler:string ->
    workload:string ->
    input:string ->
    unit ->
    t

  (** The canonical one-line rendering the key hash is computed over. *)
  val canonical : t -> string

  (** Filesystem-safe store key: a readable sanitized stem plus the
      CRC-32 of {!canonical}, so distinct fingerprints cannot collide
      after sanitization. *)
  val key : t -> string

  (** Renders a value-profiler configuration for [fp_config] (TNV
      capacity/policy, clear interval, distinct cap, selection). *)
  val profile_config : Vstate.config -> selection:string -> string
end

type t

type info = { i_key : string; i_gen : int; i_bytes : int }

type stats = {
  st_entries : int;
  st_bytes : int;
  st_generation : int;
  st_lost : int;  (** manifest rows whose payload file failed its checks *)
}

(** One integrity survey ({!verify} or {!scrub}). A copy is a live
    entry's payload file. *)
type check = {
  c_entries : int;  (** live entries surveyed *)
  c_copies_ok : int;  (** copies byte-identical to the loaded payload *)
  c_copies_bad : int;  (** copies missing, mismatching, or malformed *)
  c_quarantined : int;  (** files moved aside to [*.corrupt] *)
  c_lost : int;  (** manifest rows whose payload file failed its checks *)
}

(** [true] iff the survey found nothing wrong (no bad copy, nothing
    lost) — the condition under which [vprof store verify] exits 0. *)
val check_clean : check -> bool

val create_mem : unit -> t

(** [open_dir dir] opens (creating [dir] if needed) a directory store:
    sweeps orphaned [*.tmp] files and loads the surviving manifest
    entries. A manifest of another format version loads as empty.
    [~reset:true] starts empty, committing a fresh manifest (stale
    payload files are unreferenced until {!gc}). Raises [Sys_error] if
    [dir] exists but is not a directory. *)
val open_dir : ?reset:bool -> string -> t

(** The backing directory; [None] for the in-memory backend. *)
val dir : t -> string option

val generation : t -> int

(** Bumps and persists the generation counter (one manifest rename);
    returns the new value. Call once per writing invocation. *)
val new_generation : t -> int

(** Uncounted lookup (no hit/miss telemetry) — for inspection, such as
    [vprof store get]. *)
val find : t -> string -> string option

(** Counted lookup: increments [store.hits] or [store.misses] under a
    [store.get] span. *)
val get : t -> string -> string option

(** Commits [payload] under [key] at the current generation: the payload
    file (atomically, beside any file a row names), then the manifest,
    whose rename is the commit. It never deletes: a file it replaces in
    the manifest stays until {!gc}. [key] must not contain newlines;
    spaces are stored escaped. *)
val put : t -> key:string -> payload:string -> unit

(** All live entries, sorted by key. *)
val entries : t -> info list

val stats : t -> stats

(** [gc t ~keep:n] removes every entry whose write generation is more
    than [n] generations behind the current one (lost rows too), rewrites
    the manifest once, then removes every [*.out] file no remaining row
    names — the dead entries' files and whatever an overwriting or killed
    put left behind — and the [journal] file a store written before the
    [vprof-store 2] manifest kept ([store.orphans_swept] counts each).
    Returns the number of entries removed. *)
val gc : t -> keep:int -> int

(** {1 Integrity} *)

(** Read-only survey: byte-compares every live entry's payload file
    against the loaded payload and section-walks v3-framed payloads.
    Touches nothing. *)
val verify : t -> check

(** {!verify}, plus every corrupt payload file is renamed aside to
    [*.corrupt] (including the wreckage of lost rows) — quarantine, never
    deletion. The entries stay misses until a put rewrites them. *)
val scrub : t -> check

(** {1 Profile entries} — the v3 binary serialization over {!get}/{!put}. *)

val put_profile : t -> key:string -> Profile.t -> unit

(** [None] on a miss; on stored bytes that do not decode against
    [program] (counting [store.decode_failures]), quarantines the
    poisoned payload file and drops the entry, so the caller recomputes
    and the next put overwrites. *)
val get_profile : t -> program:Asm.program -> key:string -> Profile.t option
