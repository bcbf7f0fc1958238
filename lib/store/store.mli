(** Keyed profile repository — the one persistence code path.

    Every durable artifact the toolchain produces (checkpointed
    experiment payloads, cached profiles, rendered grids) is a byte
    string addressed by a key; this module owns fingerprinting the key,
    checksumming the bytes, and committing them atomically. Two backends
    share one contract:

    - {e in-memory} ({!create_mem}) — a hash table, for tests and
      single-process reuse;
    - {e directory} ({!open_dir}) — a [manifest] file with one
      checksummed line per entry
      ([done <key> gen=<g> bytes=<n> payload=<crc> line=<crc>]) plus one
      atomically-written payload file per entry ([<stem>-<crc>.out]),
      optionally mirrored into [replicas] sibling trees.

    The backend contract: {!put} is atomic (temp-file + [rename], payload
    before manifest); loading is salvage-shaped (a torn manifest line and
    everything after it is dropped; a payload failing its size or
    checksum in every copy tree is reported {e lost}, not served);
    nothing is trusted without its checksum.

    {b Durability.} Every multi-file mutation ({!put}, {!gc},
    {!new_generation}) is logged intent-first in a write-ahead journal
    ({!Journal}) and committed after its last file is in place. Opening
    the store replays the journal: a pending put whose bytes survived in
    any copy tree rolls {e forward} (healed into every tree,
    [journal.recovered]); one whose bytes survived nowhere rolls
    {e back} (nothing durable existed, [journal.rolled_back]) — so an
    acknowledged write is never lost and an unacknowledged one is never
    left half-applied, even under kill -9 at an arbitrary byte. Orphaned
    [*.tmp] files from killed atomic commits are swept on open
    ([store.orphans_swept]).

    {b Replicas.} [open_dir ~replicas:n] keeps [n] mirror trees
    ([dir/replica1..n]) alongside the primary; {!put} writes every tree,
    and a load that finds the primary corrupt serves the first replica
    whose bytes match the manifest checksum, marking the entry
    {e degraded}. A {!get} on a degraded entry rewrites the stale copies
    (read-repair, [store.read_repairs]). Growing [replicas] on open
    mirrors every live entry into the new trees; shrinking is never
    implicit.

    {b Integrity.} {!verify} is a read-only survey (every copy of every
    entry byte-compared against the loaded payload, v3-framed payloads
    additionally section-walked); {!scrub} moves each corrupt copy aside
    to [*.corrupt] ([store.quarantined] — quarantine, never deletion);
    {!repair} rewrites each bad copy from the healthiest surviving one
    ([store.repaired]). A {!get_profile} that hits undecodable bytes
    tries the mirrors for a decodable copy and otherwise quarantines the
    poisoned files so they are never re-read.

    {b Cost.} Each entry records its payload's length and CRC-32, and
    manifest rows are rendered from those records, so no commit
    re-hashes another entry's bytes. {!put} hashes its payload once,
    writes it to every copy tree and rewrites the manifest; {!gc} and
    {!new_generation} rewrite the manifest (gc also deletes the dead
    entries' files). Each costs its own payload plus one line per
    manifest row, whatever the size of the store. {!open_dir} reads
    and hashes every payload once, to check it against its row.
    {!verify} reads every copy once and section-walks each v3 payload
    once. {!get} is a table lookup. The invariant behind this: an
    entry's recorded CRC changes only together with its bytes — on
    {!put}, on load, on journal roll-forward and on mirror recovery —
    and always from bytes just written or just checked against it.

    {b Generations.} The manifest carries a generation counter. A writing
    invocation calls {!new_generation} once; entries committed after that
    are stamped with the new generation, and {!gc} [~keep:n] drops every
    entry last {e written} more than [n] generations ago. Reads do not
    refresh an entry's generation.

    {b Telemetry.} [store.hits]/[store.misses]/[store.bytes_written]
    counters and [store.get]/[store.commit]/[store.verify]/[store.scrub]/
    [store.repair] spans in {!Obs}; a decode failure in {!get_profile}
    counts [store.decode_failures]. Directory commits are charged to the
    {!Budget} disk guard once per copy. {!put} carries the
    ["store.commit"] and (per copy) ["store.payload.write"] fault sites,
    loading the ["checkpoint.load"] site, journal appends the
    ["journal.append"] site — the spots chaos campaigns kill.

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
  st_replicas : int;  (** mirror trees kept alongside the primary *)
  st_lost : int;  (** manifest rows with no valid copy in any tree *)
}

(** One integrity survey ({!verify}, {!scrub} or {!repair}). [copies]
    counts are per payload copy (entries × trees), not per entry. *)
type check = {
  c_entries : int;  (** live entries surveyed *)
  c_copies_ok : int;  (** copies byte-identical to the loaded payload *)
  c_copies_bad : int;  (** copies missing, mismatching, or malformed *)
  c_quarantined : int;  (** files moved aside to [*.corrupt] *)
  c_repaired : int;  (** copies rewritten from the healthiest one *)
  c_lost : int;  (** entries with no valid copy anywhere *)
}

(** [true] iff the survey found nothing wrong (no bad copy, nothing
    lost) — the condition under which [vprof store verify] exits 0. *)
val check_clean : check -> bool

val create_mem : unit -> t

(** [open_dir dir] opens (creating [dir] if needed) a directory store:
    sweeps orphaned [*.tmp] files, loads the surviving manifest entries
    (falling back to replica trees for corrupt primaries), and replays
    the write-ahead journal left by any crashed invocation.
    [~replicas:n] keeps [n] mirror trees — growing the count mirrors
    every live entry into the new trees now; an existing store's count
    is never shrunk implicitly. [~reset:true] starts empty, committing a
    fresh manifest and an empty journal (stale payload files are simply
    unreferenced). Raises [Sys_error] if [dir] exists but is not a
    directory. *)
val open_dir : ?reset:bool -> ?replicas:int -> string -> t

(** The backing directory; [None] for the in-memory backend. *)
val dir : t -> string option

val generation : t -> int

(** Bumps and persists the generation counter (journaled); returns the
    new value. Call once per writing invocation. *)
val new_generation : t -> int

(** Uncounted lookup (no hit/miss telemetry, no read-repair) — the
    checkpoint-resume path, where the supervisor already reports
    cached-vs-run. *)
val find : t -> string -> string option

(** Counted lookup: increments [store.hits] or [store.misses] under a
    [store.get] span. A hit on a degraded entry first rewrites its stale
    on-disk copies from the known-good bytes (read-repair). *)
val get : t -> string -> string option

(** Commits [payload] under [key] at the current generation: journal
    intent, then every copy tree (atomically each), then the manifest,
    then the journal commit. [key] must not contain newlines; spaces are
    stored escaped. *)
val put : t -> key:string -> payload:string -> unit

(** All live entries, sorted by key. *)
val entries : t -> info list

val stats : t -> stats

(** [gc t ~keep:n] removes every entry whose write generation is more
    than [n] generations behind the current one (their payload files in
    every tree included, lost rows too), rewrites the manifest once, and
    returns the number of entries removed. Journaled. *)
val gc : t -> keep:int -> int

(** {1 Integrity} *)

(** Read-only survey: byte-compares every copy of every live entry
    against the loaded payload and section-walks v3-framed payloads.
    Touches nothing on disk; flags entries with bad copies degraded so a
    later {!get} read-repairs them. *)
val verify : t -> check

(** {!verify}, plus every corrupt copy is renamed aside to [*.corrupt]
    (including the wreckage of lost rows) — quarantine, never deletion. *)
val scrub : t -> check

(** {!verify}, plus every bad copy is rewritten from the healthiest
    surviving copy (the loaded payload — byte-identical restoration).
    Structurally-unsound payloads are quarantined instead; lost rows
    have nothing to restore from and stay lost until overwritten or
    gc'd. *)
val repair : t -> check

(** {1 Profile entries} — the v3 binary serialization over {!get}/{!put}. *)

val put_profile : t -> key:string -> Profile.t -> unit

(** [None] on a miss; on stored bytes that do not decode against
    [program] (counting [store.decode_failures]), tries each mirror for
    a decodable copy — healing every tree from it on success — and
    otherwise quarantines the poisoned payload files and drops the
    entry, so the caller recomputes and the next put overwrites. *)
val get_profile : t -> program:Asm.program -> key:string -> Profile.t option
