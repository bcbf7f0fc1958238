(** Write-ahead journal for multi-file store mutations.

    The directory store's mutations touch several files — a put writes
    its payload file, then the manifest; a gc deletes payload files, then
    rewrites the manifest — and each individual write is atomic
    (temp-file + rename), but the {e sequence} is not: a crash between
    files leaves the manifest and the payload files disagreeing. The journal closes that window
    with intent-first logging: before touching any file the store appends
    an {e intent} record describing the whole mutation, and after the
    last file is in place it appends a {e commit} record. On open,
    {!pending} returns every intent without a matching commit, and the
    store rolls each one forward (when the mutation's bytes survived) or
    back (when they did not) — so an acknowledged write is
    never lost and an unacknowledged one is never left half-applied.

    {b Format.} The journal is a single append-only file ([dir/journal])
    of {!Codec} tagged sections, one per record: ['P'] put intent (key,
    generation, payload length, payload CRC-32), ['G'] gc intent (the
    keys being removed), ['N'] generation intent (the new counter),
    ['C'] commit (empty payload, commits the oldest pending intent).
    Every record carries its own CRC-32, so a torn append — the one
    non-atomic write in the store — is detected and dropped: a torn
    {e intent} means the mutation never started, a torn {e commit} means
    the preceding intent replays (recovery is idempotent, so replaying a
    completed mutation is harmless).

    {b Fault sites.} Each append crosses ["journal.append"] — a
    {!Fault.point} (so [@kill] specs can SIGKILL the process on the N-th
    append) and a {!Fault.cut} (so [@BYTES] specs can tear the append at
    any byte offset and die, which is how the crash harness walks every
    journal byte offset).

    {b Telemetry.} [journal.appends] counts records written;
    [journal.torn_tails] counts torn records dropped by {!pending}. *)

(** One store mutation, as logged ahead of its files. *)
type op =
  | Put of { key : string; gen : int; bytes : int; crc : int }
      (** Commit [bytes] bytes with checksum [crc] under [key] at
          generation [gen]. *)
  | Gc of string list  (** Remove these keys and their payload files. *)
  | Generation of int  (** Bump the persisted generation counter. *)

(** [dir/journal]. *)
val path : dir:string -> string

(** Encoded record for [op] — exposed so tests (and the chaos harness)
    can reason about exact byte offsets within an append. *)
val encode : op -> string

(** The encoded commit record. *)
val commit_record : string

(** Appends [op]'s intent record and flushes it to the OS. Crosses the
    ["journal.append"] fault site (see above). *)
val append_intent : dir:string -> op -> unit

(** Appends a commit record for the oldest uncommitted intent. *)
val append_commit : dir:string -> unit

(** Parses the journal and returns the intents with no matching commit,
    oldest first. A torn or malformed tail is dropped (counted under
    [journal.torn_tails]); a missing journal file is an empty journal. *)
val pending : dir:string -> op list

(** Truncates the journal to empty (recovery has consumed it). Creating
    the file if absent is deliberate: an empty journal and a missing one
    mean the same thing. *)
val reset : dir:string -> unit
