(** Deterministic fault injection, from single shots to seeded campaigns.

    Robustness claims are only testable if faults can be produced on
    demand, at an exact, reproducible spot. This module plants named
    {e injection sites} on the paths that matter — machine stepping
    ([Fault.point ~site:"machine.step"] in {!Machine.run}'s loop), pool
    workers (["pool.worker"]), supervised job attempts (["supervisor.job"]),
    checkpoint loading (["checkpoint.load"]), shard merging
    (["shard.merge"]), pool cancellation (["pool.cancel"]) and store
    commits (["store.commit"], ["store.payload.write"] and
    ["store.orphan"], the window between a put's payload and manifest
    renames or a gc's manifest rename and its removals) — and lets
    a test (or the [VPROF_FAULT] environment variable, for CLI smoke runs
    and the chaos harness) arm any number of them concurrently.

    Three firing modes per site:
    - {b one-shot} — fire exactly once, on the [at]-th hit (the original
      mode: "the 1000th step traps", "the third job dies");
    - {b N-shot} — fire on hits [at .. at+count-1], then stay quiet
      (exhausts a retry budget deterministically);
    - {b probabilistic} — each hit fires with probability [p], drawn from
      a per-site SplitMix64 generator seeded from the campaign seed
      ({!set_seed} / [VPROF_FAULT_SEED]) and the site name, so a chaos
      campaign replays bit-for-bit given the same seed and hit order.

    Disarmed — the default — a site costs one atomic load; the machine's
    inner loop additionally hoists that load out of the loop via
    {!enabled}, so fault-free runs pay nothing measurable.

    This module lives in [vp_util] (not the driver) because the machine
    sits below the driver in the library stack; the supervisor and pool
    are its other consumers. *)

(** What an armed site does when it fires. *)
type action =
  | Raise  (** {!point} raises {!Injected}. *)
  | Kill
      (** {!point} SIGKILLs the process — a real kill -9, no handler,
          finalizer or [at_exit] hook runs. The crash-point survival
          harness arms this on ["store.commit"], ["store.payload.write"]
          and ["store.orphan"] to prove the store's crash consistency
          against genuine mid-mutation death. Never arm it in-process in a test
          runner: the runner dies too — fire it only in subprocesses. *)

(** When an armed site fires. *)
type firing =
  | Shots of { at : int; count : int }
      (** Fire on hits [at .. at+count-1] (1-based), exactly once each. *)
  | Prob of float  (** Each hit fires with probability [p] in [(0, 1]]. *)

(** Raised by a firing {!point}; carries the site name. *)
exception Injected of string

(** [true] iff any site is armed. Hot loops read this once and skip their
    {!point} entirely when it is [false]. *)
val enabled : unit -> bool

(** Seed for probabilistic sites (default {!default_seed}). Each {!Prob}
    site armed afterwards draws from a generator derived from this seed
    and its site name. Set it before arming. *)
val set_seed : int64 -> unit

(** The fixed golden-ratio constant seeding probabilistic sites until
    {!set_seed} (or [VPROF_FAULT_SEED]) overrides it — exposed so tests
    can restore the default after a seeded run. *)
val default_seed : int64

(** [arm ~site ~at ()] arms [site] to fire on its [at]-th hit (1-based;
    [at <= 1] means the next hit); [?count] (default 1) extends this to
    an N-shot burst over hits [at .. at+count-1]. Re-arming a site
    replaces its previous arming; distinct sites stay armed concurrently.
    Raises [Invalid_argument] on an empty site name. *)
val arm : ?action:action -> ?count:int -> site:string -> at:int -> unit -> unit

(** [arm_prob ~site ~p ()] arms [site] to fire each hit with probability
    [p]. Raises [Invalid_argument] unless [0 < p <= 1]. *)
val arm_prob : ?action:action -> site:string -> p:float -> unit -> unit

(** [arm_firing ~site firing] is the general form of {!arm}/{!arm_prob}. *)
val arm_firing : ?action:action -> site:string -> firing -> unit

(** Disarm every site and reset all hit counters (the campaign seed is
    kept). *)
val disarm : unit -> unit

(** An injection site: counts a hit and, if this hit fires, raises
    [Injected site] ({!Raise}) or SIGKILLs the process ({!Kill}). Cheap
    no-op when nothing is armed. *)
val point : site:string -> unit

(** Hits recorded against a site since it was last armed ([0] if the site
    is not armed) — for tests asserting an exact firing position. *)
val hits : site:string -> int

(** The environment variable {!load_env} reads: ["VPROF_FAULT"]. *)
val env_var : string

(** The campaign-seed environment variable: ["VPROF_FAULT_SEED"]. *)
val seed_env_var : string

(** Spec grammar, comma-separated entries armed concurrently:
    ["SITE@AT"] arms a one-shot {!Raise} on the [AT]-th hit;
    ["SITE@AT#N"] arms an N-shot burst over hits [AT .. AT+N-1];
    ["SITE@~P"] arms probabilistic firing with probability [P];
    each form takes an optional trailing ["@kill"] turning the action
    into {!Kill} (SIGKILL the process at the firing hit).
    E.g. ["supervisor.job@3,machine.step@~0.001,pool.worker@2#3"] or
    ["store.orphan@1@kill"].
    Raises [Invalid_argument] with the offending entry on a malformed
    spec — including empty entries, which are rejected rather than
    silently ignored. *)
val arm_spec : string -> unit

(** Arm from [$VPROF_FAULT] if set and non-empty, seeding probabilistic
    sites from [$VPROF_FAULT_SEED] first when present (the CLI calls this
    once at startup; nothing else does, so test processes stay unaffected
    by a stray variable). Raises [Invalid_argument] on a malformed spec
    or seed. *)
val load_env : unit -> unit
