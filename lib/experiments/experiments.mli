(** The experiment registry: every table and figure of the thesis's
    evaluation, reproduced. See DESIGN.md for the experiment ↔ paper
    artifact mapping and EXPERIMENTS.md for recorded results. *)

type spec = {
  id : string;  (** "e01" … "e14" *)
  title : string;
  paper_ref : string;  (** the thesis table/figure it regenerates *)
  run : unit -> Table.t list;
}

val all : spec list

(** Raises [Not_found] for unknown ids. *)
val find : string -> spec

(** An experiment's printable form: the [== id: title [ref] ==] banner
    followed by each rendered table and a blank line. {!run_strings}
    yields these bytes whether it computes an experiment or serves it
    from the store, so stored payloads splice back byte-identically. *)
val render : spec -> Table.t list -> string

(** Everything a supervised suite run is parameterized by, in one record:
    the CLI, the tests and the benchmark all build the same value instead
    of threading separate [?policy]/[?jobs]/[?store] options. *)
type run_config = {
  rc_jobs : int option;
      (** worker pool size, for the suite and for the shards of each
          sharded profile; [None] = recommended count *)
  rc_fuel : int option;  (** per-attempt fuel budget; [None] = unlimited *)
  rc_retries : int;  (** extra attempts per experiment after the first *)
  rc_fail_fast : bool;  (** abort the suite on the first hard failure *)
  rc_shards : int;
      (** shard count for the harness's full value profiles (see
          {!Harness.set_shards}); 1 = serial collection *)
  rc_store : Store.t option;
      (** where rendered experiments persist across invocations: a
          repeated suite is served from it and a killed one resumes from
          it. It holds nothing else — the value profiles an experiment
          reads are recomputed in each process. *)
}

(** Serial, one retry, no fuel limit, no store. *)
val default_run_config : run_config

(** Run a subset of the suite under supervision (see {!Supervisor}),
    yielding each experiment's {!render}ed bytes, one outcome per spec in
    submission order. Each computed experiment runs in an
    ["experiment:<id>"] trace span and is retried per the config; one
    that still fails is recorded in its outcome instead of raising, so
    one bad experiment never aborts the suite.

    Each experiment is fingerprinted ({!Store.Fingerprint}: its id plus
    the fuel and shard knobs) and looked up in [rc_store] before
    scheduling: a hit is served with [o_attempts = 0] and zero machine
    executions, a miss runs and commits its rendered bytes as it
    finishes — so a repeated grid is near-instant and byte-identical,
    and a killed grid resumes from whatever it committed. Without a
    store every lookup misses and nothing is committed. Telemetry sinks
    are the caller's ({!Obs.with_sinks}). *)
val run_strings : ?config:run_config -> spec list -> string Supervisor.report

(** The report line for an experiment that failed (or was cancelled):
    ["experiment <id> FAILED after <n> attempt(s): <error>"]; [None] for
    one that completed. *)
val failure_line : _ Supervisor.outcome -> string option
