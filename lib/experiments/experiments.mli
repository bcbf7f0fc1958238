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

(** An experiment that failed even after the supervisor's retries. *)
type failure = {
  f_spec : spec;
  f_attempts : int;
  f_error : Supervisor.job_error;
}

(** What a supervised run returns: everything that completed (registry
    order) {e plus} a failure report — one bad experiment no longer
    aborts the suite. *)
type report = {
  results : (spec * Table.t list) list;
  failures : failure list;
}

val string_of_failure : failure -> string

(** Everything a supervised suite run is parameterized by, in one record:
    the CLI, the tests and CI all build the same value instead of
    threading separate [?policy]/[?jobs]/[?store] options. *)
type run_config = {
  rc_jobs : int option;  (** worker pool size; [None] = recommended count *)
  rc_fuel : int option;  (** per-attempt fuel budget; [None] = unlimited *)
  rc_retries : int;  (** extra attempts per experiment after the first *)
  rc_fail_fast : bool;  (** abort the suite on the first hard failure *)
  rc_trace : string option;  (** write a Chrome trace of the run here *)
  rc_metrics : string option;  (** write a registry snapshot here *)
  rc_shards : int;
      (** shard count for the harness's full value profiles (see
          {!Harness.set_shards}); 1 = serial collection *)
  rc_store : Store.t option;
      (** profile store for cross-invocation reuse and crash-safe
          resumption: {!run_strings} serves whole cached experiments
          without scheduling them, and the harness serves cached value
          profiles without executing machines (see {!Harness.set_store}) *)
}

(** Serial, one retry, no fuel limit, no store, no sinks. *)
val default_run_config : run_config

(** Run a subset of the suite under supervision (see {!Supervisor}): each
    experiment runs in an ["experiment:<id>"] trace span, is retried per
    the config and recorded as a {!failure} instead of raising. If the
    config names trace/metrics sinks they are written on the way out
    (tracing is enabled for exactly this run). *)
val run : ?config:run_config -> spec list -> report

(** Supervised run yielding each experiment's {!render}ed bytes.

    With [rc_store] set, each experiment is fingerprinted
    ({!Store.Fingerprint}: its id plus the fuel and shard knobs) and
    looked up before scheduling: a hit is served with [o_attempts = 0]
    and zero machine executions, a miss runs and commits its rendered
    bytes to the store as it finishes — so a repeated grid is
    near-instant and byte-identical, and a killed grid resumes from
    whatever it committed. *)
val run_strings : ?config:run_config -> spec list -> string Supervisor.report
