(** Fault-tolerant supervision for grids of profiling jobs.

    {!Pool.map} is all-or-nothing: one raising job aborts the whole grid
    and drops every other result. The paper's methodology is exactly such
    a grid — every profiler variant × every workload × every input — and
    at production scale a single trap, timeout, or I/O error must cost
    one cell, not hours of completed work. The supervisor wraps the pool
    so each job runs under a {!policy}:

    - a failing attempt is {e retried}, with {e backoff-in-fuel}: each
      retry doubles the attempt's instruction budget, so a
      [Fuel_exhausted] timeout converges on a budget that fits instead of
      failing forever;
    - a job that exhausts its retries is recorded as a typed
      {!job_error} in the report — the grid keeps going ([`Skip]), or the
      pool's shared cancellation flag stops the remaining queue
      ([`Abort]), in which case unstarted jobs report [Cancelled];
    - results come back {e per job, in submission order}, successes and
      failures side by side, so callers get partial results plus a
      failure report instead of an exception.

    Each attempt passes the ["supervisor.job"] fault-injection site, so a
    test (or [VPROF_FAULT]) can kill exactly the k-th attempt of a run
    and assert the grid survives. *)

(** Why a job ultimately failed. *)
type job_error =
  | Trap of Machine.trap  (** the workload trapped (division by zero, …) *)
  | Timeout of int  (** fuel budget exhausted; carries the final budget *)
  | Io of string  (** [Sys_error] — filesystem trouble *)
  | Injected of string  (** {!Fault.Injected}; carries the site *)
  | Cancelled  (** never started: the grid was aborted first *)
  | Crash of string  (** any other exception, printed *)
  | Deadline of float
      (** {!Budget.Deadline_exceeded}: the governed wall-clock budget ran
          out. Never retried — the clock is global — and the rest of the
          grid is cancelled cooperatively through the pool's shared
          cancellation flag. *)
  | Mem_pressure of int
      (** {!Budget.Mem_pressure}: heap watermark breached with
          degradation off; carries the observed heap words. Retried like
          any other failure (a retry may run degraded and fit). *)

val string_of_error : job_error -> string

type policy = {
  retries : int;  (** extra attempts after the first (so [retries = 2] means up to 3 runs) *)
  fuel_timeout : int option;
      (** per-attempt instruction budget for jobs that don't carry their
          own fuel; [None] leaves the machine default (no backoff
          possible) *)
  on_error : [ `Skip | `Abort ];
      (** after retries are exhausted: record and continue, or trip the
          shared cancellation flag and stop the grid *)
}

(** [{ retries = 1; fuel_timeout = None; on_error = `Skip }]. *)
val default_policy : policy

(** One job's fate. *)
type 'a outcome = {
  o_name : string;
  o_attempts : int;
      (** attempts actually run; [0] for a cached or cancelled job *)
  o_result : ('a, job_error) result;
}

type 'a report = {
  outcomes : 'a outcome list;  (** submission order, one per job *)
  completed : int;
  failed : int;  (** excludes [Cancelled] *)
  cancelled : int;
}

(** The [Ok] payloads, submission order preserved. *)
val oks : 'a report -> 'a list

(** The non-[Ok] outcomes, submission order preserved. *)
val failures : 'a report -> 'a outcome list

(** Generic supervised parallel map: [f] runs under retry and error
    capture ([fuel_timeout] backoff only applies where the supervisor
    controls fuel, i.e. {!run_jobs}). [name] labels each item's outcome. *)
val map :
  ?policy:policy ->
  ?jobs:int ->
  name:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  'b report

(** Supervised {!Driver.run_jobs}: jobs coalesce into fused units (one
    machine execution per [(workload, input, fuel)] key), and each
    {e unit} runs under the policy — one classification and one retry
    scope per unit per attempt, a retry re-running the whole unit.
    Retries widen the fuel budget (the unit's
    own fuel, else [policy.fuel_timeout], doubles on every attempt). The
    report still carries one outcome per {e job}, in submission order: a
    fused unit's error and attempt count are copied to each member. *)
val run_jobs : ?policy:policy -> ?jobs:int -> 'a Driver.job list -> 'a report

(** Test-only window into the backoff arithmetic, so it can be asserted
    directly instead of through whole grid runs. *)
module Testing : sig
  (** [attempt_fuel policy ~base k] is the fuel budget the supervisor
      would give the 0-based attempt [k] of a job whose own fuel is
      [base]. *)
  val attempt_fuel : policy -> base:int option -> int -> int option
end
