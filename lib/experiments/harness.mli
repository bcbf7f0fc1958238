(** Shared plumbing for the experiment drivers: the workload list in table
    order and one memoized {e fused} execution per workload/input — the
    plain machine state, the full value profile, and the procedure profile
    all come from a single machine run (instrumentation is additive; hooks
    never perturb architectural state). The memo tables are domain-safe
    {!Memo_cache}s, so experiments scheduled in parallel by the driver
    still execute each workload/input exactly once. Nothing here outlives
    the process: a suite run persists only its rendered experiments (see
    {!Experiments.run_strings}). *)

(** All workloads, table order. *)
val workloads : Workload.t list

(** Memoized full value profile (selection [`All]) of a workload/input.
    At one shard (the default) it is the fused single execution's
    profile; at [K > 1] shards (see {!set_shards}) it is
    {!Shard.profile}'s merge of [K] slices, run on the set domain count
    and memoized by [(workload, input, K)]. *)
val full_profile : Workload.t -> Workload.input -> Profile.t

(** [set_shards ~jobs k] — the shard count {!full_profile} uses (clamped
    to [>= 1]; 1 = serial) and the domains its shards run on ([None] =
    {!Pool.default_jobs}). The setting changes which memo entry serves
    the profile, never the contents of any. *)
val set_shards : jobs:int option -> int -> unit

(** Memoized machine state after a full run: the same architectural state
    (registers, memory, counters) as an uninstrumented run. The profilers
    that ran with it are detached, so it carries no hooks. *)
val plain_run : Workload.t -> Workload.input -> Machine.t

(** Memoized procedure profile (with the workload's declared arities). *)
val proc_profile : Workload.t -> Workload.input -> Procprof.t

(** Machine executions performed since the last [clear_cache] — at most
    one per workload/input, however many accessors were consulted. *)
val machine_runs : unit -> int

(** Drop every memoized result (tests use this to keep fixtures
    independent). *)
val clear_cache : unit -> unit

(** Load-category points of a profile. *)
val load_points : Profile.t -> Profile.point list

(** [value_points p] — points of every value-producing instruction. *)
val value_points : Profile.t -> Profile.point list
