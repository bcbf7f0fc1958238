(** Shared plumbing for the experiment drivers: the workload list in table
    order and one memoized {e fused} execution per workload/input — the
    plain machine state, the full value profile, and the procedure profile
    all come from a single machine run (instrumentation is additive; hooks
    never perturb architectural state). The memo table is a domain-safe
    {!Memo_cache}, so experiments scheduled in parallel by the driver
    still execute each workload/input exactly once. *)

(** All workloads, table order. *)
val workloads : Workload.t list

(** Memoized full value profile (selection [`All]) of a workload/input:
    {!sharded_profile} at the {!set_shards} count. *)
val full_profile : Workload.t -> Workload.input -> Profile.t

(** Memoized full value profile, keyed by [(workload, input, shards)] —
    independent of the {!set_shards} toggle. One shard is the fused
    single execution; more are collected via {!Shard.profile}. *)
val sharded_profile :
  ?jobs:int -> Workload.t -> Workload.input -> shards:int -> Profile.t

(** Shard count {!full_profile} uses (default 1 = serial). Clamped to
    [>= 1]. The toggle changes which memo entry serves the profile, never
    the contents of any. *)
val set_shards : int -> unit

(** Attach (or with [None] detach) a profile store. With a store
    attached, a {!full_profile}/{!sharded_profile} memo miss consults the
    store — keyed by the {!Store.Fingerprint} of (workload, input, fuel,
    profiler, shards, config) — before executing the machine, and every
    computed profile is committed for the next invocation. *)
val set_store : Store.t option -> unit

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
