(** The parallel profiling driver.

    Schedules (workload, input, profiler) jobs across a fixed pool of
    domains (see {!Pool}); any profiler that exposes a
    {!Profiler_intf.S} adapter can be driven. Each job builds its own
    program and machine — every [Machine.t] owns all of its mutable
    state, so jobs share nothing and parallelize cleanly — and results
    always come back in submission order, making parallel runs
    byte-identical to serial ones for any order-dependent consumer.

    A job carries a [finish] continuation mapping the profiler's typed
    result to the caller's element type, so one [run_jobs] call can mix
    profilers ([Profile] and [Sampler] jobs folding into a common sum,
    say) while staying fully typed. *)

(** A scheduled profiling run. ['a] is what the job yields to the caller
    after [finish]; the profiler's own result and config types are
    existential. *)
type 'a job

(** [job profiler workload input ~finish] — run [profiler] on
    [workload]'s program for [input] and pass its result through
    [finish]. [config] defaults to the profiler's [default_config];
    [fuel] is the machine's instruction budget. *)
val job :
  ?config:'c ->
  ?fuel:int ->
  finish:('r -> 'a) ->
  (module Profiler_intf.S with type result = 'r and type config = 'c) ->
  Workload.t ->
  Workload.input ->
  'a job

(** ["<profiler>:<workload>:<input>"], for logs and bench labels. *)
val job_name : 'a job -> string

(** {2 Fused units}

    Jobs that share a [(workload, input, fuel)] key profile the {e same}
    machine execution (instrumentation is additive, see {!Fused}), so the
    scheduler groups them into units: one unit = one program build + one
    machine run, serving every member job. *)

(** A schedulable unit: one machine execution serving one or more jobs. *)
type 'a funit

(** Group jobs by [(workload name, input, fuel)]. Units come back in the
    submission order of their first member; members stay in submission
    order within a unit — the fused schedule is deterministic. *)
val fuse : 'a job list -> 'a funit list

(** The member jobs with their submission indices (ascending). *)
val unit_members : 'a funit -> (int * 'a job) list

(** [job_name] of a solo unit;
    ["fused[p1+p2+…]:<workload>:<input>"] otherwise. *)
val unit_name : 'a funit -> string

(** The fuel shared by every member ([None] = the machine default). *)
val unit_fuel : 'a funit -> int option

(** Run one unit — one program build, one machine execution — and return
    each member's finished result tagged with its submission index.
    [fuel], when [Some], overrides the unit's own budget (the
    supervisor's retry path). A solo unit takes the profiler's plain
    [run] entry point, exactly the pre-fusion code path. *)
val run_unit_with_fuel : fuel:int option -> 'a funit -> (int * 'a) list

(** Run every job — across [jobs] domains when [jobs > 1], on the calling
    domain otherwise — and return the finished results in submission
    order. [jobs] defaults to {!Pool.default_jobs}; [0] means the same.
    Jobs sharing a [(workload, input, fuel)] key coalesce into one
    machine execution ({!fuse}); each result equals the job's run alone
    ([run_jobs [ j ]], a solo unit). *)
val run_jobs : ?jobs:int -> 'a job list -> 'a list

(** The unit names [run_jobs] would execute, in schedule order — how the
    CLI shows what fusion did. *)
val plan : 'a job list -> string list

(** {!Pool.default_jobs}, re-exported so driver consumers need not depend
    on the pool directly. *)
val default_jobs : unit -> int

(** {!Pool.map}, re-exported: deterministic parallel map for work that is
    not shaped like a profiler run (experiment drivers, paired
    comparisons). *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
