(** The value profiler: full (every-execution) instruction profiling, as in
    §III.E of the thesis — "each instruction can be profiled either before
    or after the instruction is executed; the destination register value is
    passed to the function which records the profiling information. Within
    that function, we add the register value to the TNV table."

    {!run} is the one-call entry point; {!attach}/{!collect} compose with a
    machine the caller controls (the sampling and accuracy experiments use
    the latter to co-instrument oracles). *)

type point = {
  p_pc : int;
  p_instr : Isa.instr;
  p_proc : string;  (** owning procedure name, [""] if outside any *)
  p_metrics : Metrics.t;
}

type t = {
  points : point array;  (** ascending pc *)
  instrumented : int;  (** static instrumentation points *)
  profiled_events : int;  (** dynamic analysis calls that ran *)
  dynamic_instructions : int;  (** total instructions the program executed *)
  stats : Counters.t;  (** run cost counters (all-zero on loaded profiles) *)
}

(** Profile attached to a live machine; collect after running. *)
type live

val attach : ?config:Vstate.config -> Machine.t -> Atom.selection -> live

val collect : live -> t

(** [run program] executes the program fully instrumented and returns the
    profile. [selection] defaults to [`All] value-producing instructions. *)
val run :
  ?config:Vstate.config ->
  ?selection:Atom.selection ->
  ?fuel:int ->
  Asm.program ->
  t

(** [merge profiles] combines collected profiles point-wise by pc (union
    of points, ascending; metrics via {!Metrics.merge}), summing
    [profiled_events], [dynamic_instructions] and the cost counters.
    Deterministic in the list order; left-associated, so
    [merge [a; b; c] = merge [merge [a; b]; c]]. Raises [Invalid_argument]
    on the empty list. Emits a [profile.merge] span. *)
val merge : t list -> t

(** Live profiling state of one slice (shard) of a workload execution,
    kept at the {!Vstate} level so merging shards is exact (TNV and
    distinct-set union) where merging collected {!t}s is not. *)
type shard

(** [run_shard ~window:(lo, hi) program] executes [program] in full but
    profiles only events whose 1-based dynamic index [i] satisfies
    [lo < i <= hi]. Windows partitioning [1 .. total] partition the
    profiled event stream, and the shard's accountable event count is the
    window length, so shard counts sum to the serial run's
    [dynamic_instructions]; the window [(0, max_int)] owns the whole
    run. *)
val run_shard :
  ?config:Vstate.config ->
  ?selection:Atom.selection ->
  window:int * int ->
  ?fuel:int ->
  Asm.program ->
  shard

(** [merge_shards program shards] merges the shards in list order into
    one profile ({!Vstate.merge} per pc, then snapshot). The result is a
    function of the shards' contents and order only — never of how they
    were scheduled across domains. [program] supplies instruction and
    procedure labels. Raises [Invalid_argument] on the empty list. Emits
    a [profile.merge] span. *)
val merge_shards : Asm.program -> shard list -> t

(** Points whose instruction has the given category. *)
val points_by_category : t -> Isa.category -> point list

(** Execution-weighted mean of a metric over a point subset. *)
val weighted : point list -> (Metrics.t -> float) -> float

(** Find the profile point at a pc. *)
val point_at : t -> int -> point option

(** The {!Profiler_intf.S} view of this profiler, for the parallel driver:
    the TNV configuration and the instruction selection packed into one
    config value. *)
type profiler_config = { vconfig : Vstate.config; selection : Atom.selection }

module Profiler :
  Profiler_intf.S with type result = t and type config = profiler_config
