(** Sharded profile collection: split {e one} workload execution into K
    shards, profile each on its own domain via {!Pool}, and merge the
    results in shard order ({!Profile.merge_shards}) — the first mode in
    which a single profile is collected faster than one core allows.

    Determinism: the merge consumes shards in plan order (the pool
    already returns results in submission order), so the profile is a
    function of the plan alone — byte-identical across schedules, domain
    counts, and re-runs.

    Error model vs. the serial run: a single shard is byte-identical to
    serial profiling. For K > 1 the shards partition the dynamic event
    stream by icount windows, so per-point totals, [profiled_events] and
    [dynamic_instructions] equal the serial run's exactly on every
    workload; only the K-1 window seams lose one LVP/stride observation
    each, and per-shard TNV tables may admit values the serial table
    would have dropped (or vice versa), bounding the [inv_top]/[inv_all]
    drift by the per-shard drop rate. *)

(** How one execution is split: every shard runs the full program and
    profiles the events of its window [(lo, hi]] of dynamic instruction
    indices. The windows partition the run, in shard order. *)
type plan

(** [plan workload input ~shards] runs one uninstrumented execution
    (bounded by [fuel]) to learn the stream length, then cuts it into
    [shards] equal windows. [shards <= 1] is one whole-run window with no
    pre-run. *)
val plan : ?fuel:int -> Workload.t -> Workload.input -> shards:int -> plan

(** Run every shard of a plan across [jobs] domains and merge in shard
    order. Emits a [driver.shard] span per shard and counts them under
    [driver.shards]. *)
val profile_plan :
  ?config:Vstate.config ->
  ?selection:Atom.selection ->
  ?fuel:int ->
  ?jobs:int ->
  plan ->
  Profile.t

(** [profile ~shards workload input] = [profile_plan (plan …)]: the
    one-call sharded analogue of {!Profile.run}. [shards] defaults to 1,
    which is byte-identical to the serial profile. *)
val profile :
  ?config:Vstate.config ->
  ?selection:Atom.selection ->
  ?fuel:int ->
  ?jobs:int ->
  ?shards:int ->
  Workload.t ->
  Workload.input ->
  Profile.t
