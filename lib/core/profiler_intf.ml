(** The unified profiler contract.

    Every profiler in the repository follows the same life cycle — attach
    instrumentation to a machine, let the machine run, collect a result —
    but each grew its own entry-point shape (extra selection arguments,
    split configurations). [S] is the common signature the parallel driver
    schedules against; the concrete modules ([Profile], [Sampler],
    [Memprof], [Procprof]) each expose an adapter submodule named
    [Profiler] that satisfies it without disturbing their original APIs.

    A profiler implementation must be {e self-contained}: all mutable
    profiling state lives in the [live] value (and the machine it is
    attached to), never in module-level globals, so distinct jobs can run
    concurrently on distinct domains. *)

module type S = sig
  (** Short stable name ("profile", "sample", "memory", "procs") used in
      logs and benchmark labels. *)
  val name : string

  (** Everything that parameterizes a run, packed into one value so the
      driver can carry it without knowing its shape. *)
  type config

  val default_config : config

  (** What a finished run yields (the concrete profiler's [t]). *)
  type result

  (** Instrumentation attached to a live machine; collect after running. *)
  type live

  val attach : ?config:config -> Machine.t -> live

  (** The run's result, published to the metrics registry (see {!Make}).
      Call it once per run. *)
  val collect : live -> result

  (** What {!collect} would return now, without publishing it — for
      probing a live run, as fused degradation does to rank members. *)
  val peek : live -> result

  (** Build a machine, run it fully instrumented, collect. *)
  val run : ?config:config -> ?fuel:int -> Asm.program -> result

  (** The run's cost counters (events seen/profiled, TNV maintenance,
      attach-to-collect wall clock), for `vprof --stats` and the
      metrics registry. *)
  val stats : result -> Counters.t
end

(** A profiler packed as a first-class module, indexed by its result type
    (the configuration type stays existential — pair the module with a
    config of the right type at pack time if you need a non-default one). *)
type 'r t = (module S with type result = 'r)

(** What a concrete profiler supplies to {!Make}: the irreducible kernel
    of {!S} — a name, a config with its default, and the
    attach/collect/stats triple with [attach] taking the config
    {e positionally} (the functor owns the optional-argument and
    machine-building conventions, so nine adapters stop restating
    them). *)
module type Spec = sig
  val name : string

  type config

  val default_config : config

  type result
  type live

  val attach : config -> Machine.t -> live
  val collect : live -> result
  val stats : result -> Counters.t
end

(** The one adapter. Beyond satisfying {!S}, [collect] publishes the
    run's cost counters into the metrics registry under
    ["profiler.<name>.*"] (see {!Obs.publish_profiler_run}), so every
    profiler feeds the same aggregation substrate without touching the
    registry itself; [peek] publishes nothing. *)
module Make (X : Spec) :
  S with type config = X.config and type result = X.result and type live = X.live =
struct
  let name = X.name

  type config = X.config

  let default_config = X.default_config

  type result = X.result
  type live = X.live

  let attach ?(config = X.default_config) machine = X.attach config machine

  let stamped live =
    let r = X.collect live in
    let c = X.stats r in
    (* stamp the governance degradation level so callers can tell exact
       from approximate profiles; 0 (the disarmed constant) when no
       budget was ever armed *)
    let lvl = Budget.degrade_level () in
    if lvl > c.Counters.degrade_level then c.Counters.degrade_level <- lvl;
    (r, c)

  let peek live = fst (stamped live)

  let collect live =
    let r, c = stamped live in
    Obs.publish_profiler_run ~name:X.name c;
    r

  let run ?(config = X.default_config) ?fuel prog =
    let machine = Machine.create prog in
    let live = X.attach config machine in
    ignore (Machine.run ?fuel machine);
    collect live

  let stats = X.stats
end
