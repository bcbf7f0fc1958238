(** Resource governance: wall-clock deadlines, heap watermarks, and a
    graceful-degradation ladder.

    The paper's premise is that value profiling must stay cheap enough to
    run inside real pipelines; a profiler that can blow its time or memory
    budget is one nobody deploys. This module is the budget: callers
    {!arm} a {!limits} record (or wrap a section in {!govern}), and the
    machine {!poll}s it on its periodic fuel boundary. Disarmed — the
    default — a poll costs one atomic load, mirroring {!Fault.enabled};
    hot loops hoist even that via {!armed}.

    Two enforcement styles:

    - {b Deadlines} always terminate: {!poll} raises {!Deadline_exceeded}
      once the wall clock passes the budget. Termination is cooperative —
      the exception unwinds through the machine's normal exception path,
      so spans close and telemetry sinks still get written.
    - {b Memory pressure} either terminates ({!Mem_pressure}, when
      [degrade = false]) or sheds precision: each breach of the heap
      watermark bumps the global {e degradation level} (saturating at
      {!max_degrade_level}) and triggers one major GC. Precision-shedding
      consumers react to the level on their own cold paths — the sampler
      widens [skip] at the next burst boundary, TNV halves its live
      candidate capacity at the next periodic clear, fused runs drop
      their most expensive member via {!on_degrade} callbacks — so a
      governed run completes with an approximate profile instead of
      dying, and results carry the level so callers can tell exact from
      approximate.

    This module lives in [vp_util] because the machine sits below every
    other layer; it cannot depend on [vp_obs], so observability is routed
    through {!set_notifier} (installed by [Obs] at program start). *)

type limits = {
  deadline : float option;
      (** Wall-clock seconds from {!arm}; [poll] raises
          {!Deadline_exceeded} past it. *)
  max_heap_words : int option;
      (** Heap watermark compared against [Gc.quick_stat ()].[heap_words]. *)
  degrade : bool;
      (** [true]: heap pressure sheds precision (degradation steps)
          instead of raising {!Mem_pressure}. *)
}

(** Everything unlimited, degradation off. Build limits with
    [{ no_limits with deadline = Some 2.0 }]. *)
val no_limits : limits

(** Raised by {!poll} when the wall clock passes the armed deadline;
    carries the budget in seconds. *)
exception Deadline_exceeded of float

(** Raised by {!poll} on a heap-watermark breach when [degrade] is off;
    carries the observed heap words. *)
exception Mem_pressure of int

(** [true] iff limits are armed. Hot loops read this once and skip their
    {!poll} entirely when it is [false]. *)
val armed : unit -> bool

(** Arm [limits] and start the deadline clock. Raises [Invalid_argument]
    if already armed (governed sections do not nest). *)
val arm : limits -> unit

(** Disarm and reset the degradation level to 0. *)
val disarm : unit -> unit

(** [govern limits f] runs [f] armed, disarming on the way out
    (exceptions included). *)
val govern : limits -> (unit -> 'a) -> 'a

(** The periodic check. Disarmed: one atomic load. Armed: compares the
    wall clock and [Gc.quick_stat] heap words against the limits, raising
    or stepping the degradation ladder as described above, and delivers
    any pending {!on_degrade} callbacks registered by the calling
    domain. *)
val poll : unit -> unit

(** Current degradation level, [0] (exact) to {!max_degrade_level}.
    One atomic load; precision-shedding cold paths compare it against the
    level they last applied. *)
val degrade_level : unit -> int

(** The ladder saturates here; further breaches keep the run alive
    without shedding more. *)
val max_degrade_level : int

(** Seconds since {!arm} ([0.] when disarmed) — for diagnostics. *)
val elapsed : unit -> float

(** [on_degrade f] registers [f] to be called with the new level on each
    degradation step. Delivery happens on the registering domain only —
    either directly (the step happened on a poll from that domain) or
    lazily on that domain's next {!poll} — so callbacks may safely mutate
    domain-local state such as a machine's hook tables. Returns an id for
    {!remove_on_degrade}. *)
val on_degrade : (int -> unit) -> int

(** Unregister a callback; unknown ids are ignored. *)
val remove_on_degrade : int -> unit

(** Observability hook: degradation steps and budget trips are reported
    here so [Obs] (which sits above this library) can emit trace instants
    and [degrade.*] / [budget.*] counters. Installed once at program
    start by [Obs]; the default is a no-op. *)
type notice =
  | Degrade_step of int  (** new level *)
  | Deadline_trip of float  (** budget seconds *)
  | Mem_trip of int  (** observed heap words *)

val set_notifier : (notice -> unit) -> unit

(** Test hooks: drive the ladder without real GC pressure. *)
module Testing : sig
  (** Set the level directly (no callbacks, no notices). *)
  val set_level : int -> unit

  (** Bump the level by one step (saturating), emit the notice, and
      deliver this domain's callbacks — exactly what a real watermark
      breach does, minus the GC. *)
  val force_step : unit -> unit

  (** Level to 0, callbacks cleared, disarmed. For test teardown. *)
  val reset : unit -> unit
end
