(** Convergent ("intelligent") value profiling, Chapter VI.

    Full profiling executes an analysis call on every instruction — too
    slow for production use. The thesis's sampler profiles each instruction
    in {e bursts}: record [burst] consecutive executions, skip [skip], and
    repeat. After every burst it compares the instruction's current Inv-Top
    with the previous burst's; when the change stays below [epsilon] for
    [consecutive] bursts the instruction is declared {e converged} and its
    skip interval is multiplied by [backoff] (capped at [max_skip]), so a
    converged instruction is revisited only occasionally in case its
    behaviour shifts.

    Overhead is reported as the fraction of dynamic events actually
    profiled; accuracy as the invariance error against a full profile.

    Where the skip lives: each point subscribes a gated hook
    ({!Machine.add_gated_hook}) that profiles the executions it is
    given and, at the end of each burst, returns the gap. The machine
    withholds those executions from this sampler alone — they cost the
    executor one compare, not a hook call — so the profiler keeps no
    skip countdown and no per-event counter. A point's [s_events] is read
    off the machine instead ({!Machine.gate_executions}): its pc's
    executions while the sampler was attached, up to a {!Machine.detach}
    that sheds it mid-run. *)

(** What "the profile stopped changing" means. The thesis used the change
    in invariance; the alternative tracks the identity of the top value —
    cheaper to evaluate and differently biased (it converges even while
    Inv-Top still drifts, as long as the winner is stable). Compared in
    E18. *)
type criterion =
  | Inv_delta  (** |ΔInv-Top| < epsilon across bursts (the thesis's) *)
  | Top_stability  (** the TNV's top value is identical across bursts *)

type config = {
  burst : int;  (** executions profiled per burst *)
  initial_skip : int;  (** executions skipped between bursts *)
  epsilon : float;  (** convergence threshold on |ΔInv-Top| *)
  consecutive : int;  (** quiet bursts needed to declare convergence *)
  backoff : float;  (** skip multiplier once converged (>= 1) *)
  max_skip : int;
  criterion : criterion;
}

val default_config : config

type point = {
  s_pc : int;
  s_instr : Isa.instr;
  s_metrics : Metrics.t;  (** metrics over the sampled subset *)
  s_events : int;
      (** executions of the point while the sampler was attached
          (profiled + skipped) *)
  s_profiled : int;  (** events actually recorded *)
  s_converged : bool;
}

type t = {
  points : point array;
  total_events : int;
  profiled_events : int;
  overhead : float;  (** profiled / total, 0 when nothing executed *)
  dynamic_instructions : int;
  stats : Counters.t;  (** run cost counters *)
}

type live

(** Raises [Invalid_argument] when [burst] is not positive, [backoff] is
    below 1, or [initial_skip] or [max_skip] is negative. *)
val attach : ?config:config -> ?vconfig:Vstate.config -> Machine.t -> Atom.selection -> live

val collect : live -> t

(** Instrument, run, collect. *)
val run :
  ?config:config ->
  ?vconfig:Vstate.config ->
  ?selection:Atom.selection ->
  ?fuel:int ->
  Asm.program ->
  t

(** Mean absolute Inv-Top error of the sampled profile against a full
    profile of the same program, weighted by true execution frequency.
    Points missing from either side are ignored; when the two profiles
    share no live point at all (disjoint selections, or nothing executed)
    the error is [0.] by definition — never NaN. *)
val invariance_error : t -> Profile.t -> float

(** The {!Profiler_intf.S} view of this profiler, for the parallel driver:
    sampling parameters, TNV configuration and instruction selection
    packed into one config value. *)
type profiler_config = {
  sampler : config;
  vconfig : Vstate.config;
  selection : Atom.selection;
}

module Profiler :
  Profiler_intf.S with type result = t and type config = profiler_config

(** Test-only access to a single point's burst/skip state machine, so the
    convergent back-off can be exercised deterministically (each quiet
    re-check burst must keep widening the gap toward [max_skip]; a noisy
    burst must reset it to [initial_skip]). *)
module Testing : sig
  type state

  val make_state : config -> state

  (** Feed one profiled event, as the point's gated hook: returns how
      many following executions to skip (0 inside a burst, the gap at its
      end). *)
  val observe : state -> int64 -> int

  (** Feed the rest of the current burst of the given value, ending right
      after the end-of-burst convergence check. The gap that follows is
      the machine's to skip, so no skipped event is fed. *)
  val run_cycle : state -> int64 -> unit

  (** The current inter-burst gap. *)
  val current_skip : state -> int

  val is_converged : state -> bool

  (** Events profiled so far, and their metrics. *)
  val profiled : state -> int

  val metrics : state -> Metrics.t
end
