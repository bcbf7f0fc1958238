(** Fusing profilers: K profilers, one machine execution.

    Because machine instrumentation is additive (see {!Machine.add_hook}),
    any number of profilers can attach to the same machine and each sees
    every event it would have seen solo. This module packages that as a
    combinator over {!Profiler_intf.S}: a heterogeneous list of packed
    profilers becomes one attach, one run, and per-profiler results —
    the workload executes once instead of K times.

    Cost attribution: each member's {!Counters.t} keeps its own event and
    TNV counts (what {e that} profiler saw and recorded), while the wall
    clock is measured once around the shared run and stamped identically
    on every member — summing member walls would count the single
    execution K times. *)

(** One member of a fused run: a profiler, an optional config, and the
    [finish] continuation mapping its typed result to the caller's
    element type (same device as {!Driver.job}). *)
type 'a item

val item :
  ?config:'c ->
  finish:('r -> 'a) ->
  (module Profiler_intf.S with type result = 'r and type config = 'c) ->
  'a item

(** The member profiler's [name]. *)
val item_name : 'a item -> string

type 'a live

type 'a t = {
  results : 'a list;  (** per member, in item order *)
  counters : Counters.t list;  (** per member, in item order *)
  machine_steps : int;  (** dynamic instructions of the ONE execution *)
  wall_seconds : float;  (** the shared attach-to-collect wall clock *)
  degrade_level : int;
      (** {!Budget} degradation level at collect time; [0] = exact. *)
  shed : string list;
      (** Members dropped by degradation steps (attach order). A shed
          member still contributes a result — a profile from partial
          observation, observed only up to its detach point. *)
}

(** Attach every member to the machine, in list order. At a shared pc an
    execution goes to the members' plain observers in that order, then to
    their gates that are due, in that order (see {!Machine.add_hook}).

    Under an armed {!Budget} with [degrade = true], the fused run also
    subscribes to degradation steps: each step drops the most expensive
    member still attached (by {!Counters.run_cost} of its counters so
    far), detaching its machine hooks mid-run — but never the last
    member. Shed members are listed in the result's [shed] field. *)
val attach : Machine.t -> 'a item list -> 'a live

val collect : 'a live -> 'a t

(** Build one machine, attach all members, run once, collect all. *)
val run : ?fuel:int -> Asm.program -> 'a item list -> 'a t
