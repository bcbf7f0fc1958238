(** A fixed pool of worker domains pulling work from a mutex-protected
    deque.

    The pool is created per call, sized to the job count, and torn down
    before returning — profiling jobs run for milliseconds to seconds, so
    domain spawn cost is noise and keeping no resident pool means no
    global state and no shutdown protocol. The calling domain works too:
    [map ~jobs:n] spawns [n - 1] extra domains.

    Every worker passes the ["pool.worker"] fault-injection site (see
    {!Fault}) before running an item, so tests can kill the k-th scheduled
    item deterministically. *)

(** [Domain.recommended_domain_count ()] — what [map] uses when [jobs] is
    omitted or [0]. *)
val default_jobs : unit -> int

(** A cancellation flag shared between a caller and the pool's workers.
    Once {!cancel}led, workers stop pulling new items (items already
    running finish); the supervisor trips it when a fatal error must stop
    the grid. *)
type cancellation

val cancellation : unit -> cancellation
val cancel : cancellation -> unit
val cancelled : cancellation -> bool

(** [map_result ?jobs ?cancel f items] applies [f] to every item,
    returning per-item slots {e in input order}: [Some (Ok v)] for a
    success, [Some (Error (e, bt))] for an application that raised
    (backtrace captured on the raising domain), and [None] for an item
    never started because the [cancel] flag was set — by the caller, or
    from inside [f] via a shared {!cancellation}. Never raises. *)
val map_result :
  ?jobs:int ->
  ?cancel:cancellation ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result option list

(** [map ~jobs f items] applies [f] to every item and returns the results
    {e in input order}, whatever order the workers finished in. [jobs <= 1]
    (after defaulting) degenerates to a serial map on the calling domain.

    If any application raises, the exception of the {e lowest-indexed}
    failing item is re-raised. Every queued item still runs before the
    re-raise, so the surfaced error is deterministic even though later
    items may already have run. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
