(** A domain-safe once-per-key memo cache.

    Replaces the plain [Hashtbl] memo tables the experiment harness used
    when everything ran on one domain. The guarantee concurrent callers
    need is {e once-per-key}: when several domains request the same absent
    key simultaneously, exactly one runs the computation and the others
    block until its result lands, rather than duplicating seconds of
    profiling work (or tearing the table).

    Implementation: one mutex around the table plus a per-cache condition
    variable acting as the latch — an in-flight key is marked [Running];
    waiters sleep on the condition and re-check when woken. A computation
    that raises is {e not} cached (matching the old serial semantics):
    the key is released, the exception propagates to the computing caller,
    and any waiter retries the computation itself. *)

type ('k, 'v) t

(** An empty cache. Entries are kept until {!clear}. *)
val create : unit -> ('k, 'v) t

(** [find_or_compute t k f] returns the cached value for [k], or runs
    [f ()] — once, even under concurrent callers — caches and returns it.
    [f] runs outside the cache lock, so computations for distinct keys
    proceed in parallel. [f] must not re-enter the cache on the same key
    (it would deadlock waiting on itself). *)
val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

(** Number of computations actually run (not counting cache hits) since
    [create]/[clear] — the once-per-key tests assert on this. *)
val computations : ('k, 'v) t -> int

(** Drop every cached value and zero {!computations}. Intended for
    quiescent moments (test fixture isolation); a computation in flight
    during [clear] still completes and re-registers its result. *)
val clear : ('k, 'v) t -> unit
