(** Sparse word-addressed 64-bit memory.

    Backed by fixed-size pages of raw 64-bit words, allocated on first
    write; unwritten words read as zero. Addresses are word indices (the
    whole repository uses word, not byte, addressing). A small
    direct-mapped cache of recently used pages sits in front of the page
    table, and {!read}/{!write} inline into their callers, so the
    machine's loads and stores neither allocate nor box. *)

type t

val create : unit -> t

(** Number of words per page (an implementation constant, exposed so tests
    can exercise page-boundary behaviour). *)
val page_words : int

val read : t -> int64 -> int64
val write : t -> int64 -> int64 -> unit

(** [load_segment t base words] writes [words] starting at [base]. *)
val load_segment : t -> int64 -> int64 array -> unit

(** Number of pages currently allocated (for footprint reporting). *)
val pages_allocated : t -> int

(** Iterate over every word of every allocated page — words written, and
    the never-written (zero) words sharing a page with them — in
    unspecified but deterministic order. *)
val iter_touched : t -> (int64 -> int64 -> unit) -> unit

(** Drop all pages, returning to the all-zero state. *)
val clear : t -> unit
