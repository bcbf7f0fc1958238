(** Workload descriptors.

    Each workload is a program for the virtual machine that mimics the
    hot-loop structure and value behaviour of one SPEC95 benchmark the
    thesis profiled, and comes with the thesis's two input sets ([Test] and
    [Train]) so the cross-input experiments (Table V.5) can compare
    profiles. Inputs differ in both size and random seed — [Train] inputs
    are larger and differently distributed, never identical runs. *)

type input = Test | Train

val string_of_input : input -> string

(** Raises [Invalid_argument] on unknown names. *)
val input_of_string : string -> input

type t = {
  wname : string;  (** short name used by the CLI and tables *)
  wmimics : string;  (** the SPEC95 program it is modeled on *)
  wdescr : string;
  wbuild : input -> Asm.program;
  warities : (string * int) list;
      (** procedure name → argument count, for procedure profiling *)
}

(** Helpers shared by workload builders. *)

(** [pick input ~test ~train]. *)
val pick : input -> test:'a -> train:'a -> 'a

(** Deterministic RNG seeded from workload name and input. *)
val rng : string -> input -> Rng.t
