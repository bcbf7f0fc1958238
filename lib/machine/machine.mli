(** The virtual machine: executes an assembled {!Vp_asm.Asm.program} and
    exposes the instrumentation points the ATOM-like layer builds on.

    Instrumentation model (mirroring what ATOM's analysis routines could
    observe on the Alpha):
    - a per-PC {e after-execution} hook receiving the value the instruction
      produced (ALU result, loaded word, or stored word) and, for memory
      instructions, the effective address;
    - a per-procedure {e entry} hook, fired when a call lands on the
      procedure, with the machine visible so argument registers can be read;
    - a per-procedure {e return} hook, fired at [Ret], with the value of
      [v0].

    Subscription is {e additive}: every [add_*] call attaches one more
    observer to the point. A per-PC observer is {e plain} ({!add_hook}:
    every execution is delivered) or {e gated} ({!add_gated_hook}: each
    delivery returns how many following executions of the pc the
    observer does not want, and the machine withholds those, per
    observer, so a plain observer at the same pc still sees every event).
    An execution goes to the pc's plain observers in attach order, then
    to the gates it is due for, in attach order; entry and return
    observers fire in attach order.

    Cost model. The executor loads one dispatcher per pc and compares
    against the pc's exec count, which it bumps anyway. An unhooked pc
    pays one constructor test. Plain observers are one call: the lone
    observer's closure, or a fan-out over a flat array built at attach
    time. A pc with plain observers only pays one compare and that call.
    A pc with gates only pays one compare against the earliest exec
    count any of its gates wants, so an execution every gate withholds
    costs that compare and nothing else — no call and no box. A pc with
    both calls its plain observers, then pays the same compare, and
    enters the gate loop only when a gate is due.

    Execution model: {!create} decodes the program once into a flat form
    (one opcode per pc that already folds in the ALU operation or branch
    condition and the operand kind, register offsets and targets beside
    it, immediates in an unboxed table), and one executor dispatches on
    that form. Registers and memory pages hold raw 64-bit words, so an
    instruction at an uninstrumented pc allocates nothing and runs no
    write barrier. A value is boxed only where a subscriber receives it:
    one minor allocation per delivered event (a pc with both kinds boxes
    it once more for its gates when one is due), withheld events none. *)

type trap =
  | Div_by_zero of int  (** pc *)
  | Invalid_pc of int
  | Call_depth_exceeded of int  (** depth limit *)
  | Fuel_exhausted of int  (** fuel that was granted *)
  | Negative_address of int
      (** pc of a load or store whose effective address is negative *)

exception Trap of trap

val string_of_trap : trap -> string

type t

(** Per-PC hook: [f value addr]. [value] is the produced value (0 for
    instructions that produce none), [addr] the effective address of a
    load/store (0 otherwise). *)
type hook = int64 -> int64 -> unit

(** Initial value of the stack pointer register on [create]/[reset];
    workload stacks grow downward from here. *)
val stack_base : int64

(** Maximum call-stack depth before [Call_depth_exceeded]. *)
val max_call_depth : int

(** Fresh machine with data segments loaded, registers zeroed (except
    [sp]), and [pc] at the program entry. *)
val create : Asm.program -> t

(** Return to the post-[create] state: registers, memory, counters, and pc
    reset. Hooks are {e kept} (profilers reset themselves); a gate keeps
    the executions it still withholds, counted from the reset, and its
    {!gate_executions} keeps what it counted before. *)
val reset : t -> unit

val program : t -> Asm.program
val reg : t -> Isa.reg -> int64
val set_reg : t -> Isa.reg -> int64 -> unit
val memory : t -> Memory.t

val pc : t -> int
val halted : t -> bool

(** Dynamic instructions executed since the last [create]/[reset]. *)
val icount : t -> int

(** Times the instruction at a given pc has executed. *)
val exec_count : t -> int -> int

(** Current nesting depth of the machine-managed call stack. *)
val call_depth : t -> int

(** PC of the call instruction that created the current frame, if any —
    available inside procedure-entry hooks, where it identifies the call
    site (context-sensitive profiling uses it). *)
val caller_pc : t -> int option

(** [add_hook t pc h] subscribes one more per-PC observer at [pc];
    earlier observers keep firing (plain ones before [h], in attach
    order; gates after every plain observer). *)
val add_hook : t -> int -> hook -> unit

(** Gated per-PC observer: [g value addr] receives one execution, like a
    {!hook}, and returns how many following executions of its pc it does
    not want delivered. [0] (or less) means the next one; a count the pc
    can never reach means none. *)
type gated = int64 -> int64 -> int

(** One gated subscription, as returned by {!add_gated_hook}. *)
type gate

(** [add_gated_hook t pc g] subscribes [g] at [pc] like {!add_hook} (same
    {!with_attachment} recording, same {!detach}), with the next
    execution due. An execution due to [g] reaches it after every plain
    observer at [pc] and after the gates attached before it. Executions
    [g] declined are withheld from [g] alone: they cost the executor one
    compare, and other observers at [pc] are unaffected. *)
val add_gated_hook : t -> int -> gated -> gate

(** Executions of the gate's pc while it was subscribed, delivered or
    withheld: from {!add_gated_hook} to its {!detach} or clear, summed
    across {!reset}s. *)
val gate_executions : t -> gate -> int

(** Remove {e every} observer at the pc, plain and gated. *)
val clear_hook : t -> int -> unit

val clear_all_hooks : t -> unit

(** Observers currently subscribed at a pc, plain and gated (0 when
    uninstrumented). *)
val hook_count : t -> int -> int

(** Subscribe an entry observer on a procedure (additive, like
    {!add_hook}). *)
val add_proc_entry_hook : t -> int -> (t -> unit) -> unit

(** Hook invoked as [f machine return_value] whenever the given procedure
    executes [Ret]. Additive, like {!add_hook}. *)
val add_proc_return_hook : t -> int -> (t -> int64 -> unit) -> unit

(** Everything one profiler subscribed during a {!with_attachment} frame,
    detachable as a unit with {!detach}. *)
type attachment

(** [with_attachment t f] runs [f] with a recording frame open on [t]:
    every hook subscribed inside (per-PC, entry, return) is logged, and
    the log is returned alongside [f]'s result. Frames do not nest —
    [Invalid_argument] if one is already open. This is how fused runs
    remember which subscriptions belong to which member, so degradation
    can shed exactly one member mid-run. *)
val with_attachment : t -> (unit -> 'a) -> 'a * attachment

(** [detach t a] unsubscribes every hook recorded in [a] (matching by
    physical equality, so an identical closure subscribed by someone else
    survives) and rebuilds the affected dispatchers. Other observers at
    the same points keep firing; the detached profiler's accumulated
    state is untouched and can still be collected — a profile from
    partial observation. A detached gate's {!gate_executions} stops
    counting. *)
val detach : t -> attachment -> unit

(** Execute one instruction, delivering it to the observers at its pc
    that want it. Raises {!Trap}; no-op once halted. *)
val step : t -> unit

(** [run ?fuel t] steps until the program halts (via [Halt] or a [Ret]
    with an empty call stack), returning the total {!icount}. Raises
    [Trap (Fuel_exhausted _)] after [fuel] instructions (default
    [500_000_000]).

    Carries the ["machine.step"] fault-injection site (see {!Fault}):
    when that site is armed, the armed step raises [Fault.Injected]
    mid-run — how tests simulate a worker crashing inside a job.

    When a {!Budget} is armed, the run also polls it on a periodic
    boundary (every 4096 steps), so governed runs trip deadlines, take
    degradation steps, or raise on memory pressure cooperatively —
    between steps, with spans closed and telemetry intact. The steps
    between two boundaries run unchecked unless fault injection is armed;
    ungoverned runs pay one atomic load for the whole run. *)
val run : ?fuel:int -> t -> int

(** Convenience: [create], [run], and return the machine (for examples and
    tests). *)
val execute : ?fuel:int -> Asm.program -> t
