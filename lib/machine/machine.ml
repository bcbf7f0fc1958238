type trap =
  | Div_by_zero of int
  | Invalid_pc of int
  | Call_depth_exceeded of int
  | Fuel_exhausted of int
  | Negative_address of int

exception Trap of trap

let string_of_trap = function
  | Div_by_zero pc -> Printf.sprintf "division by zero at pc %d" pc
  | Invalid_pc pc -> Printf.sprintf "invalid pc %d" pc
  | Call_depth_exceeded d -> Printf.sprintf "call depth exceeded (%d)" d
  | Fuel_exhausted f -> Printf.sprintf "fuel exhausted (%d instructions)" f
  | Negative_address pc -> Printf.sprintf "negative address at pc %d" pc

type hook = int64 -> int64 -> unit
type gated = int64 -> int64 -> int

(* One gated subscription at [g_pc]. The execution that brings the pc's
   exec count to [due] or past it is delivered; the ones before it are
   withheld. [opened] and [closed] account for the pc's executions while
   the gate is subscribed: the open span started at count [opened], and
   [closed] sums the spans already closed (by [reset], [detach] or a
   clear). *)
type gate = {
  g_pc : int;
  g_hook : gated;
  mutable due : int;
  mutable opened : int;
  mutable closed : int;
  mutable live : bool;
}

(* A per-pc subscriber, kept in attach order. *)
type subscriber = Plain of hook | Gated of gate

(* What the executor loads at a pc. [Dispatch] serves a pc whose
   subscribers are of one kind: plain ([due] 0, so a plain hook pays one
   compare) or gated ([due] the earliest exec count any gate wants, so an
   execution no gate wants stops at that compare). [Mixed] serves a pc
   with both: [plain] takes every execution, and [gates] only those that
   reach [due], the earliest exec count any of the pc's gates wants. *)
type dispatch =
  | Unhooked
  | Dispatch of { mutable due : int; fire : hook }
  | Mixed of { plain : hook; mutable due : int; gates : hook }

let stack_base = 0x7F0_0000L
let max_call_depth = 100_000

(* Registers, immediates and memory words are raw 64-bit words in [Bytes]
   buffers: reading or writing one moves a machine word, never a boxed
   [int64], so an instruction allocates nothing and runs no write barrier
   unless a hook at its pc needs the value boxed. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The decoded instruction set. One constructor per ALU operation and
   operand kind ([_r]: register, [_i]: immediate) and per branch
   condition, so the executor's single jump table does all the decoding
   [Isa.instr] would otherwise need at run time. *)
type opcode =
  | Add_r | Add_i | Sub_r | Sub_i | Mul_r | Mul_i
  | Div_r | Div_i | Rem_r | Rem_i
  | And_r | And_i | Or_r | Or_i | Xor_r | Xor_i
  | Sll_r | Sll_i | Srl_r | Srl_i | Sra_r | Sra_i
  | Cmpeq_r | Cmpeq_i | Cmplt_r | Cmplt_i | Cmple_r | Cmple_i
  | Cmpult_r | Cmpult_i
  | Ldi | Ld | St
  | Beq | Bne | Blt | Ble | Bgt | Bge
  | Jmp | Jsr | Jsr_ind | Ret | Halt | Nop
  | Bad_reg  (** names a register outside 0..31: raises when executed *)
  | Bad_pc  (** the sentinel past the end of the code *)

(* Register slots. Slot [scratch_slot] absorbs writes to the zero register,
   so the register file's slot 31 stays 0 and no arm tests the
   destination. *)
let scratch_slot = Isa.num_regs
let reg_bytes = 8 * (Isa.num_regs + 1)

let alu_opcode op ~imm =
  match (op : Isa.binop), imm with
  | Add, false -> Add_r | Add, true -> Add_i
  | Sub, false -> Sub_r | Sub, true -> Sub_i
  | Mul, false -> Mul_r | Mul, true -> Mul_i
  | Div, false -> Div_r | Div, true -> Div_i
  | Rem, false -> Rem_r | Rem, true -> Rem_i
  | And, false -> And_r | And, true -> And_i
  | Or, false -> Or_r | Or, true -> Or_i
  | Xor, false -> Xor_r | Xor, true -> Xor_i
  | Sll, false -> Sll_r | Sll, true -> Sll_i
  | Srl, false -> Srl_r | Srl, true -> Srl_i
  | Sra, false -> Sra_r | Sra, true -> Sra_i
  | Cmpeq, false -> Cmpeq_r | Cmpeq, true -> Cmpeq_i
  | Cmplt, false -> Cmplt_r | Cmplt, true -> Cmplt_i
  | Cmple, false -> Cmple_r | Cmple, true -> Cmple_i
  | Cmpult, false -> Cmpult_r | Cmpult, true -> Cmpult_i

let branch_opcode = function
  | Isa.Eq -> Beq | Isa.Ne -> Bne | Isa.Lt -> Blt
  | Isa.Le -> Ble | Isa.Gt -> Bgt | Isa.Ge -> Bge

(* The registers an instruction names; any outside 0..31 makes it
   [Bad_reg], which raises [Invalid_argument "index out of bounds"] (what
   an out-of-range register access has always raised) when executed. *)
let named_regs = function
  | Isa.Op (_, ra, Isa.Reg rb, rc) -> [ ra; rb; rc ]
  | Isa.Op (_, ra, Isa.Imm _, rc) -> [ ra; rc ]
  | Isa.Ldi (rd, _) -> [ rd ]
  | Isa.Ld (rd, rb, _) -> [ rd; rb ]
  | Isa.St (ra, rb, _) -> [ ra; rb ]
  | Isa.Br (_, ra, _) | Isa.Jsr_ind ra -> [ ra ]
  | Isa.Jmp _ | Isa.Jsr _ | Isa.Ret | Isa.Halt | Isa.Nop -> []

(* Decode a program into [(ops, args, imms)]: for pc [i] (and the sentinel
   [i = n]), [ops.(i)] is the opcode and [args.(3i .. 3i+2)] its operands
   a, b, c: registers as byte offsets into the register file, c the
   destination register or the branch/call target. The immediate (ALU
   operand, [Ldi] value, or load/store offset) is the word at [8i] in
   [imms]. *)
let decode (code : Isa.instr array) =
  let n = Array.length code in
  let ops = Array.make (n + 1) Bad_pc in
  let args = Array.make (3 * (n + 1)) 0 in
  let imms = Bytes.make (8 * (n + 1)) '\000' in
  Array.iteri
    (fun pc instr ->
      let src r = 8 * r in
      let dst r = 8 * (if r = Isa.zero_reg then scratch_slot else r) in
      let set ?(a = 0) ?(b = 0) ?(c = 0) ?(imm = 0L) op =
        ops.(pc) <- op;
        args.(3 * pc) <- a;
        args.((3 * pc) + 1) <- b;
        args.((3 * pc) + 2) <- c;
        Bytes.set_int64_ne imms (8 * pc) imm
      in
      if List.exists (fun r -> r < 0 || r >= Isa.num_regs) (named_regs instr)
      then set Bad_reg
      else
        match instr with
        | Isa.Op (op, ra, Isa.Reg rb, rc) ->
          set (alu_opcode op ~imm:false) ~a:(src ra) ~b:(src rb) ~c:(dst rc)
        | Isa.Op (op, ra, Isa.Imm v, rc) ->
          set (alu_opcode op ~imm:true) ~a:(src ra) ~c:(dst rc) ~imm:v
        | Isa.Ldi (rd, v) -> set Ldi ~c:(dst rd) ~imm:v
        | Isa.Ld (rd, rb, off) ->
          set Ld ~b:(src rb) ~c:(dst rd) ~imm:(Int64.of_int off)
        | Isa.St (ra, rb, off) ->
          set St ~a:(src ra) ~b:(src rb) ~imm:(Int64.of_int off)
        | Isa.Br (cond, ra, target) -> set (branch_opcode cond) ~a:(src ra) ~c:target
        | Isa.Jmp target -> set Jmp ~c:target
        | Isa.Jsr target -> set Jsr ~c:target
        | Isa.Jsr_ind r -> set Jsr_ind ~a:(src r)
        | Isa.Ret -> set Ret
        | Isa.Halt -> set Halt
        | Isa.Nop -> set Nop)
    code;
  (ops, args, imms)

let initial_call_stack = 64

type t = {
  prog : Asm.program;
  (* the decoded program (see [decode]); [ncode] is the sentinel's pc *)
  ops : opcode array;
  args : int array;
  imms : Bytes.t;
  ncode : int;
  (* Set by [run] for its loop: whether every step passes the
     ["machine.step"] fault-injection site. *)
  mutable step_fault : bool;
  regs : Bytes.t;
  mem : Memory.t;
  mutable pc : int;
  mutable halted : bool;
  mutable icount : int;
  exec_counts : int array;
  (* The call stack: frame [d] (0 = outermost) returns to [ret_pcs.(d)]
     and belongs to procedure [ret_procs.(d)] (-1 outside any proc). The
     arrays double on demand up to [max_call_depth] frames. *)
  mutable ret_pcs : int array;
  mutable ret_procs : int array;
  mutable depth : int;
  proc_of : int array; (* pc -> proc index, -1 outside any proc *)
  (* What the interpreter dispatches through: at most one dispatcher per
     point, so the hot path is the same single load + constructor match
     whether a point has zero, one, or many observers (see
     [rebuild_hook]). *)
  hooks : dispatch array;
  entry_hooks : (t -> unit) option array;
  return_hooks : (t -> int64 -> unit) option array;
  (* The actual subscriber lists (attach order), kept cold: only the
     subscription functions, [reset] and delivered gated events read
     them. *)
  hook_subs : subscriber list array;
  entry_subs : (t -> unit) list array;
  return_subs : (t -> int64 -> unit) list array;
  (* Open recording frame: while [Some], every subscription is also
     logged here so [with_attachment] can hand back a detachable record
     of exactly what one profiler installed. *)
  mutable recording : sub list option;
}

and sub =
  | S_hook of int * hook
  | S_gate of gate
  | S_entry of int * (t -> unit)
  | S_return of int * (t -> int64 -> unit)

type attachment = sub list

let build_proc_of (prog : Asm.program) =
  let proc_of = Array.make (Array.length prog.code) (-1) in
  Array.iter
    (fun (p : Asm.proc) ->
      for pc = p.pentry to p.pentry + p.plength - 1 do
        proc_of.(pc) <- p.pindex
      done)
    prog.procs;
  proc_of

let load_data t =
  List.iter (fun (base, words) -> Memory.load_segment t.mem base words) t.prog.data

let init_regs regs =
  Bytes.fill regs 0 reg_bytes '\000';
  set64u regs (8 * Isa.sp) stack_base

let create prog =
  let ops, args, imms = decode prog.Asm.code in
  let t =
    { prog;
      ops;
      args;
      imms;
      ncode = Array.length prog.code;
      step_fault = false;
      regs = Bytes.create reg_bytes;
      mem = Memory.create ();
      pc = prog.entry;
      halted = false;
      icount = 0;
      exec_counts = Array.make (Array.length prog.code) 0;
      ret_pcs = Array.make initial_call_stack 0;
      ret_procs = Array.make initial_call_stack 0;
      depth = 0;
      proc_of = build_proc_of prog;
      hooks = Array.make (Array.length prog.code) Unhooked;
      entry_hooks = Array.make (Array.length prog.procs) None;
      return_hooks = Array.make (Array.length prog.procs) None;
      hook_subs = Array.make (Array.length prog.code) [];
      entry_subs = Array.make (Array.length prog.procs) [];
      return_subs = Array.make (Array.length prog.procs) [];
      recording = None }
  in
  init_regs t.regs;
  load_data t;
  t

let program t = t.prog

let check_reg r = if r < 0 || r >= Isa.num_regs then invalid_arg "index out of bounds"

let reg t r =
  check_reg r;
  get64u t.regs (8 * r)

let set_reg t r v =
  check_reg r;
  if r <> Isa.zero_reg then set64u t.regs (8 * r) v

let memory t = t.mem
let pc t = t.pc
let halted t = t.halted
let icount t = t.icount
let exec_count t pc = t.exec_counts.(pc)
let call_depth t = t.depth

let caller_pc t = if t.depth = 0 then None else Some (t.ret_pcs.(t.depth - 1) - 1)

(* Additive subscription. A point's plain observers are one hook: a lone
   one is installed directly, several as a fan-out over a flat array in
   attach order. Its gates are one more hook that delivers to the gates
   due, in attach order. Both are built here, at attach time, so firing
   never allocates beyond the value's box. *)

let record t sub =
  match t.recording with
  | None -> ()
  | Some subs -> t.recording <- Some (sub :: subs)

(* The next exec count a gate wants after it took the execution at
   [count] and asked to skip [skip] more; a count the pc can never reach
   saturates at [max_int]. *)
let[@inline] due_after count skip =
  if skip <= 0 then count + 1
  else if skip >= max_int - count then max_int
  else count + 1 + skip

(* The earliest exec count any gate in [subs] wants. *)
let gates_due subs =
  List.fold_left
    (fun due -> function Gated g -> min due g.due | Plain _ -> due)
    max_int subs

(* Refold the dues of a gated pc's gates into its dispatcher (a
   [Dispatch] there has no plain subscriber). *)
let refresh_due t pc =
  let due = gates_due t.hook_subs.(pc) in
  match Array.unsafe_get t.hooks pc with
  | Unhooked -> ()
  | Dispatch d -> d.due <- due
  | Mixed d -> d.due <- due

(* Deliver the execution of [pc] at hand to each of its gates that wants
   it. *)
let offer t pc gates v a =
  let count = Array.unsafe_get t.exec_counts pc in
  for i = 0 to Array.length gates - 1 do
    let g = Array.unsafe_get gates i in
    if count >= g.due then g.due <- due_after count (g.g_hook v a)
  done;
  refresh_due t pc

(* One hook calling [hs] in order. *)
let fan = function
  | [ h ] -> h
  | hs ->
    let fs = Array.of_list hs in
    fun v a ->
      for i = 0 to Array.length fs - 1 do
        (Array.unsafe_get fs i) v a
      done

let rebuild_hook t pc =
  let subs = t.hook_subs.(pc) in
  let plain = List.filter_map (function Plain h -> Some h | Gated _ -> None) subs
  and gates =
    Array.of_list (List.filter_map (function Gated g -> Some g | Plain _ -> None) subs)
  in
  let offer_gates v a = offer t pc gates v a in
  t.hooks.(pc) <-
    (match (plain, Array.length gates) with
     | [], 0 -> Unhooked
     | _, 0 -> Dispatch { due = 0; fire = fan plain }
     | [], _ -> Dispatch { due = gates_due subs; fire = offer_gates }
     | _ -> Mixed { plain = fan plain; due = gates_due subs; gates = offer_gates })

let subscribe t pc s =
  t.hook_subs.(pc) <- t.hook_subs.(pc) @ [ s ];
  rebuild_hook t pc

let add_hook t pc h =
  subscribe t pc (Plain h);
  record t (S_hook (pc, h))

let add_gated_hook t pc h =
  let g =
    { g_pc = pc; g_hook = h; due = 0; opened = t.exec_counts.(pc); closed = 0;
      live = true }
  in
  subscribe t pc (Gated g);
  record t (S_gate g);
  g

let gate_executions t g =
  if g.live then g.closed + t.exec_counts.(g.g_pc) - g.opened else g.closed

let close_span t g =
  g.closed <- gate_executions t g;
  g.live <- false

let close_gates t subs =
  List.iter (function Gated g -> close_span t g | Plain _ -> ()) subs

let clear_hook t pc =
  close_gates t t.hook_subs.(pc);
  t.hooks.(pc) <- Unhooked;
  t.hook_subs.(pc) <- []

let clear_all_hooks t =
  Array.iter (close_gates t) t.hook_subs;
  Array.fill t.hooks 0 (Array.length t.hooks) Unhooked;
  Array.fill t.hook_subs 0 (Array.length t.hook_subs) []

let hook_count t pc = List.length t.hook_subs.(pc)

(* Zeroing the exec counts closes every gate's span at the old count and
   rebases its [due] onto the new one, so a gate still withholds exactly
   the executions it had left. *)
let rebase_gates t =
  Array.iteri
    (fun pc subs ->
      let count = t.exec_counts.(pc) in
      List.iter
        (function
          | Plain _ -> ()
          | Gated g ->
            g.closed <- gate_executions t g;
            g.opened <- 0;
            g.due <- g.due - count)
        subs;
      if List.exists (function Gated _ -> true | Plain _ -> false) subs then
        refresh_due t pc)
    t.hook_subs

let reset t =
  init_regs t.regs;
  Memory.clear t.mem;
  load_data t;
  t.pc <- t.prog.entry;
  t.halted <- false;
  t.icount <- 0;
  rebase_gates t;
  Array.fill t.exec_counts 0 (Array.length t.exec_counts) 0;
  t.depth <- 0

let rebuild_entry t i =
  match t.entry_subs.(i) with
  | [] -> t.entry_hooks.(i) <- None
  | [ h ] -> t.entry_hooks.(i) <- Some h
  | hs ->
    let fs = Array.of_list hs in
    t.entry_hooks.(i) <-
      Some
        (fun m ->
          for k = 0 to Array.length fs - 1 do
            (Array.unsafe_get fs k) m
          done)

let add_proc_entry_hook t i h =
  t.entry_subs.(i) <- t.entry_subs.(i) @ [ h ];
  record t (S_entry (i, h));
  rebuild_entry t i

let rebuild_return t i =
  match t.return_subs.(i) with
  | [] -> t.return_hooks.(i) <- None
  | [ h ] -> t.return_hooks.(i) <- Some h
  | hs ->
    let fs = Array.of_list hs in
    t.return_hooks.(i) <-
      Some
        (fun m v ->
          for k = 0 to Array.length fs - 1 do
            (Array.unsafe_get fs k) m v
          done)

let add_proc_return_hook t i h =
  t.return_subs.(i) <- t.return_subs.(i) @ [ h ];
  record t (S_return (i, h));
  rebuild_return t i

let with_attachment t f =
  (match t.recording with
   | Some _ -> invalid_arg "Machine.with_attachment: recording already open"
   | None -> ());
  t.recording <- Some [];
  match f () with
  | v ->
    let subs = match t.recording with Some s -> s | None -> [] in
    t.recording <- None;
    (v, subs)
  | exception e ->
    t.recording <- None;
    raise e

(* Remove the first element matching [is]: the same function may be
   subscribed twice (two frames of the same profiler), and only the
   recorded instance must go. *)
let remove_first is l =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: rest -> if is y then List.rev_append acc rest else go (y :: acc) rest
  in
  go [] l

let detach t subs =
  List.iter
    (fun sub ->
      match sub with
      | S_hook (pc, h) ->
        t.hook_subs.(pc) <-
          remove_first
            (function Plain h' -> h' == h | Gated _ -> false)
            t.hook_subs.(pc);
        rebuild_hook t pc
      | S_gate g ->
        close_span t g;
        t.hook_subs.(g.g_pc) <-
          remove_first
            (function Gated g' -> g' == g | Plain _ -> false)
            t.hook_subs.(g.g_pc);
        rebuild_hook t g.g_pc
      | S_entry (i, h) ->
        t.entry_subs.(i) <- remove_first (( == ) h) t.entry_subs.(i);
        rebuild_entry t i
      | S_return (i, h) ->
        t.return_subs.(i) <- remove_first (( == ) h) t.return_subs.(i);
        rebuild_return t i)
    subs

let grow_call_stack t =
  let size = min max_call_depth (2 * Array.length t.ret_pcs) in
  let extend a = Array.append a (Array.make (size - Array.length a) 0) in
  t.ret_pcs <- extend t.ret_pcs;
  t.ret_procs <- extend t.ret_procs

let enter_proc t pc target =
  if target < 0 || target >= t.ncode then raise (Trap (Invalid_pc target));
  let callee = t.proc_of.(target) in
  if t.depth >= max_call_depth then raise (Trap (Call_depth_exceeded max_call_depth));
  if t.depth = Array.length t.ret_pcs then grow_call_stack t;
  Array.unsafe_set t.ret_pcs t.depth (pc + 1);
  Array.unsafe_set t.ret_procs t.depth callee;
  t.depth <- t.depth + 1;
  t.pc <- target;
  if callee >= 0 then
    match t.entry_hooks.(callee) with None -> () | Some h -> h t

(* [Ret]: [v] is [v0], read before the return hooks run. The frame is
   popped after them, so a return hook still sees its own frame. *)
let[@inline] leave_proc t v =
  if t.depth = 0 then t.halted <- true
  else begin
    let d = t.depth - 1 in
    let callee = Array.unsafe_get t.ret_procs d in
    (if callee >= 0 then
       match t.return_hooks.(callee) with None -> () | Some h -> h t v);
    t.depth <- d;
    t.pc <- Array.unsafe_get t.ret_pcs d
  end

(* Deliver the per-pc dispatcher. Every arm ends here, after [tick], with
   the value and address it produced (0L where the instruction has none).
   Both stay unboxed up to this point: they are boxed inside a call
   only, so a point without subscribers, or an execution every gate there
   withholds, allocates nothing, and a delivered event costs one box per
   value and call ([Mixed] boxes again for gates that are due). [pc] is a
   real pc here (the sentinel never fires hooks) and [hooks] matches the
   code array's length. *)
let[@inline] fire t pc v a =
  match Array.unsafe_get t.hooks pc with
  | Unhooked -> ()
  | Dispatch d -> if Array.unsafe_get t.exec_counts pc >= d.due then d.fire v a
  | Mixed d ->
    d.plain v a;
    if Array.unsafe_get t.exec_counts pc >= d.due then d.gates v a

let[@inline] tick t pc =
  Array.unsafe_set t.exec_counts pc (Array.unsafe_get t.exec_counts pc + 1);
  t.icount <- t.icount + 1

(* Finish an instruction that wrote [v] to the register slot at byte
   offset [dst] (the scratch slot for the zero register). *)
let[@inline] retire t pc dst v a =
  set64u t.regs dst v;
  t.pc <- pc + 1;
  fire t pc v a

let[@inline] bool_word b = if b then 1L else 0L

let[@inline] branch t pc target taken =
  t.pc <- (if taken then target else pc + 1);
  fire t pc (bool_word taken) 0L

(* Shifts use the low 6 bits of the second operand. *)
let[@inline] sll (x : int64) y = Int64.shift_left x (Int64.to_int y land 63)
let[@inline] srl (x : int64) y = Int64.shift_right_logical x (Int64.to_int y land 63)
let[@inline] sra (x : int64) y = Int64.shift_right x (Int64.to_int y land 63)

let[@inline] unsigned_lt (x : int64) y =
  Int64.sub x Int64.min_int < Int64.sub y Int64.min_int

let[@inline] divisor pc (y : int64) =
  if y = 0L then raise (Trap (Div_by_zero pc)) else y

(* Execute the instruction at [t.pc]: the one executor [step] and [run]'s
   loop both inline. A pc outside the code dispatches to the sentinel. *)
let[@inline] exec t =
  let pc = t.pc in
  let i = if pc >= 0 && pc < t.ncode then pc else t.ncode in
  let ops = t.ops and args = t.args and imms = t.imms in
  let regs = t.regs in
  let k = 3 * i in
  let oa = Array.unsafe_get args k
  and ob = Array.unsafe_get args (k + 1)
  and dst = Array.unsafe_get args (k + 2) in
  let oi = 8 * i in
  match Array.unsafe_get ops i with
  | Add_r ->
    tick t pc;
    retire t pc dst (Int64.add (get64u regs oa) (get64u regs ob)) 0L
  | Add_i ->
    tick t pc;
    retire t pc dst (Int64.add (get64u regs oa) (get64u imms oi)) 0L
  | Sub_r ->
    tick t pc;
    retire t pc dst (Int64.sub (get64u regs oa) (get64u regs ob)) 0L
  | Sub_i ->
    tick t pc;
    retire t pc dst (Int64.sub (get64u regs oa) (get64u imms oi)) 0L
  | Mul_r ->
    tick t pc;
    retire t pc dst (Int64.mul (get64u regs oa) (get64u regs ob)) 0L
  | Mul_i ->
    tick t pc;
    retire t pc dst (Int64.mul (get64u regs oa) (get64u imms oi)) 0L
  | Div_r ->
    tick t pc;
    let y = divisor pc (get64u regs ob) in
    retire t pc dst (Int64.div (get64u regs oa) y) 0L
  | Div_i ->
    tick t pc;
    let y = divisor pc (get64u imms oi) in
    retire t pc dst (Int64.div (get64u regs oa) y) 0L
  | Rem_r ->
    tick t pc;
    let y = divisor pc (get64u regs ob) in
    retire t pc dst (Int64.rem (get64u regs oa) y) 0L
  | Rem_i ->
    tick t pc;
    let y = divisor pc (get64u imms oi) in
    retire t pc dst (Int64.rem (get64u regs oa) y) 0L
  | And_r ->
    tick t pc;
    retire t pc dst (Int64.logand (get64u regs oa) (get64u regs ob)) 0L
  | And_i ->
    tick t pc;
    retire t pc dst (Int64.logand (get64u regs oa) (get64u imms oi)) 0L
  | Or_r ->
    tick t pc;
    retire t pc dst (Int64.logor (get64u regs oa) (get64u regs ob)) 0L
  | Or_i ->
    tick t pc;
    retire t pc dst (Int64.logor (get64u regs oa) (get64u imms oi)) 0L
  | Xor_r ->
    tick t pc;
    retire t pc dst (Int64.logxor (get64u regs oa) (get64u regs ob)) 0L
  | Xor_i ->
    tick t pc;
    retire t pc dst (Int64.logxor (get64u regs oa) (get64u imms oi)) 0L
  | Sll_r -> tick t pc; retire t pc dst (sll (get64u regs oa) (get64u regs ob)) 0L
  | Sll_i -> tick t pc; retire t pc dst (sll (get64u regs oa) (get64u imms oi)) 0L
  | Srl_r -> tick t pc; retire t pc dst (srl (get64u regs oa) (get64u regs ob)) 0L
  | Srl_i -> tick t pc; retire t pc dst (srl (get64u regs oa) (get64u imms oi)) 0L
  | Sra_r -> tick t pc; retire t pc dst (sra (get64u regs oa) (get64u regs ob)) 0L
  | Sra_i -> tick t pc; retire t pc dst (sra (get64u regs oa) (get64u imms oi)) 0L
  | Cmpeq_r ->
    tick t pc;
    retire t pc dst (bool_word (get64u regs oa = get64u regs ob)) 0L
  | Cmpeq_i ->
    tick t pc;
    retire t pc dst (bool_word (get64u regs oa = get64u imms oi)) 0L
  | Cmplt_r ->
    tick t pc;
    retire t pc dst (bool_word (get64u regs oa < get64u regs ob)) 0L
  | Cmplt_i ->
    tick t pc;
    retire t pc dst (bool_word (get64u regs oa < get64u imms oi)) 0L
  | Cmple_r ->
    tick t pc;
    retire t pc dst (bool_word (get64u regs oa <= get64u regs ob)) 0L
  | Cmple_i ->
    tick t pc;
    retire t pc dst (bool_word (get64u regs oa <= get64u imms oi)) 0L
  | Cmpult_r ->
    tick t pc;
    retire t pc dst (bool_word (unsigned_lt (get64u regs oa) (get64u regs ob))) 0L
  | Cmpult_i ->
    tick t pc;
    retire t pc dst (bool_word (unsigned_lt (get64u regs oa) (get64u imms oi))) 0L
  | Ldi -> tick t pc; retire t pc dst (get64u imms oi) 0L
  | Ld ->
    tick t pc;
    let addr = Int64.add (get64u regs ob) (get64u imms oi) in
    if addr < 0L then raise (Trap (Negative_address pc));
    retire t pc dst (Memory.read t.mem addr) addr
  | St ->
    tick t pc;
    let addr = Int64.add (get64u regs ob) (get64u imms oi) in
    if addr < 0L then raise (Trap (Negative_address pc));
    let v = get64u regs oa in
    Memory.write t.mem addr v;
    t.pc <- pc + 1;
    fire t pc v addr
  | Beq -> tick t pc; branch t pc dst (get64u regs oa = 0L)
  | Bne -> tick t pc; branch t pc dst (get64u regs oa <> 0L)
  | Blt -> tick t pc; branch t pc dst (get64u regs oa < 0L)
  | Ble -> tick t pc; branch t pc dst (get64u regs oa <= 0L)
  | Bgt -> tick t pc; branch t pc dst (get64u regs oa > 0L)
  | Bge -> tick t pc; branch t pc dst (get64u regs oa >= 0L)
  | Jmp ->
    tick t pc;
    t.pc <- dst;
    fire t pc 0L 0L
  | Jsr ->
    tick t pc;
    enter_proc t pc dst;
    fire t pc 0L 0L
  | Jsr_ind ->
    tick t pc;
    enter_proc t pc (Int64.to_int (get64u regs oa));
    fire t pc 0L 0L
  | Ret ->
    tick t pc;
    let v = get64u regs (8 * Isa.v0) in
    leave_proc t v;
    fire t pc v 0L
  | Halt ->
    tick t pc;
    t.halted <- true;
    fire t pc 0L 0L
  | Nop ->
    tick t pc;
    t.pc <- pc + 1;
    fire t pc 0L 0L
  | Bad_reg ->
    tick t pc;
    invalid_arg "index out of bounds"
  | Bad_pc -> raise (Trap (Invalid_pc pc))

let step t = if not t.halted then exec t

let m_runs = Obs.Metrics.counter "machine.runs"
let m_steps = Obs.Metrics.counter "machine.steps"

(* Counting down in a tail-recursive loop keeps the budget in a register.
   [loop] runs until the program halts or the fuel left falls to [stop],
   and returns the fuel left. The fault-injection flag is read once per
   run into [t.step_fault], so a fault-free loop pays one perfectly
   predicted test per step, and the loop carries only [t], the countdown
   and [stop]. A governed run polls the budget on a periodic boundary
   (every 4096 steps, when the fuel counter's low bits are clear), running
   the steps between two boundaries as one [loop] segment. *)
let poll_mask = 4095

let rec loop t remaining stop =
  if t.halted || remaining <= stop then remaining
  else begin
    if t.step_fault then Fault.point ~site:"machine.step";
    exec t;
    loop t (remaining - 1) stop
  end

(* Each segment ends at the next boundary below the fuel left. *)
let rec polled t remaining =
  if t.halted || remaining <= 0 then remaining
  else begin
    if remaining land poll_mask = 0 then Budget.poll ();
    polled t (loop t remaining ((remaining - 1) land lnot poll_mask))
  end

let run ?(fuel = 500_000_000) t =
  (* Observability sits entirely outside the loop: a span around the whole
     run and two counter adds after it, never per step. *)
  let governed = Budget.armed () in
  t.step_fault <- Fault.enabled ();
  let start_icount = t.icount in
  let finish () =
    Obs.Metrics.incr m_runs;
    Obs.Metrics.add m_steps (t.icount - start_icount)
  in
  Obs.Trace.begin_span ~cat:"machine" "machine.run";
  if governed then Budget.poll ();
  (match
     let left = if governed then polled t fuel else loop t fuel 0 in
     if left <= 0 && not t.halted then raise (Trap (Fuel_exhausted fuel))
   with
   | () -> ()
   | exception e ->
     finish ();
     Obs.Trace.end_span ~cat:"machine" "machine.run";
     raise e);
  finish ();
  Obs.Trace.end_span ~cat:"machine" "machine.run";
  t.icount

let execute ?fuel prog =
  let t = create prog in
  ignore (run ?fuel t);
  t
