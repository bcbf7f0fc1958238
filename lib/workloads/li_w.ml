(* li: a bytecode interpreter modeled on 130.li (xlisp). The host program
   is a stack-machine VM; the "lisp program" is guest bytecode kept in
   memory. Hot behaviour: the opcode-fetch load sees a small, skewed set
   of values (the guest's instruction mix), and the arithmetic helper's
   opcode argument is semi-invariant — the paper's interpreter story. *)

open Isa

(* Guest opcodes. *)
let op_pushc = 1L
let op_load = 2L
let op_store = 3L
let op_add = 4L
let op_sub = 5L
let op_mul = 6L
let op_jnz = 7L
let op_halt = 8L

(* Guest program: acc = sum of i*i + 3*i for i = n .. 1, in vars:
   [0] = i, [1] = acc. *)
let guest_program n =
  [| op_pushc; Int64.of_int n;  (*  0 *)
     op_store; 0L;              (*  2 *)
     op_pushc; 0L;              (*  4 *)
     op_store; 1L;              (*  6 *)
     (* loop body starts at 8 *)
     op_load; 0L;               (*  8 *)
     op_load; 0L;               (* 10 *)
     op_mul;                    (* 12 *)
     op_load; 0L;               (* 13 *)
     op_pushc; 3L;              (* 15 *)
     op_mul;                    (* 17 *)
     op_add;                    (* 18 *)
     op_load; 1L;               (* 19 *)
     op_add;                    (* 21 *)
     op_store; 1L;              (* 22 *)
     op_load; 0L;               (* 24 *)
     op_pushc; 1L;              (* 26 *)
     op_sub;                    (* 28 *)
     op_store; 0L;              (* 29 *)
     op_load; 0L;               (* 31 *)
     op_jnz; 8L;                (* 33 *)
     op_halt |]                 (* 35 *)

let build input =
  let n = Workload.pick input ~test:1_200 ~train:4_200 in
  let b = Asm.create () in
  let code_base = Asm.data b (guest_program n) in
  let vars = Asm.reserve b 16 in
  let stack = Asm.reserve b 256 in
  let result = Asm.reserve b 1 in

  (* arith(op=a0, x=a1, y=a2) -> v0. Leaf; branch chain on the opcode. *)
  Asm.proc b "arith" (fun b ->
      Asm.cmpeqi b ~dst:t0 a0 op_add;
      Asm.br b Ne t0 "do_add";
      Asm.cmpeqi b ~dst:t0 a0 op_sub;
      Asm.br b Ne t0 "do_sub";
      Asm.mul b ~dst:v0 a1 a2;
      Asm.ret b;
      Asm.label b "do_add";
      Asm.add b ~dst:v0 a1 a2;
      Asm.ret b;
      Asm.label b "do_sub";
      Asm.sub b ~dst:v0 a1 a2;
      Asm.ret b);

  (* vm_run(code=a0, vars=a1, stack=a2) -> v0 = vars[1].
     s0=guest pc, s1=code, s2=vars, s3=stack, s4=stack index. *)
  Asm.proc b "vm_run" (fun b ->
      Asm.ldi b s0 0L;
      Asm.mov b ~dst:s1 a0;
      Asm.mov b ~dst:s2 a1;
      Asm.mov b ~dst:s3 a2;
      Asm.ldi b s4 0L;
      Asm.label b "dispatch";
      Asm.add b ~dst:t0 s1 s0;
      Asm.ld b ~dst:t1 ~base:t0 ~off:0;
      (* PUSHC *)
      Asm.cmpeqi b ~dst:t2 t1 op_pushc;
      Asm.br b Eq t2 "not_pushc";
      Asm.ld b ~dst:t3 ~base:t0 ~off:1;
      Asm.add b ~dst:t4 s3 s4;
      Asm.st b ~src:t3 ~base:t4 ~off:0;
      Asm.addi b ~dst:s4 s4 1L;
      Asm.addi b ~dst:s0 s0 2L;
      Asm.jmp b "dispatch";
      Asm.label b "not_pushc";
      (* LOAD *)
      Asm.cmpeqi b ~dst:t2 t1 op_load;
      Asm.br b Eq t2 "not_load";
      Asm.ld b ~dst:t3 ~base:t0 ~off:1;
      Asm.add b ~dst:t4 s2 t3;
      Asm.ld b ~dst:t5 ~base:t4 ~off:0;
      Asm.add b ~dst:t4 s3 s4;
      Asm.st b ~src:t5 ~base:t4 ~off:0;
      Asm.addi b ~dst:s4 s4 1L;
      Asm.addi b ~dst:s0 s0 2L;
      Asm.jmp b "dispatch";
      Asm.label b "not_load";
      (* STORE *)
      Asm.cmpeqi b ~dst:t2 t1 op_store;
      Asm.br b Eq t2 "not_store";
      Asm.ld b ~dst:t3 ~base:t0 ~off:1;
      Asm.subi b ~dst:s4 s4 1L;
      Asm.add b ~dst:t4 s3 s4;
      Asm.ld b ~dst:t5 ~base:t4 ~off:0;
      Asm.add b ~dst:t4 s2 t3;
      Asm.st b ~src:t5 ~base:t4 ~off:0;
      Asm.addi b ~dst:s0 s0 2L;
      Asm.jmp b "dispatch";
      Asm.label b "not_store";
      (* JNZ *)
      Asm.cmpeqi b ~dst:t2 t1 op_jnz;
      Asm.br b Eq t2 "not_jnz";
      Asm.subi b ~dst:s4 s4 1L;
      Asm.add b ~dst:t4 s3 s4;
      Asm.ld b ~dst:t5 ~base:t4 ~off:0;
      Asm.br b Ne t5 "take_jump";
      Asm.addi b ~dst:s0 s0 2L;
      Asm.jmp b "dispatch";
      Asm.label b "take_jump";
      Asm.ld b ~dst:s0 ~base:t0 ~off:1;
      Asm.jmp b "dispatch";
      Asm.label b "not_jnz";
      (* HALT *)
      Asm.cmpeqi b ~dst:t2 t1 op_halt;
      Asm.br b Ne t2 "vm_done";
      (* binary arithmetic: pop y, pop x, call arith, push result *)
      Asm.subi b ~dst:s4 s4 1L;
      Asm.add b ~dst:t4 s3 s4;
      Asm.ld b ~dst:a2 ~base:t4 ~off:0;
      Asm.subi b ~dst:s4 s4 1L;
      Asm.add b ~dst:t4 s3 s4;
      Asm.ld b ~dst:a1 ~base:t4 ~off:0;
      Asm.mov b ~dst:a0 t1;
      Asm.call b "arith";
      Asm.add b ~dst:t4 s3 s4;
      Asm.st b ~src:v0 ~base:t4 ~off:0;
      Asm.addi b ~dst:s4 s4 1L;
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "dispatch";
      Asm.label b "vm_done";
      Asm.ld b ~dst:v0 ~base:s2 ~off:1;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 code_base;
      Asm.ldi b a1 vars;
      Asm.ldi b a2 stack;
      Asm.call b "vm_run";
      Asm.ldi b t0 result;
      Asm.st b ~src:v0 ~base:t0 ~off:0;
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "li";
    wmimics = "130.li (SPEC95)";
    wdescr = "stack-machine bytecode interpreter running a guest loop";
    wbuild = build;
    warities = [ ("arith", 3); ("vm_run", 3) ] }
