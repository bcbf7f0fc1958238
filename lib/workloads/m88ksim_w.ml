(* m88ksim: a processor simulator simulating a small embedded program,
   modeled on 124.m88ksim. The flagship specialization target of the
   thesis: the execute procedure's opcode argument is semi-invariant
   because the guest program is ADD-heavy, and the instruction-fetch load
   sees only the handful of guest instruction words. *)

open Isa

(* Guest encoding: op*2^24 + rd*2^16 + field, field = rs or a 16-bit
   immediate. *)
let enc op rd field =
  assert (field >= 0 && field < 65536);
  Int64.of_int ((op * 16777216) + (rd * 65536) + field)

let op_add = 1 (* regs[rd] <- regs[rd] + regs[rs] *)
let op_addi = 2 (* regs[rd] <- regs[rd] + imm *)
let op_shr = 3 (* regs[rd] <- regs[rd] >> (regs[rs] & 7) *)
let op_subi = 4 (* regs[rd] <- regs[rd] - imm *)
let op_bnz = 5 (* if regs[rd] <> 0 then pc <- imm *)
let op_halt = 6

(* ADD-heavy guest loop: r1 = iteration counter, r2..r6 accumulate. *)
let guest_program iterations =
  [| enc op_addi 1 iterations;  (* 0: r1 = n *)
     enc op_addi 2 3;           (* 1: r2 = 3 *)
     enc op_addi 7 2;           (* 2: r7 = 2 (shift amount) *)
     (* loop body at 3 *)
     enc op_add 3 2;            (* 3: r3 += r2 *)
     enc op_add 4 3;            (* 4: r4 += r3 *)
     enc op_add 5 4;            (* 5: r5 += r4 *)
     enc op_add 6 5;            (* 6: r6 += r5 *)
     enc op_add 2 6;            (* 7: r2 += r6 *)
     enc op_shr 2 7;            (* 8: r2 >>= 2, keeps magnitudes sane *)
     enc op_subi 1 1;           (* 9: r1 -= 1 *)
     enc op_bnz 1 3;            (* 10: loop while r1 <> 0 *)
     enc op_halt 0 0 |]         (* 11 *)

let build input =
  let iterations = Workload.pick input ~test:180 ~train:650 in
  let b = Asm.create () in
  let code_base = Asm.data b (guest_program iterations) in
  let gregs = Asm.reserve b 16 in
  let decode_out = Asm.reserve b 2 (* [0]=rd, [1]=field *) in
  let result = Asm.reserve b 2 in

  (* decode(word=a0) -> v0 = opcode; rd and field go to decode_out. Leaf. *)
  Asm.proc b "decode" (fun b ->
      Asm.srli b ~dst:v0 a0 24L;
      Asm.srli b ~dst:t0 a0 16L;
      Asm.andi b ~dst:t0 t0 255L;
      Asm.andi b ~dst:t1 a0 65535L;
      Asm.ldi b t2 decode_out;
      Asm.st b ~src:t0 ~base:t2 ~off:0;
      Asm.st b ~src:t1 ~base:t2 ~off:1;
      Asm.ret b);

  (* execute(op=a0, rd=a1, field=a2, pc=a3) -> v0 = next pc. Leaf. The
     dispatch chain tests the frequent ADD opcode last, so a version
     specialized on op=ADD eliminates the whole chain — the thesis's
     specialization case study. *)
  Asm.proc b "execute" (fun b ->
      Asm.ldi b t0 gregs;
      Asm.add b ~dst:t1 t0 a1; (* &regs[rd] *)
      Asm.cmpeqi b ~dst:t2 a0 (Int64.of_int op_addi);
      Asm.br b Ne t2 "x_addi";
      Asm.cmpeqi b ~dst:t2 a0 (Int64.of_int op_shr);
      Asm.br b Ne t2 "x_shr";
      Asm.cmpeqi b ~dst:t2 a0 (Int64.of_int op_subi);
      Asm.br b Ne t2 "x_subi";
      Asm.cmpeqi b ~dst:t2 a0 (Int64.of_int op_bnz);
      Asm.br b Ne t2 "x_bnz";
      Asm.cmpeqi b ~dst:t2 a0 (Int64.of_int op_add);
      Asm.br b Ne t2 "x_add";
      (* halt: signal with next pc = -1 *)
      Asm.ldi b v0 (-1L);
      Asm.ret b;
      Asm.label b "x_add";
      Asm.add b ~dst:t3 t0 a2;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.ld b ~dst:t5 ~base:t1 ~off:0;
      Asm.add b ~dst:t5 t5 t4;
      Asm.st b ~src:t5 ~base:t1 ~off:0;
      Asm.addi b ~dst:v0 a3 1L;
      Asm.ret b;
      Asm.label b "x_addi";
      Asm.ld b ~dst:t5 ~base:t1 ~off:0;
      Asm.add b ~dst:t5 t5 a2;
      Asm.st b ~src:t5 ~base:t1 ~off:0;
      Asm.addi b ~dst:v0 a3 1L;
      Asm.ret b;
      Asm.label b "x_shr";
      Asm.add b ~dst:t3 t0 a2;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.andi b ~dst:t4 t4 7L;
      Asm.ld b ~dst:t5 ~base:t1 ~off:0;
      Asm.srl b ~dst:t5 t5 t4;
      Asm.st b ~src:t5 ~base:t1 ~off:0;
      Asm.addi b ~dst:v0 a3 1L;
      Asm.ret b;
      Asm.label b "x_subi";
      Asm.ld b ~dst:t5 ~base:t1 ~off:0;
      Asm.sub b ~dst:t5 t5 a2;
      Asm.st b ~src:t5 ~base:t1 ~off:0;
      Asm.addi b ~dst:v0 a3 1L;
      Asm.ret b;
      Asm.label b "x_bnz";
      Asm.ld b ~dst:t5 ~base:t1 ~off:0;
      Asm.br b Ne t5 "x_bnz_taken";
      Asm.addi b ~dst:v0 a3 1L;
      Asm.ret b;
      Asm.label b "x_bnz_taken";
      Asm.mov b ~dst:v0 a2;
      Asm.ret b);

  (* simulate(code=a0) -> v0 = guest r6 at halt. s0=guest pc, s1=code,
     s2=retired instruction count. *)
  Asm.proc b "simulate" (fun b ->
      Asm.ldi b s0 0L;
      Asm.mov b ~dst:s1 a0;
      Asm.ldi b s2 0L;
      Asm.label b "cycle";
      Asm.add b ~dst:t0 s1 s0;
      Asm.ld b ~dst:a0 ~base:t0 ~off:0; (* fetch *)
      Asm.call b "decode";
      Asm.mov b ~dst:a0 v0;
      Asm.ldi b t1 decode_out;
      Asm.ld b ~dst:a1 ~base:t1 ~off:0;
      Asm.ld b ~dst:a2 ~base:t1 ~off:1;
      Asm.mov b ~dst:a3 s0;
      Asm.call b "execute";
      Asm.addi b ~dst:s2 s2 1L;
      Asm.br b Lt v0 "sim_done"; (* execute returned -1: guest halted *)
      Asm.mov b ~dst:s0 v0;
      Asm.jmp b "cycle";
      Asm.label b "sim_done";
      Asm.ldi b t0 gregs;
      Asm.ld b ~dst:t1 ~base:t0 ~off:6;
      Asm.ldi b t2 result;
      Asm.st b ~src:t1 ~base:t2 ~off:0;
      Asm.st b ~src:s2 ~base:t2 ~off:1;
      Asm.mov b ~dst:v0 t1;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 code_base;
      Asm.call b "simulate";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "m88ksim";
    wmimics = "124.m88ksim (SPEC95)";
    wdescr = "CPU simulator running an ADD-heavy guest loop";
    wbuild = build;
    warities = [ ("decode", 1); ("execute", 4); ("simulate", 1) ] }
