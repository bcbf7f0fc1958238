(* fpppp: dense fixed-point linear algebra modeled on 145.fpppp (quantum
   chemistry: enormous straight-line basic blocks over small dense data).
   A fixed "integral table" feeds repeated matrix-vector products; the
   table loads are perfectly invariant per location, and the scale helper
   is called from two sites with site-constant shift amounts. *)

open Isa

let dim = 12

let build input =
  let rng = Workload.rng "fpppp" input in
  let sweeps = Workload.pick input ~test:60 ~train:200 in
  let matrix =
    Array.init (dim * dim) (fun _ -> Int64.of_int (Rng.int rng 512 - 256))
  in
  let vector0 = Array.init dim (fun _ -> Int64.of_int (Rng.int rng 1024)) in
  let b = Asm.create () in
  let matrix_base = Asm.data b matrix in
  let vec_a = Asm.data b vector0 in
  let vec_b = Asm.reserve b dim in
  let result = Asm.reserve b 1 in

  (* matvec(m=a0, x=a1, y=a2): y = m * x over the fixed dim. Leaf. *)
  Asm.proc b "matvec" (fun b ->
      Asm.ldi b t6 0L; (* row *)
      Asm.label b "mv_row";
      Asm.cmplti b ~dst:t0 t6 (Int64.of_int dim);
      Asm.br b Eq t0 "mv_done";
      Asm.ldi b t1 0L; (* acc *)
      Asm.ldi b t2 0L; (* col *)
      Asm.muli b ~dst:t7 t6 (Int64.of_int dim);
      Asm.label b "mv_col";
      Asm.cmplti b ~dst:t0 t2 (Int64.of_int dim);
      Asm.br b Eq t0 "mv_store";
      Asm.add b ~dst:t3 t7 t2;
      Asm.add b ~dst:t3 a0 t3;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.add b ~dst:t5 a1 t2;
      Asm.ld b ~dst:t5 ~base:t5 ~off:0;
      Asm.mul b ~dst:t4 t4 t5;
      Asm.add b ~dst:t1 t1 t4;
      Asm.addi b ~dst:t2 t2 1L;
      Asm.jmp b "mv_col";
      Asm.label b "mv_store";
      Asm.add b ~dst:t3 a2 t6;
      Asm.st b ~src:t1 ~base:t3 ~off:0;
      Asm.addi b ~dst:t6 t6 1L;
      Asm.jmp b "mv_row";
      Asm.label b "mv_done";
      Asm.ret b);

  (* scale(v=a0, shift=a1) -> v0 = checksum: v[i] <- v[i] >> shift,
     clamped non-negative. Leaf. *)
  Asm.proc b "scale" (fun b ->
      Asm.ldi b t0 0L;
      Asm.ldi b t1 0L;
      Asm.label b "sc_loop";
      Asm.cmplti b ~dst:t2 t0 (Int64.of_int dim);
      Asm.br b Eq t2 "sc_done";
      Asm.add b ~dst:t3 a0 t0;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.sra b ~dst:t4 t4 a1;
      Asm.br b Ge t4 "sc_pos";
      Asm.sub b ~dst:t4 zero_reg t4;
      Asm.label b "sc_pos";
      Asm.st b ~src:t4 ~base:t3 ~off:0;
      Asm.add b ~dst:t1 t1 t4;
      Asm.addi b ~dst:t0 t0 1L;
      Asm.jmp b "sc_loop";
      Asm.label b "sc_done";
      Asm.mov b ~dst:v0 t1;
      Asm.ret b);

  (* sweep(n=a0): ping-pong matvec between the two vectors, rescaling
     with site-specific shifts so magnitudes stay bounded.
     s0=i s1=n s2=checksum *)
  Asm.proc b "sweep" (fun b ->
      Asm.ldi b s0 0L;
      Asm.mov b ~dst:s1 a0;
      Asm.ldi b s2 0L;
      Asm.label b "sw_loop";
      Asm.sub b ~dst:t0 s0 s1;
      Asm.br b Ge t0 "sw_done";
      Asm.ldi b a0 matrix_base;
      Asm.ldi b a1 vec_a;
      Asm.ldi b a2 vec_b;
      Asm.call b "matvec";
      (* site 1: aggressive rescale of the fresh vector *)
      Asm.ldi b a0 vec_b;
      Asm.ldi b a1 9L;
      Asm.call b "scale";
      Asm.add b ~dst:s2 s2 v0;
      Asm.ldi b a0 matrix_base;
      Asm.ldi b a1 vec_b;
      Asm.ldi b a2 vec_a;
      Asm.call b "matvec";
      (* site 2: gentler rescale on the way back *)
      Asm.ldi b a0 vec_a;
      Asm.ldi b a1 8L;
      Asm.call b "scale";
      Asm.add b ~dst:s2 s2 v0;
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "sw_loop";
      Asm.label b "sw_done";
      Asm.ldi b t0 result;
      Asm.st b ~src:s2 ~base:t0 ~off:0;
      Asm.mov b ~dst:v0 s2;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 (Int64.of_int sweeps);
      Asm.call b "sweep";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "fpppp";
    wmimics = "145.fpppp (SPEC95 FP)";
    wdescr = "dense matrix-vector sweeps over a fixed integral table";
    wbuild = build;
    warities = [ ("matvec", 3); ("scale", 2); ("sweep", 1) ] }
