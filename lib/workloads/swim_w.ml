(* swim: a five-point stencil relaxation modeled on 102.swim (shallow
   water). Coefficient loads are invariant, halo cells stay zero, and
   interior values converge — load invariance grows over iterations, the
   behaviour the paper reports for regular FP codes. *)

open Isa

let build input =
  let rng = Workload.rng "swim" input in
  let interior = Workload.pick input ~test:24 ~train:32 in
  let iterations = Workload.pick input ~test:10 ~train:22 in
  let side = interior + 2 (* halo *) in
  let cells = side * side in
  let grid0 = Array.make cells 0L in
  for r = 1 to interior do
    for c = 1 to interior do
      grid0.((r * side) + c) <- Int64.of_int (Rng.int rng 4096)
    done
  done;
  (* c0..c2: centre, cross, and damping coefficients *)
  let coefs = [| 60L; 9L; 4L |] in
  let b = Asm.create () in
  let grid_a = Asm.data b grid0 in
  let grid_b = Asm.reserve b cells in
  let coef_base = Asm.data b coefs in
  let result = Asm.reserve b 1 in

  (* stencil(src=a0, dst=a1) over the fixed grid. Leaf: t-registers only
     (t6=row, t7=col). dst[i] = (c0*src[i] + c1*cross - c2) >> 6. *)
  Asm.proc b "stencil" (fun b ->
      Asm.ldi b t6 1L;
      Asm.label b "s_row";
      Asm.cmplei b ~dst:t0 t6 (Int64.of_int interior);
      Asm.br b Eq t0 "s_done";
      Asm.ldi b t7 1L;
      Asm.label b "s_col";
      Asm.cmplei b ~dst:t0 t7 (Int64.of_int interior);
      Asm.br b Eq t0 "s_row_next";
      Asm.muli b ~dst:t0 t6 (Int64.of_int side);
      Asm.add b ~dst:t0 t0 t7;
      Asm.add b ~dst:t1 a0 t0; (* &src[r][c] *)
      (* cross = N + S + E + W *)
      Asm.ld b ~dst:t2 ~base:t1 ~off:(-side);
      Asm.ld b ~dst:t3 ~base:t1 ~off:side;
      Asm.add b ~dst:t2 t2 t3;
      Asm.ld b ~dst:t3 ~base:t1 ~off:(-1);
      Asm.add b ~dst:t2 t2 t3;
      Asm.ld b ~dst:t3 ~base:t1 ~off:1;
      Asm.add b ~dst:t2 t2 t3;
      (* centre and coefficients *)
      Asm.ld b ~dst:t3 ~base:t1 ~off:0;
      Asm.ldi b t4 coef_base;
      Asm.ld b ~dst:t5 ~base:t4 ~off:0;
      Asm.mul b ~dst:t3 t3 t5;
      Asm.ld b ~dst:t5 ~base:t4 ~off:1;
      Asm.mul b ~dst:t2 t2 t5;
      Asm.add b ~dst:t3 t3 t2;
      Asm.ld b ~dst:t5 ~base:t4 ~off:2;
      Asm.sub b ~dst:t3 t3 t5;
      Asm.srai b ~dst:t3 t3 6L;
      (* clamp negatives to zero so the field stays physical *)
      Asm.br b Ge t3 "s_store";
      Asm.ldi b t3 0L;
      Asm.label b "s_store";
      Asm.add b ~dst:t1 a1 t0;
      Asm.st b ~src:t3 ~base:t1 ~off:0;
      Asm.addi b ~dst:t7 t7 1L;
      Asm.jmp b "s_col";
      Asm.label b "s_row_next";
      Asm.addi b ~dst:t6 t6 1L;
      Asm.jmp b "s_row";
      Asm.label b "s_done";
      Asm.ret b);

  (* checksum(grid=a0) -> v0. Leaf. *)
  Asm.proc b "checksum" (fun b ->
      Asm.ldi b t0 0L;
      Asm.ldi b t1 0L;
      Asm.label b "ck_loop";
      Asm.cmplti b ~dst:t2 t1 (Int64.of_int cells);
      Asm.br b Eq t2 "ck_done";
      Asm.add b ~dst:t3 a0 t1;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.muli b ~dst:t0 t0 31L;
      Asm.add b ~dst:t0 t0 t4;
      Asm.addi b ~dst:t1 t1 1L;
      Asm.jmp b "ck_loop";
      Asm.label b "ck_done";
      Asm.mov b ~dst:v0 t0;
      Asm.ret b);

  (* relax(iters=a0): ping-pong between the two grids.
     s0=iteration s1=iters s2=src s3=dst *)
  Asm.proc b "relax" (fun b ->
      Asm.ldi b s0 0L;
      Asm.mov b ~dst:s1 a0;
      Asm.ldi b s2 grid_a;
      Asm.ldi b s3 grid_b;
      Asm.label b "iter_loop";
      Asm.sub b ~dst:t0 s0 s1;
      Asm.br b Ge t0 "relax_done";
      Asm.mov b ~dst:a0 s2;
      Asm.mov b ~dst:a1 s3;
      Asm.call b "stencil";
      (* swap src and dst *)
      Asm.mov b ~dst:t1 s2;
      Asm.mov b ~dst:s2 s3;
      Asm.mov b ~dst:s3 t1;
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "iter_loop";
      Asm.label b "relax_done";
      Asm.mov b ~dst:a0 s2;
      Asm.call b "checksum";
      Asm.ldi b t0 result;
      Asm.st b ~src:v0 ~base:t0 ~off:0;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 (Int64.of_int iterations);
      Asm.call b "relax";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "swim";
    wmimics = "102.swim (SPEC95 FP)";
    wdescr = "five-point stencil relaxation with constant coefficients";
    wbuild = build;
    warities = [ ("stencil", 2); ("checksum", 1); ("relax", 1) ] }
