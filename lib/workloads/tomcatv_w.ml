(* tomcatv: vectorized mesh generation modeled on 101.tomcatv. Two
   coordinate planes are relaxed with a scaled-accumulate helper invoked
   from several call sites, each passing its own constant coefficient —
   the multi-call-site shape that makes context-sensitive parameter
   profiling (E17) interesting, plus invariant coefficient arguments. *)

open Isa

let build input =
  let rng = Workload.rng "tomcatv" input in
  let n = Workload.pick input ~test:28 ~train:44 in
  let iterations = Workload.pick input ~test:8 ~train:16 in
  let cells = n * n in
  let plane init =
    Array.init cells (fun _ -> Int64.of_int (init + Rng.int rng 2048))
  in
  let b = Asm.create () in
  let x_plane = Asm.data b (plane 1000) in
  let y_plane = Asm.data b (plane 5000) in
  let residual = Asm.reserve b cells in
  let result = Asm.reserve b 2 in

  (* saxpy(dst=a0, src=a1, n=a2, k=a3): dst[i] += (src[i] * k) >> 8.
     Leaf, t-registers only. *)
  Asm.proc b "saxpy" (fun b ->
      Asm.ldi b t0 0L;
      Asm.label b "sx_loop";
      Asm.sub b ~dst:t1 t0 a2;
      Asm.br b Ge t1 "sx_done";
      Asm.add b ~dst:t2 a1 t0;
      Asm.ld b ~dst:t3 ~base:t2 ~off:0;
      Asm.mul b ~dst:t3 t3 a3;
      Asm.srai b ~dst:t3 t3 8L;
      Asm.add b ~dst:t4 a0 t0;
      Asm.ld b ~dst:t5 ~base:t4 ~off:0;
      Asm.add b ~dst:t5 t5 t3;
      Asm.st b ~src:t5 ~base:t4 ~off:0;
      Asm.addi b ~dst:t0 t0 1L;
      Asm.jmp b "sx_loop";
      Asm.label b "sx_done";
      Asm.ret b);

  (* residual(src=a0, n=a1) -> v0 = sum of |cell - east neighbour|.
     Leaf, t-registers only. *)
  Asm.proc b "residual" (fun b ->
      Asm.ldi b t0 0L;
      Asm.ldi b t1 0L;
      Asm.subi b ~dst:t6 a1 1L;
      Asm.label b "r_loop";
      Asm.sub b ~dst:t2 t0 t6;
      Asm.br b Ge t2 "r_done";
      Asm.add b ~dst:t3 a0 t0;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.ld b ~dst:t5 ~base:t3 ~off:1;
      Asm.sub b ~dst:t4 t4 t5;
      Asm.br b Ge t4 "r_abs";
      Asm.sub b ~dst:t4 zero_reg t4;
      Asm.label b "r_abs";
      Asm.add b ~dst:t1 t1 t4;
      Asm.addi b ~dst:t0 t0 1L;
      Asm.jmp b "r_loop";
      Asm.label b "r_done";
      Asm.mov b ~dst:v0 t1;
      Asm.ret b);

  (* relax_mesh(iters=a0): four saxpy call sites with distinct constant
     coefficients (the per-site invariance E17 measures), then residuals.
     s0=iter s1=iters s2=accumulated residual *)
  Asm.proc b "relax_mesh" (fun b ->
      Asm.ldi b s0 0L;
      Asm.mov b ~dst:s1 a0;
      Asm.ldi b s2 0L;
      Asm.label b "mesh_loop";
      Asm.sub b ~dst:t0 s0 s1;
      Asm.br b Ge t0 "mesh_done";
      (* site 1: x += y * 3 *)
      Asm.ldi b a0 x_plane;
      Asm.ldi b a1 y_plane;
      Asm.ldi b a2 (Int64.of_int cells);
      Asm.ldi b a3 3L;
      Asm.call b "saxpy";
      (* site 2: y += x * 5 *)
      Asm.ldi b a0 y_plane;
      Asm.ldi b a1 x_plane;
      Asm.ldi b a2 (Int64.of_int cells);
      Asm.ldi b a3 5L;
      Asm.call b "saxpy";
      (* site 3: residual buffer accumulates x with coefficient 7 *)
      Asm.ldi b a0 residual;
      Asm.ldi b a1 x_plane;
      Asm.ldi b a2 (Int64.of_int cells);
      Asm.ldi b a3 7L;
      Asm.call b "saxpy";
      (* site 4: ... and y with coefficient 11 *)
      Asm.ldi b a0 residual;
      Asm.ldi b a1 y_plane;
      Asm.ldi b a2 (Int64.of_int cells);
      Asm.ldi b a3 11L;
      Asm.call b "saxpy";
      Asm.ldi b a0 residual;
      Asm.ldi b a1 (Int64.of_int cells);
      Asm.call b "residual";
      Asm.add b ~dst:s2 s2 v0;
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "mesh_loop";
      Asm.label b "mesh_done";
      Asm.ldi b t0 result;
      Asm.st b ~src:s2 ~base:t0 ~off:0;
      Asm.mov b ~dst:v0 s2;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 (Int64.of_int iterations);
      Asm.call b "relax_mesh";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "tomcatv";
    wmimics = "101.tomcatv (SPEC95 FP)";
    wdescr = "mesh relaxation: scaled-accumulate helper with per-site coefficients";
    wbuild = build;
    warities = [ ("saxpy", 4); ("residual", 2); ("relax_mesh", 1) ] }
