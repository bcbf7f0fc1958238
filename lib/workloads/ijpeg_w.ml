(* ijpeg: 8x8 integer transform + quantization modeled on 132.ijpeg.
   Hot behaviour: coefficient- and quantization-table loads are perfectly
   invariant per location (constant tables), pixel loads vary — exactly
   the split the paper highlights for image codecs. *)

open Isa

let block = 8

let build input =
  let rng = Workload.rng "ijpeg" input in
  let width = Workload.pick input ~test:32 ~train:64 in
  let height = Workload.pick input ~test:32 ~train:48 in
  let image =
    Array.init (width * height) (fun _ -> Int64.of_int (Rng.int rng 256))
  in
  (* integer "cosine" table: deterministic pseudo-coefficients in [-32,31] *)
  let coef =
    Array.init (block * block) (fun i ->
        Int64.of_int ((((i * 2654435761) lsr 7) mod 64) - 32))
  in
  let quant =
    Array.init block (fun i -> Int64.of_int (1 + ((i * 5) mod 13)))
  in
  let b = Asm.create () in
  let image_base = Asm.data b image in
  let coef_base = Asm.data b coef in
  let quant_base = Asm.data b quant in
  let tmp_in = Asm.reserve b block in
  let tmp_out = Asm.reserve b block in
  let result = Asm.reserve b 2 in

  (* dct8(in=a0, out=a1): out[u] = (sum_x in[x]*coef[u*8+x]) >> 6.
     Leaf procedure: t-registers only (t7=u). *)
  Asm.proc b "dct8" (fun b ->
      Asm.ldi b t7 0L;
      Asm.label b "u_loop";
      Asm.cmplti b ~dst:t0 t7 (Int64.of_int block);
      Asm.br b Eq t0 "dct_done";
      Asm.ldi b t1 0L; (* acc *)
      Asm.ldi b t2 0L; (* x *)
      Asm.muli b ~dst:t3 t7 (Int64.of_int block);
      Asm.label b "x_loop";
      Asm.cmplti b ~dst:t0 t2 (Int64.of_int block);
      Asm.br b Eq t0 "x_done";
      Asm.add b ~dst:t4 a0 t2;
      Asm.ld b ~dst:t5 ~base:t4 ~off:0;
      Asm.add b ~dst:t4 t3 t2;
      Asm.ldi b t6 coef_base;
      Asm.add b ~dst:t4 t6 t4;
      Asm.ld b ~dst:t6 ~base:t4 ~off:0;
      Asm.mul b ~dst:t5 t5 t6;
      Asm.add b ~dst:t1 t1 t5;
      Asm.addi b ~dst:t2 t2 1L;
      Asm.jmp b "x_loop";
      Asm.label b "x_done";
      Asm.srai b ~dst:t1 t1 6L;
      Asm.add b ~dst:t4 a1 t7;
      Asm.st b ~src:t1 ~base:t4 ~off:0;
      Asm.addi b ~dst:t7 t7 1L;
      Asm.jmp b "u_loop";
      Asm.label b "dct_done";
      Asm.ret b);

  (* quant8(buf=a0) -> v0 = row checksum. buf[i] <- buf[i] / quant[i]. *)
  Asm.proc b "quant8" (fun b ->
      Asm.ldi b t0 0L;
      Asm.ldi b t1 quant_base;
      Asm.ldi b t6 0L;
      Asm.label b "q_loop";
      Asm.cmplti b ~dst:t2 t0 (Int64.of_int block);
      Asm.br b Eq t2 "q_done";
      Asm.add b ~dst:t3 a0 t0;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.add b ~dst:t5 t1 t0;
      Asm.ld b ~dst:t5 ~base:t5 ~off:0;
      Asm.div b ~dst:t4 t4 t5;
      Asm.st b ~src:t4 ~base:t3 ~off:0;
      Asm.add b ~dst:t6 t6 t4;
      Asm.addi b ~dst:t0 t0 1L;
      Asm.jmp b "q_loop";
      Asm.label b "q_done";
      Asm.mov b ~dst:v0 t6;
      Asm.ret b);

  (* encode(img=a0, w=a1, h=a2): run dct8+quant8 over every 8-pixel row
     segment of every 8x8 block. s0=row s1=img s2=w s3=h s4=checksum s5=col *)
  Asm.proc b "encode" (fun b ->
      Asm.mov b ~dst:s1 a0;
      Asm.mov b ~dst:s2 a1;
      Asm.mov b ~dst:s3 a2;
      Asm.ldi b s0 0L;
      Asm.ldi b s4 0L;
      Asm.label b "row_loop";
      Asm.sub b ~dst:t0 s0 s3;
      Asm.br b Ge t0 "encode_done";
      Asm.ldi b s5 0L;
      Asm.label b "col_loop";
      Asm.sub b ~dst:t0 s5 s2;
      Asm.br b Ge t0 "row_next";
      (* copy the 8-pixel segment into tmp_in *)
      Asm.mul b ~dst:t1 s0 s2;
      Asm.add b ~dst:t1 t1 s5;
      Asm.add b ~dst:t1 t1 s1;
      Asm.ldi b t2 tmp_in;
      for i = 0 to block - 1 do
        Asm.ld b ~dst:t3 ~base:t1 ~off:i;
        Asm.st b ~src:t3 ~base:t2 ~off:i
      done;
      Asm.ldi b a0 tmp_in;
      Asm.ldi b a1 tmp_out;
      Asm.call b "dct8";
      Asm.ldi b a0 tmp_out;
      Asm.call b "quant8";
      Asm.add b ~dst:s4 s4 v0;
      Asm.addi b ~dst:s5 s5 (Int64.of_int block);
      Asm.jmp b "col_loop";
      Asm.label b "row_next";
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "row_loop";
      Asm.label b "encode_done";
      Asm.ldi b t0 result;
      Asm.st b ~src:s4 ~base:t0 ~off:0;
      Asm.mov b ~dst:v0 s4;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 image_base;
      Asm.ldi b a1 (Int64.of_int width);
      Asm.ldi b a2 (Int64.of_int height);
      Asm.call b "encode";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "ijpeg";
    wmimics = "132.ijpeg (SPEC95)";
    wdescr = "8x8 integer transform and quantization with constant tables";
    wbuild = build;
    warities = [ ("dct8", 2); ("quant8", 1); ("encode", 3) ] }
