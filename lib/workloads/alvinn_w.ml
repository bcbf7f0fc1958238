(* alvinn: fixed-point neural-network forward passes modeled on
   104.alvinn. Weight loads are perfectly invariant per memory location
   (the showcase for memory-location profiling), input loads vary per
   sample. The forward procedure saves/restores callee-saved registers on
   the stack, exercising the stack discipline. *)

open Isa

let inputs = 32
let hidden = 16
let outputs = 4

let build input =
  let rng = Workload.rng "alvinn" input in
  let samples = Workload.pick input ~test:36 ~train:110 in
  let w1 =
    Array.init (inputs * hidden) (fun _ -> Int64.of_int (Rng.int rng 256 - 128))
  in
  let w2 =
    Array.init (hidden * outputs) (fun _ -> Int64.of_int (Rng.int rng 256 - 128))
  in
  let sample_data =
    Array.init (samples * inputs) (fun _ -> Int64.of_int (Rng.int rng 256))
  in
  let b = Asm.create () in
  let w1_base = Asm.data b w1 in
  let w2_base = Asm.data b w2 in
  let samples_base = Asm.data b sample_data in
  let hidden_buf = Asm.reserve b hidden in
  let out_buf = Asm.reserve b outputs in
  let result = Asm.reserve b 1 in

  (* dot(x=a0, w=a1, n=a2) -> v0. Leaf multiply-accumulate. *)
  Asm.proc b "dot" (fun b ->
      Asm.ldi b t0 0L;
      Asm.ldi b t1 0L;
      Asm.label b "mac_loop";
      Asm.sub b ~dst:t2 t1 a2;
      Asm.br b Ge t2 "mac_done";
      Asm.add b ~dst:t3 a0 t1;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.add b ~dst:t5 a1 t1;
      Asm.ld b ~dst:t6 ~base:t5 ~off:0;
      Asm.mul b ~dst:t4 t4 t6;
      Asm.add b ~dst:t0 t0 t4;
      Asm.addi b ~dst:t1 t1 1L;
      Asm.jmp b "mac_loop";
      Asm.label b "mac_done";
      Asm.mov b ~dst:v0 t0;
      Asm.ret b);

  (* forward(sample=a0) -> v0 = output checksum. Non-leaf, so the
     callee-saved registers it needs are spilled to the stack. s0=j,
     s1=sample, s2=checksum. *)
  Asm.proc b "forward" (fun b ->
      Asm.subi b ~dst:sp sp 3L;
      Asm.st b ~src:s0 ~base:sp ~off:0;
      Asm.st b ~src:s1 ~base:sp ~off:1;
      Asm.st b ~src:s2 ~base:sp ~off:2;
      Asm.mov b ~dst:s1 a0;
      (* hidden layer: hidden[j] = relu(dot(x, W1[j*inputs..]) >> 8) *)
      Asm.ldi b s0 0L;
      Asm.label b "hid_loop";
      Asm.cmplti b ~dst:t0 s0 (Int64.of_int hidden);
      Asm.br b Eq t0 "hid_done";
      Asm.mov b ~dst:a0 s1;
      Asm.muli b ~dst:a1 s0 (Int64.of_int inputs);
      Asm.addi b ~dst:a1 a1 w1_base;
      Asm.ldi b a2 (Int64.of_int inputs);
      Asm.call b "dot";
      Asm.srai b ~dst:t1 v0 8L;
      Asm.br b Ge t1 "hid_store";
      Asm.ldi b t1 0L; (* relu clamp *)
      Asm.label b "hid_store";
      Asm.ldi b t2 hidden_buf;
      Asm.add b ~dst:t2 t2 s0;
      Asm.st b ~src:t1 ~base:t2 ~off:0;
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "hid_loop";
      Asm.label b "hid_done";
      (* output layer *)
      Asm.ldi b s0 0L;
      Asm.ldi b s2 0L;
      Asm.label b "out_loop";
      Asm.cmplti b ~dst:t0 s0 (Int64.of_int outputs);
      Asm.br b Eq t0 "out_done";
      Asm.ldi b a0 hidden_buf;
      Asm.muli b ~dst:a1 s0 (Int64.of_int hidden);
      Asm.addi b ~dst:a1 a1 w2_base;
      Asm.ldi b a2 (Int64.of_int hidden);
      Asm.call b "dot";
      Asm.srai b ~dst:t1 v0 8L;
      Asm.ldi b t2 out_buf;
      Asm.add b ~dst:t2 t2 s0;
      Asm.st b ~src:t1 ~base:t2 ~off:0;
      Asm.muli b ~dst:s2 s2 31L;
      Asm.add b ~dst:s2 s2 t1;
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "out_loop";
      Asm.label b "out_done";
      Asm.mov b ~dst:v0 s2;
      Asm.ld b ~dst:s0 ~base:sp ~off:0;
      Asm.ld b ~dst:s1 ~base:sp ~off:1;
      Asm.ld b ~dst:s2 ~base:sp ~off:2;
      Asm.addi b ~dst:sp sp 3L;
      Asm.ret b);

  (* run_net(samples=a0, n=a1): forward every sample.
     s0=i s1=n s2=samples s3=checksum *)
  Asm.proc b "run_net" (fun b ->
      Asm.ldi b s0 0L;
      Asm.mov b ~dst:s1 a1;
      Asm.mov b ~dst:s2 a0;
      Asm.ldi b s3 0L;
      Asm.label b "sample_loop";
      Asm.sub b ~dst:t0 s0 s1;
      Asm.br b Ge t0 "net_done";
      Asm.muli b ~dst:a0 s0 (Int64.of_int inputs);
      Asm.add b ~dst:a0 a0 s2;
      Asm.call b "forward";
      Asm.add b ~dst:s3 s3 v0;
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "sample_loop";
      Asm.label b "net_done";
      Asm.ldi b t0 result;
      Asm.st b ~src:s3 ~base:t0 ~off:0;
      Asm.mov b ~dst:v0 s3;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 samples_base;
      Asm.ldi b a1 (Int64.of_int samples);
      Asm.call b "run_net";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "alvinn";
    wmimics = "104.alvinn (SPEC95 FP)";
    wdescr = "fixed-point neural-network forward passes";
    wbuild = build;
    warities = [ ("dot", 3); ("forward", 1); ("run_net", 2) ] }
