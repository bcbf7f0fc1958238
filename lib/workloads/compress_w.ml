(* compress: LZW-style dictionary compression, modeled on 129.compress.
   Hot behaviour it reproduces: hash-table probe loads that are mostly
   zero (empty slots), a slowly growing next-code counter, and a skewed
   symbol distribution that makes the prefix register semi-invariant. *)

open Isa

let dict_size = 4096
let alphabet = 64

let symbols_of input =
  let rng = Workload.rng "compress" input in
  let n = Workload.pick input ~test:4_000 ~train:14_000 in
  let skew = Workload.pick input ~test:2.0 ~train:1.6 in
  Array.init n (fun _ -> Int64.of_int (Rng.skewed rng ~n:alphabet ~s:skew))

let build input =
  let symbols = symbols_of input in
  let n = Array.length symbols in
  let b = Asm.create () in
  let input_base = Asm.data b symbols in
  let hkey = Asm.reserve b dict_size in
  let hcode = Asm.reserve b dict_size in
  let out = Asm.reserve b (n + 1) in
  (* result[0] = emitted codes, result[1] = checksum *)
  let result = Asm.reserve b 2 in

  (* hash_probe(key=a0) -> v0 = slot index whose HKEY is key or 0. *)
  Asm.proc b "hash_probe" (fun b ->
      Asm.muli b ~dst:t0 a0 2654435761L;
      Asm.srli b ~dst:t0 t0 8L;
      Asm.andi b ~dst:t0 t0 (Int64.of_int (dict_size - 1));
      Asm.ldi b t1 hkey;
      Asm.label b "probe_loop";
      Asm.add b ~dst:t2 t1 t0;
      Asm.ld b ~dst:t3 ~base:t2 ~off:0;
      Asm.br b Eq t3 "probe_done";
      Asm.sub b ~dst:t4 t3 a0;
      Asm.br b Eq t4 "probe_done";
      Asm.addi b ~dst:t0 t0 1L;
      Asm.andi b ~dst:t0 t0 (Int64.of_int (dict_size - 1));
      Asm.jmp b "probe_loop";
      Asm.label b "probe_done";
      Asm.mov b ~dst:v0 t0;
      Asm.ret b);

  (* emit(code=a0): append to the output stream and fold into checksum. *)
  Asm.proc b "emit" (fun b ->
      Asm.ldi b t0 result;
      Asm.ld b ~dst:t1 ~base:t0 ~off:0;
      Asm.ldi b t2 out;
      Asm.add b ~dst:t3 t2 t1;
      Asm.st b ~src:a0 ~base:t3 ~off:0;
      Asm.addi b ~dst:t1 t1 1L;
      Asm.st b ~src:t1 ~base:t0 ~off:0;
      Asm.ld b ~dst:t4 ~base:t0 ~off:1;
      Asm.muli b ~dst:t4 t4 31L;
      Asm.add b ~dst:t4 t4 a0;
      Asm.st b ~src:t4 ~base:t0 ~off:1;
      Asm.ret b);

  (* compress(n=a0, base=a1): the LZW loop.
     s0=prefix s1=i s2=n s3=base s4=next_code s5=scratch for key. *)
  Asm.proc b "compress" (fun b ->
      Asm.mov b ~dst:s2 a0;
      Asm.mov b ~dst:s3 a1;
      Asm.ld b ~dst:s0 ~base:s3 ~off:0;
      Asm.ldi b s1 1L;
      Asm.ldi b s4 (Int64.of_int (alphabet + 1));
      Asm.label b "next_symbol";
      Asm.sub b ~dst:t0 s1 s2;
      Asm.br b Ge t0 "flush";
      (* t5 = current symbol *)
      Asm.add b ~dst:t1 s3 s1;
      Asm.ld b ~dst:t5 ~base:t1 ~off:0;
      (* key = prefix * alphabet + sym + 1, kept in s5 across the call *)
      Asm.muli b ~dst:s5 s0 (Int64.of_int alphabet);
      Asm.add b ~dst:s5 s5 t5;
      Asm.addi b ~dst:s5 s5 1L;
      Asm.mov b ~dst:a0 s5;
      Asm.call b "hash_probe";
      (* reload the slot's key to see whether the probe hit *)
      Asm.ldi b t1 hkey;
      Asm.add b ~dst:t2 t1 v0;
      Asm.ld b ~dst:t3 ~base:t2 ~off:0;
      Asm.sub b ~dst:t4 t3 s5;
      Asm.br b Ne t4 "miss";
      (* hit: prefix = dict code *)
      Asm.ldi b t1 hcode;
      Asm.add b ~dst:t2 t1 v0;
      Asm.ld b ~dst:s0 ~base:t2 ~off:0;
      Asm.jmp b "advance";
      Asm.label b "miss";
      (* remember slot (t-regs die at the call, stash in memory-free way:
         recompute after emit via a second probe would double work; instead
         keep the slot in s5's place after saving key in a0 for insert) *)
      Asm.mov b ~dst:a0 s0;
      (* slot index survives in v0 only until the call; save it in t6?
         t-regs are clobbered by the call, so park it in the key register:
         key is no longer needed once the insert below uses it, so shuffle:
         a1 <- slot for emit-time insert. a-regs are clobbered too, so use
         memory: result[1] is busy; push onto the workload stack. *)
      Asm.st b ~src:v0 ~base:sp ~off:(-1);
      Asm.call b "emit";
      Asm.ld b ~dst:t0 ~base:sp ~off:(-1);
      (* insert dictionary entry while the table is under 3/4 full, so
         linear probes stay short *)
      Asm.cmplti b ~dst:t1 s4 (Int64.of_int (dict_size * 3 / 4));
      Asm.br b Eq t1 "skip_insert";
      Asm.ldi b t2 hkey;
      Asm.add b ~dst:t3 t2 t0;
      Asm.st b ~src:s5 ~base:t3 ~off:0;
      Asm.ldi b t2 hcode;
      Asm.add b ~dst:t3 t2 t0;
      Asm.st b ~src:s4 ~base:t3 ~off:0;
      Asm.addi b ~dst:s4 s4 1L;
      Asm.label b "skip_insert";
      (* prefix = symbol: reload it (t5 died across calls) *)
      Asm.add b ~dst:t1 s3 s1;
      Asm.ld b ~dst:s0 ~base:t1 ~off:0;
      Asm.label b "advance";
      Asm.addi b ~dst:s1 s1 1L;
      Asm.jmp b "next_symbol";
      Asm.label b "flush";
      Asm.mov b ~dst:a0 s0;
      Asm.call b "emit";
      Asm.ldi b t0 result;
      Asm.ld b ~dst:v0 ~base:t0 ~off:1;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 (Int64.of_int n);
      Asm.ldi b a1 input_base;
      Asm.call b "compress";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "compress";
    wmimics = "129.compress (SPEC95)";
    wdescr = "LZW-style dictionary compression over a skewed symbol stream";
    wbuild = build;
    warities = [ ("hash_probe", 1); ("emit", 1); ("compress", 2) ] }
