(* perl: string hashing and associative-array updates modeled on
   134.perl. A skewed stream of vocabulary words is hashed character by
   character and counted in a probed hash table. Hot behaviour: character
   loads are invariant per vocabulary slot, word lengths are
   semi-invariant, hash-table key loads are skewed. *)

open Isa

let vocab_size = 48
let slot_words = 12 (* vocabulary slot: [0]=len, [1..len]=chars *)
let table_size = 1024

let build input =
  let rng = Workload.rng "perl" input in
  let stream_len = Workload.pick input ~test:2_500 ~train:8_000 in
  let skew = Workload.pick input ~test:1.9 ~train:1.5 in
  let vocab = Array.make (vocab_size * slot_words) 0L in
  for w = 0 to vocab_size - 1 do
    let len = 3 + Rng.int rng 8 in
    vocab.(w * slot_words) <- Int64.of_int len;
    for c = 1 to len do
      vocab.((w * slot_words) + c) <- Int64.of_int (97 + Rng.int rng 26)
    done
  done;
  let stream =
    Array.init stream_len (fun _ ->
        Int64.of_int (Rng.skewed rng ~n:vocab_size ~s:skew))
  in
  let b = Asm.create () in
  let vocab_base = Asm.data b vocab in
  let stream_base = Asm.data b stream in
  let keys = Asm.reserve b table_size in
  let counts = Asm.reserve b table_size in
  let result = Asm.reserve b 2 in

  (* hash_word(chars=a0, len=a1) -> v0. Leaf: h = h*131 + c over chars. *)
  Asm.proc b "hash_word" (fun b ->
      Asm.ldi b t0 5381L;
      Asm.ldi b t1 0L;
      Asm.label b "char_loop";
      Asm.sub b ~dst:t2 t1 a1;
      Asm.br b Ge t2 "hash_done";
      Asm.add b ~dst:t3 a0 t1;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.muli b ~dst:t0 t0 131L;
      Asm.add b ~dst:t0 t0 t4;
      Asm.addi b ~dst:t1 t1 1L;
      Asm.jmp b "char_loop";
      Asm.label b "hash_done";
      Asm.andi b ~dst:v0 t0 0x7FFFFFFFL;
      Asm.ret b);

  (* bump(hash=a0) -> v0 = updated count. Leaf: linear probing. *)
  Asm.proc b "bump" (fun b ->
      Asm.andi b ~dst:t0 a0 (Int64.of_int (table_size - 1));
      Asm.ldi b t1 keys;
      Asm.label b "bump_probe";
      Asm.add b ~dst:t2 t1 t0;
      Asm.ld b ~dst:t3 ~base:t2 ~off:0;
      Asm.br b Eq t3 "bump_claim";
      Asm.sub b ~dst:t4 t3 a0;
      Asm.br b Eq t4 "bump_hit";
      Asm.addi b ~dst:t0 t0 1L;
      Asm.andi b ~dst:t0 t0 (Int64.of_int (table_size - 1));
      Asm.jmp b "bump_probe";
      Asm.label b "bump_claim";
      Asm.st b ~src:a0 ~base:t2 ~off:0;
      Asm.label b "bump_hit";
      Asm.ldi b t5 counts;
      Asm.add b ~dst:t6 t5 t0;
      Asm.ld b ~dst:t7 ~base:t6 ~off:0;
      Asm.addi b ~dst:t7 t7 1L;
      Asm.st b ~src:t7 ~base:t6 ~off:0;
      Asm.mov b ~dst:v0 t7;
      Asm.ret b);

  (* scan(stream=a0, n=a1, vocab=a2): hash and count every word.
     s0=i s1=n s2=stream s3=vocab s4=total *)
  Asm.proc b "scan" (fun b ->
      Asm.ldi b s0 0L;
      Asm.mov b ~dst:s1 a1;
      Asm.mov b ~dst:s2 a0;
      Asm.mov b ~dst:s3 a2;
      Asm.ldi b s4 0L;
      Asm.label b "word_loop";
      Asm.sub b ~dst:t0 s0 s1;
      Asm.br b Ge t0 "scan_done";
      Asm.add b ~dst:t1 s2 s0;
      Asm.ld b ~dst:t2 ~base:t1 ~off:0;
      Asm.muli b ~dst:t3 t2 (Int64.of_int slot_words);
      Asm.add b ~dst:t3 s3 t3;
      Asm.ld b ~dst:a1 ~base:t3 ~off:0;
      Asm.addi b ~dst:a0 t3 1L;
      Asm.call b "hash_word";
      Asm.mov b ~dst:a0 v0;
      Asm.call b "bump";
      Asm.add b ~dst:s4 s4 v0;
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "word_loop";
      Asm.label b "scan_done";
      Asm.ldi b t0 result;
      Asm.st b ~src:s4 ~base:t0 ~off:0;
      Asm.mov b ~dst:v0 s4;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 stream_base;
      Asm.ldi b a1 (Int64.of_int stream_len);
      Asm.ldi b a2 vocab_base;
      Asm.call b "scan";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "perl";
    wmimics = "134.perl (SPEC95)";
    wdescr = "string hashing and associative-array counting";
    wbuild = build;
    warities = [ ("hash_word", 2); ("bump", 1); ("scan", 3) ] }
