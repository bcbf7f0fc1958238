(* vortex: an object-database kernel modeled on 147.vortex. Records with
   a type tag live in per-type linked lists; queries traverse a list and
   dispatch a type-specific method through a table of code addresses. Hot
   behaviour: type-field loads take one of three values (highly
   invariant), method-table loads are invariant per slot, next-pointer
   loads are variant. *)

open Isa

let record_words = 8
let types = 3

let build input =
  let rng = Workload.rng "vortex" input in
  let n_records = Workload.pick input ~test:96 ~train:256 in
  let n_queries = Workload.pick input ~test:420 ~train:1_400 in
  (* Lay the records out in OCaml, building the per-type chains. *)
  let record_base = 0x1_0000 in
  (* (matches Asm data placement below; asserted after allocation) *)
  let records = Array.make (n_records * record_words) 0L in
  let heads = Array.make (types + 1) 0L in
  let rec_addr i = Int64.of_int (record_base + (i * record_words)) in
  let type_of = Array.init n_records (fun _ -> 1 + Rng.skewed rng ~n:types ~s:1.5) in
  let keys = Array.init n_records (fun i -> Int64.of_int ((i * 37) + 11)) in
  for i = n_records - 1 downto 0 do
    let t = type_of.(i) in
    records.(i * record_words) <- Int64.of_int t;
    records.((i * record_words) + 1) <- keys.(i);
    records.((i * record_words) + 2) <- Int64.of_int (Rng.int rng 1000);
    records.((i * record_words) + 3) <- heads.(t);
    heads.(t) <- rec_addr i
  done;
  (* Queries pick a type (skewed) and a key of that type where possible. *)
  let keys_of_type t =
    Array.of_list
      (List.filter_map
         (fun i -> if type_of.(i) = t then Some keys.(i) else None)
         (List.init n_records Fun.id))
  in
  let per_type_keys = Array.init (types + 1) (fun t -> if t = 0 then [||] else keys_of_type t) in
  let q_type = Array.make n_queries 0L in
  let q_key = Array.make n_queries 0L in
  for q = 0 to n_queries - 1 do
    let t = 1 + Rng.skewed rng ~n:types ~s:1.8 in
    q_type.(q) <- Int64.of_int t;
    let ks = per_type_keys.(t) in
    q_key.(q) <-
      (if Array.length ks = 0 || Rng.int rng 10 = 0 then 999_999L (* miss *)
       else Rng.choose rng ks)
  done;
  let b = Asm.create () in
  let records_base = Asm.data b records in
  assert (Int64.to_int records_base = record_base);
  let heads_base = Asm.data b heads in
  let qt_base = Asm.data b q_type in
  let qk_base = Asm.data b q_key in
  let method_table = Asm.reserve b (types + 1) in
  let result = Asm.reserve b 2 in

  (* find(head=a0, key=a1) -> v0 = record address or 0. Leaf. *)
  Asm.proc b "find" (fun b ->
      Asm.mov b ~dst:t0 a0;
      Asm.label b "walk";
      Asm.br b Eq t0 "find_done";
      Asm.ld b ~dst:t1 ~base:t0 ~off:1;
      Asm.sub b ~dst:t2 t1 a1;
      Asm.br b Eq t2 "find_done";
      Asm.ld b ~dst:t0 ~base:t0 ~off:3;
      Asm.jmp b "walk";
      Asm.label b "find_done";
      Asm.mov b ~dst:v0 t0;
      Asm.ret b);

  (* The three methods update a found record's value field differently. *)
  Asm.proc b "m_alpha" (fun b ->
      Asm.ld b ~dst:t0 ~base:a0 ~off:2;
      Asm.addi b ~dst:t0 t0 1L;
      Asm.st b ~src:t0 ~base:a0 ~off:2;
      Asm.mov b ~dst:v0 t0;
      Asm.ret b);
  Asm.proc b "m_beta" (fun b ->
      Asm.ld b ~dst:t0 ~base:a0 ~off:2;
      Asm.slli b ~dst:t1 t0 1L;
      Asm.xor b ~dst:t0 t0 t1;
      Asm.andi b ~dst:t0 t0 0xFFFFL;
      Asm.st b ~src:t0 ~base:a0 ~off:2;
      Asm.mov b ~dst:v0 t0;
      Asm.ret b);
  Asm.proc b "m_gamma" (fun b ->
      Asm.ld b ~dst:t0 ~base:a0 ~off:2;
      Asm.muli b ~dst:t0 t0 3L;
      Asm.remi b ~dst:t0 t0 8191L;
      Asm.st b ~src:t0 ~base:a0 ~off:2;
      Asm.mov b ~dst:v0 t0;
      Asm.ret b);

  (* query(qt=a0, qk=a1, n=a2): run every query.
     s0=i s1=n s2=qt s3=qk s4=found-count s5=value-accumulator *)
  Asm.proc b "query" (fun b ->
      Asm.ldi b s0 0L;
      Asm.mov b ~dst:s1 a2;
      Asm.mov b ~dst:s2 a0;
      Asm.mov b ~dst:s3 a1;
      Asm.ldi b s4 0L;
      Asm.ldi b s5 0L;
      Asm.label b "q_loop";
      Asm.sub b ~dst:t0 s0 s1;
      Asm.br b Ge t0 "q_done";
      Asm.add b ~dst:t1 s2 s0;
      Asm.ld b ~dst:t2 ~base:t1 ~off:0; (* type *)
      Asm.ldi b t3 heads_base;
      Asm.add b ~dst:t3 t3 t2;
      Asm.ld b ~dst:a0 ~base:t3 ~off:0; (* head of chain *)
      Asm.add b ~dst:t4 s3 s0;
      Asm.ld b ~dst:a1 ~base:t4 ~off:0; (* key *)
      Asm.call b "find";
      Asm.br b Eq v0 "q_next";
      Asm.addi b ~dst:s4 s4 1L;
      (* dispatch on the record's type through the method table *)
      Asm.ld b ~dst:t5 ~base:v0 ~off:0;
      Asm.ldi b t6 method_table;
      Asm.add b ~dst:t6 t6 t5;
      Asm.ld b ~dst:t7 ~base:t6 ~off:0;
      Asm.mov b ~dst:a0 v0;
      Asm.call_ind b t7;
      Asm.add b ~dst:s5 s5 v0;
      Asm.label b "q_next";
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "q_loop";
      Asm.label b "q_done";
      Asm.ldi b t0 result;
      Asm.st b ~src:s4 ~base:t0 ~off:0;
      Asm.st b ~src:s5 ~base:t0 ~off:1;
      Asm.mov b ~dst:v0 s5;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      Asm.ldi b t0 method_table;
      Asm.code_addr_of b ~dst:t1 "m_alpha";
      Asm.st b ~src:t1 ~base:t0 ~off:1;
      Asm.code_addr_of b ~dst:t1 "m_beta";
      Asm.st b ~src:t1 ~base:t0 ~off:2;
      Asm.code_addr_of b ~dst:t1 "m_gamma";
      Asm.st b ~src:t1 ~base:t0 ~off:3;
      Asm.ldi b a0 qt_base;
      Asm.ldi b a1 qk_base;
      Asm.ldi b a2 (Int64.of_int n_queries);
      Asm.call b "query";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "vortex";
    wmimics = "147.vortex (SPEC95)";
    wdescr = "object database: typed linked lists with method dispatch";
    wbuild = build;
    warities =
      [ ("find", 2); ("m_alpha", 1); ("m_beta", 1); ("m_gamma", 1);
        ("query", 3) ] }
