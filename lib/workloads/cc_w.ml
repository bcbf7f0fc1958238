(* cc: a table-driven "parser" modeled on 126.gcc's token dispatch.
   Hot behaviour: a jump table of handler addresses (indirect calls whose
   target loads are invariant per slot), a heavily skewed token-kind
   stream, and per-handler counters. *)

open Isa

let kinds = 16
let handlers = [| "h_ident"; "h_num"; "h_op"; "h_kw"; "h_str"; "h_punct" |]

let build input =
  let rng = Workload.rng "cc" input in
  let n = Workload.pick input ~test:6_000 ~train:20_000 in
  let skew = Workload.pick input ~test:2.2 ~train:1.8 in
  let kind_stream =
    Array.init n (fun _ -> Int64.of_int (Rng.skewed rng ~n:kinds ~s:skew))
  in
  let value_stream =
    Array.init n (fun _ -> Int64.of_int (1 + Rng.int rng 1000))
  in
  let b = Asm.create () in
  let kinds_base = Asm.data b kind_stream in
  let values_base = Asm.data b value_stream in
  let table = Asm.reserve b kinds in
  (* one counter + one accumulator per handler *)
  let counters = Asm.reserve b (Array.length handlers * 2) in

  (* Each handler: bump its counter, fold the token value into its
     accumulator with a handler-specific flavour. *)
  let handler name index body =
    Asm.proc b name (fun b ->
        Asm.ldi b t0 counters;
        Asm.ld b ~dst:t1 ~base:t0 ~off:(2 * index);
        Asm.addi b ~dst:t1 t1 1L;
        Asm.st b ~src:t1 ~base:t0 ~off:(2 * index);
        Asm.ld b ~dst:t2 ~base:t0 ~off:((2 * index) + 1);
        body b;
        Asm.st b ~src:t2 ~base:t0 ~off:((2 * index) + 1);
        Asm.ret b)
  in
  handler "h_ident" 0 (fun b ->
      Asm.muli b ~dst:t3 a0 131L;
      Asm.add b ~dst:t2 t2 t3);
  handler "h_num" 1 (fun b -> Asm.add b ~dst:t2 t2 a0);
  handler "h_op" 2 (fun b -> Asm.xor b ~dst:t2 t2 a0);
  handler "h_kw" 3 (fun b -> Asm.addi b ~dst:t2 t2 7L);
  handler "h_str" 4 (fun b ->
      Asm.slli b ~dst:t3 a0 1L;
      Asm.add b ~dst:t2 t2 t3);
  handler "h_punct" 5 (fun b -> Asm.addi b ~dst:t2 t2 1L);

  (* parse(n=a0, kinds=a1, values=a2): dispatch every token through the
     jump table. s0=i s1=n s2=kinds s3=values s4=table *)
  Asm.proc b "parse" (fun b ->
      Asm.ldi b s0 0L;
      Asm.mov b ~dst:s1 a0;
      Asm.mov b ~dst:s2 a1;
      Asm.mov b ~dst:s3 a2;
      Asm.ldi b s4 table;
      Asm.label b "token_loop";
      Asm.sub b ~dst:t0 s0 s1;
      Asm.br b Ge t0 "parse_done";
      Asm.add b ~dst:t1 s2 s0;
      Asm.ld b ~dst:t2 ~base:t1 ~off:0;
      Asm.add b ~dst:t3 s4 t2;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.add b ~dst:t5 s3 s0;
      Asm.ld b ~dst:a0 ~base:t5 ~off:0;
      Asm.call_ind b t4;
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "token_loop";
      Asm.label b "parse_done";
      Asm.ldi b t0 counters;
      Asm.ld b ~dst:v0 ~base:t0 ~off:1;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      (* fill the dispatch table: kind k is handled by handlers.(k mod 6) *)
      Asm.ldi b t0 table;
      for k = 0 to kinds - 1 do
        Asm.code_addr_of b ~dst:t1 handlers.(k mod Array.length handlers);
        Asm.st b ~src:t1 ~base:t0 ~off:k
      done;
      Asm.ldi b a0 (Int64.of_int n);
      Asm.ldi b a1 kinds_base;
      Asm.ldi b a2 values_base;
      Asm.call b "parse";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "cc";
    wmimics = "126.gcc (SPEC95)";
    wdescr = "table-driven token dispatch through indirect calls";
    wbuild = build;
    warities =
      [ ("parse", 3); ("h_ident", 1); ("h_num", 1); ("h_op", 1); ("h_kw", 1);
        ("h_str", 1); ("h_punct", 1) ] }
