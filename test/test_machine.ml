open Isa

(* Build a one-procedure program from a builder callback and run it. *)
let build body =
  let b = Asm.create () in
  Asm.proc b "main" (fun b -> body b);
  Asm.assemble b ~entry:"main"

let exec body = Machine.execute (build body)

let test_arithmetic () =
  let m =
    exec (fun b ->
        Asm.ldi b t0 10L;
        Asm.addi b ~dst:t1 t0 5L;
        Asm.subi b ~dst:t2 t0 15L;
        Asm.muli b ~dst:t3 t0 (-3L);
        Asm.divi b ~dst:t4 t0 3L;
        Asm.remi b ~dst:t5 t0 3L;
        Asm.halt b)
  in
  Alcotest.(check int64) "add" 15L (Machine.reg m t1);
  Alcotest.(check int64) "sub" (-5L) (Machine.reg m t2);
  Alcotest.(check int64) "mul" (-30L) (Machine.reg m t3);
  Alcotest.(check int64) "div" 3L (Machine.reg m t4);
  Alcotest.(check int64) "rem" 1L (Machine.reg m t5)

let test_logic_and_shifts () =
  let m =
    exec (fun b ->
        Asm.ldi b t0 0b1100L;
        Asm.andi b ~dst:t1 t0 0b1010L;
        Asm.ori b ~dst:t2 t0 0b0011L;
        Asm.xori b ~dst:t3 t0 0b1111L;
        Asm.slli b ~dst:t4 t0 2L;
        Asm.ldi b t5 (-8L);
        Asm.srai b ~dst:t6 t5 1L;
        Asm.srli b ~dst:t7 t5 60L;
        Asm.halt b)
  in
  Alcotest.(check int64) "and" 0b1000L (Machine.reg m t1);
  Alcotest.(check int64) "or" 0b1111L (Machine.reg m t2);
  Alcotest.(check int64) "xor" 0b0011L (Machine.reg m t3);
  Alcotest.(check int64) "sll" 0b110000L (Machine.reg m t4);
  Alcotest.(check int64) "sra keeps sign" (-4L) (Machine.reg m t6);
  Alcotest.(check int64) "srl is logical" 15L (Machine.reg m t7)

let test_comparisons () =
  let m =
    exec (fun b ->
        Asm.ldi b t0 5L;
        Asm.cmpeqi b ~dst:t1 t0 5L;
        Asm.cmplti b ~dst:t2 t0 5L;
        Asm.cmplei b ~dst:t3 t0 5L;
        Asm.ldi b t4 (-1L);
        (* signed: -1 < 1; unsigned: -1 is huge *)
        Asm.bin b Isa.Cmplt ~dst:t5 t4 (Isa.Imm 1L);
        Asm.bin b Isa.Cmpult ~dst:t6 t4 (Isa.Imm 1L);
        Asm.halt b)
  in
  Alcotest.(check int64) "eq" 1L (Machine.reg m t1);
  Alcotest.(check int64) "lt strict" 0L (Machine.reg m t2);
  Alcotest.(check int64) "le" 1L (Machine.reg m t3);
  Alcotest.(check int64) "signed lt" 1L (Machine.reg m t5);
  Alcotest.(check int64) "unsigned lt" 0L (Machine.reg m t6)

let test_div_by_zero_traps () =
  Alcotest.check_raises "div" (Machine.Trap (Machine.Div_by_zero 1)) (fun () ->
      ignore
        (exec (fun b ->
             Asm.ldi b t0 1L;
             Asm.divi b ~dst:t1 t0 0L;
             Asm.halt b)))

let test_zero_register_immutable () =
  let m =
    exec (fun b ->
        Asm.ldi b zero_reg 99L;
        Asm.addi b ~dst:t0 zero_reg 1L;
        Asm.halt b)
  in
  Alcotest.(check int64) "zero stays zero" 0L (Machine.reg m zero_reg);
  Alcotest.(check int64) "reads as zero" 1L (Machine.reg m t0)

let test_memory_ops () =
  let m =
    exec (fun b ->
        Asm.ldi b t0 1000L;
        Asm.ldi b t1 77L;
        Asm.st b ~src:t1 ~base:t0 ~off:5;
        Asm.ld b ~dst:t2 ~base:t0 ~off:5;
        Asm.ld b ~dst:t3 ~base:t0 ~off:6;
        Asm.halt b)
  in
  Alcotest.(check int64) "load back" 77L (Machine.reg m t2);
  Alcotest.(check int64) "untouched zero" 0L (Machine.reg m t3)

let test_branches () =
  let m =
    exec (fun b ->
        Asm.ldi b t0 3L;
        Asm.ldi b t1 0L;
        Asm.label b "loop";
        Asm.addi b ~dst:t1 t1 10L;
        Asm.subi b ~dst:t0 t0 1L;
        Asm.br b Gt t0 "loop";
        Asm.halt b)
  in
  Alcotest.(check int64) "looped 3 times" 30L (Machine.reg m t1)

let test_all_branch_conditions () =
  (* For v in {-1, 0, 1} check each condition against 0. *)
  let expect v cond =
    match cond with
    | Eq -> v = 0
    | Ne -> v <> 0
    | Lt -> v < 0
    | Le -> v <= 0
    | Gt -> v > 0
    | Ge -> v >= 0
  in
  List.iter
    (fun v ->
      List.iter
        (fun cond ->
          let m =
            exec (fun b ->
                Asm.ldi b t0 (Int64.of_int v);
                Asm.ldi b t1 0L;
                Asm.br b cond t0 "taken";
                Asm.halt b;
                Asm.label b "taken";
                Asm.ldi b t1 1L;
                Asm.halt b)
          in
          Alcotest.(check int64)
            (Printf.sprintf "v=%d cond=%s" v (Isa.string_of_cond cond))
            (if expect v cond then 1L else 0L)
            (Machine.reg m t1))
        [ Eq; Ne; Lt; Le; Gt; Ge ])
    [ -1; 0; 1 ]

let test_calls () =
  let b = Asm.create () in
  Asm.proc b "double" (fun b ->
      Asm.add b ~dst:v0 a0 a0;
      Asm.ret b);
  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 21L;
      Asm.call b "double";
      Asm.halt b);
  let m = Machine.execute (Asm.assemble b ~entry:"main") in
  Alcotest.(check int64) "returned" 42L (Machine.reg m v0)

let test_recursion () =
  (* factorial via memory accumulator to respect the convention *)
  let b = Asm.create () in
  Asm.proc b "fact" (fun b ->
      (* fact(n=a0) -> v0 = n!: v0 = n <= 1 ? 1 : n * fact(n-1) *)
      Asm.cmplei b ~dst:t0 a0 1L;
      Asm.br b Ne t0 "base";
      (* spill n to the stack across the recursive call *)
      Asm.subi b ~dst:sp sp 1L;
      Asm.st b ~src:a0 ~base:sp ~off:0;
      Asm.subi b ~dst:a0 a0 1L;
      Asm.call b "fact";
      Asm.ld b ~dst:t1 ~base:sp ~off:0;
      Asm.addi b ~dst:sp sp 1L;
      Asm.mul b ~dst:v0 v0 t1;
      Asm.ret b;
      Asm.label b "base";
      Asm.ldi b v0 1L;
      Asm.ret b);
  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 10L;
      Asm.call b "fact";
      Asm.halt b);
  let m = Machine.execute (Asm.assemble b ~entry:"main") in
  Alcotest.(check int64) "10!" 3628800L (Machine.reg m v0)

let test_ret_with_empty_stack_halts () =
  let m =
    exec (fun b ->
        Asm.ldi b v0 5L;
        Asm.ret b)
  in
  Alcotest.(check bool) "halted" true (Machine.halted m);
  Alcotest.(check int64) "v0 kept" 5L (Machine.reg m v0)

let test_indirect_call () =
  let b = Asm.create () in
  Asm.proc b "target" (fun b ->
      Asm.ldi b v0 7L;
      Asm.ret b);
  Asm.proc b "main" (fun b ->
      Asm.code_addr_of b ~dst:t0 "target";
      Asm.call_ind b t0;
      Asm.halt b);
  let m = Machine.execute (Asm.assemble b ~entry:"main") in
  Alcotest.(check int64) "dispatched" 7L (Machine.reg m v0)

let test_fuel_exhaustion () =
  let prog =
    build (fun b ->
        Asm.label b "spin";
        Asm.jmp b "spin")
  in
  Alcotest.check_raises "fuel" (Machine.Trap (Machine.Fuel_exhausted 1000))
    (fun () -> ignore (Machine.execute ~fuel:1000 prog))

let test_call_depth_trap () =
  let b = Asm.create () in
  Asm.proc b "forever" (fun b ->
      Asm.call b "forever";
      Asm.ret b);
  Asm.proc b "main" (fun b ->
      Asm.call b "forever";
      Asm.halt b);
  let prog = Asm.assemble b ~entry:"main" in
  Alcotest.check_raises "depth"
    (Machine.Trap (Machine.Call_depth_exceeded Machine.max_call_depth))
    (fun () -> ignore (Machine.execute prog))

let test_invalid_indirect_target () =
  let prog =
    build (fun b ->
        Asm.ldi b t0 9999L;
        Asm.call_ind b t0;
        Asm.halt b)
  in
  Alcotest.check_raises "invalid pc" (Machine.Trap (Machine.Invalid_pc 9999))
    (fun () -> ignore (Machine.execute prog))

let test_hooks_see_values () =
  let prog =
    build (fun b ->
        Asm.ldi b t0 123L;
        Asm.ldi b t1 500L;
        Asm.st b ~src:t0 ~base:t1 ~off:2;
        Asm.ld b ~dst:t2 ~base:t1 ~off:2;
        Asm.halt b)
  in
  let m = Machine.create prog in
  let events = ref [] in
  for pc = 0 to 3 do
    Machine.add_hook m pc (fun value addr -> events := (pc, value, addr) :: !events)
  done;
  ignore (Machine.run m);
  let events = List.rev !events in
  Alcotest.(check int) "four events" 4 (List.length events);
  (match events with
   | [ (0, v0', a0'); (1, v1, a1); (2, v2, a2); (3, v3, a3) ] ->
     Alcotest.(check int64) "ldi value" 123L v0';
     Alcotest.(check int64) "ldi addr" 0L a0';
     Alcotest.(check int64) "ldi2 value" 500L v1;
     Alcotest.(check int64) "ldi2 addr" 0L a1;
     Alcotest.(check int64) "store value" 123L v2;
     Alcotest.(check int64) "store addr" 502L a2;
     Alcotest.(check int64) "load value" 123L v3;
     Alcotest.(check int64) "load addr" 502L a3
   | _ -> Alcotest.fail "unexpected event shape")

let test_proc_hooks () =
  let b = Asm.create () in
  Asm.proc b "callee" (fun b ->
      Asm.addi b ~dst:v0 a0 1L;
      Asm.ret b);
  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 10L;
      Asm.call b "callee";
      Asm.ldi b a0 20L;
      Asm.call b "callee";
      Asm.halt b);
  let prog = Asm.assemble b ~entry:"main" in
  let m = Machine.create prog in
  let callee = Asm.find_proc prog "callee" in
  let entries = ref [] and returns = ref [] in
  Machine.add_proc_entry_hook m callee.Asm.pindex (fun m ->
      entries := Machine.reg m a0 :: !entries);
  Machine.add_proc_return_hook m callee.Asm.pindex (fun _m v ->
      returns := v :: !returns);
  ignore (Machine.run m);
  Alcotest.(check (list int64)) "entry args" [ 10L; 20L ] (List.rev !entries);
  Alcotest.(check (list int64)) "return values" [ 11L; 21L ] (List.rev !returns)

let test_exec_counts () =
  let prog =
    build (fun b ->
        Asm.ldi b t0 4L;
        Asm.label b "loop";
        Asm.subi b ~dst:t0 t0 1L;
        Asm.br b Gt t0 "loop";
        Asm.halt b)
  in
  let m = Machine.create prog in
  ignore (Machine.run m);
  Alcotest.(check int) "init once" 1 (Machine.exec_count m 0);
  Alcotest.(check int) "loop body 4x" 4 (Machine.exec_count m 1);
  Alcotest.(check int) "icount total" 10 (Machine.icount m)

let test_reset () =
  let prog =
    build (fun b ->
        Asm.ldi b t0 1000L;
        Asm.ld b ~dst:t1 ~base:t0 ~off:0;
        Asm.addi b ~dst:t1 t1 1L;
        Asm.st b ~src:t1 ~base:t0 ~off:0;
        Asm.halt b)
  in
  let m = Machine.create prog in
  ignore (Machine.run m);
  Alcotest.(check int64) "first run" 1L (Memory.read (Machine.memory m) 1000L);
  Machine.reset m;
  Alcotest.(check int) "icount cleared" 0 (Machine.icount m);
  Alcotest.(check int64) "memory cleared" 0L (Memory.read (Machine.memory m) 1000L);
  ignore (Machine.run m);
  Alcotest.(check int64) "second run identical" 1L
    (Memory.read (Machine.memory m) 1000L)

let test_determinism () =
  let w = Workloads.find "compress" in
  let p1 = w.Workload.wbuild Workload.Test in
  let p2 = w.Workload.wbuild Workload.Test in
  let m1 = Machine.execute p1 and m2 = Machine.execute p2 in
  Alcotest.(check int) "same icount" (Machine.icount m1) (Machine.icount m2);
  Alcotest.(check int64) "same result" (Machine.reg m1 v0) (Machine.reg m2 v0)

let test_caller_pc () =
  let b = Asm.create () in
  Asm.proc b "callee" (fun b ->
      Asm.ldi b v0 1L;
      Asm.ret b);
  Asm.proc b "main" (fun b ->
      Asm.nop b;
      Asm.call b "callee"; (* pc 2 + 1 = the call at index 3 *)
      Asm.halt b);
  let prog = Asm.assemble b ~entry:"main" in
  let m = Machine.create prog in
  Alcotest.(check (option int)) "no frame yet" None (Machine.caller_pc m);
  let callee = Asm.find_proc prog "callee" in
  let seen = ref None in
  Machine.add_proc_entry_hook m callee.Asm.pindex (fun m ->
      seen := Machine.caller_pc m);
  ignore (Machine.run m);
  (match !seen with
   | Some pc ->
     (match prog.Asm.code.(pc) with
      | Isa.Jsr _ -> ()
      | other -> Alcotest.failf "caller_pc points at %s" (Isa.to_string other))
   | None -> Alcotest.fail "entry hook never fired")

let test_indirect_call_fires_entry_hook () =
  let b = Asm.create () in
  Asm.proc b "callee" (fun b ->
      Asm.ldi b v0 1L;
      Asm.ret b);
  Asm.proc b "main" (fun b ->
      Asm.code_addr_of b ~dst:t0 "callee";
      Asm.call_ind b t0;
      Asm.halt b);
  let prog = Asm.assemble b ~entry:"main" in
  let m = Machine.create prog in
  let fired = ref 0 in
  Machine.add_proc_entry_hook m (Asm.find_proc prog "callee").Asm.pindex
    (fun _ -> incr fired);
  ignore (Machine.run m);
  Alcotest.(check int) "entry hook on indirect call" 1 !fired

let test_clear_hooks () =
  let prog =
    build (fun b ->
        Asm.ldi b t0 1L;
        Asm.ldi b t1 2L;
        Asm.halt b)
  in
  let m = Machine.create prog in
  let hits = ref 0 in
  Machine.add_hook m 0 (fun _ _ -> incr hits);
  Machine.add_hook m 1 (fun _ _ -> incr hits);
  Machine.clear_hook m 0;
  ignore (Machine.run m);
  Alcotest.(check int) "only pc 1 fires" 1 !hits;
  Machine.reset m;
  Machine.clear_all_hooks m;
  hits := 0;
  ignore (Machine.run m);
  Alcotest.(check int) "none fire" 0 !hits

(* Subscription is additive: a second observer on the same pc must not
   silently replace the first (the pre-observer API's footgun). *)
let test_hook_fan_out_order () =
  let prog =
    build (fun b ->
        Asm.ldi b t0 7L;
        Asm.halt b)
  in
  let m = Machine.create prog in
  let log = ref [] in
  Machine.add_hook m 0 (fun v _ -> log := ("first", v) :: !log);
  Machine.add_hook m 0 (fun v _ -> log := ("second", v) :: !log);
  Machine.add_hook m 0 (fun v _ -> log := ("third", v) :: !log);
  Alcotest.(check int) "three subscribers" 3 (Machine.hook_count m 0);
  ignore (Machine.run m);
  Alcotest.(check (list (pair string int64)))
    "all fire, in attach order"
    [ ("first", 7L); ("second", 7L); ("third", 7L) ]
    (List.rev !log)

let test_attachment_detaches_as_unit () =
  let prog =
    build (fun b ->
        Asm.ldi b t0 7L;
        Asm.ldi b t1 8L;
        Asm.halt b)
  in
  let m = Machine.create prog in
  let outer = ref 0 and inner = ref 0 in
  Machine.add_hook m 0 (fun _ _ -> incr outer);
  let (), att =
    Machine.with_attachment m (fun () ->
        Machine.add_hook m 0 (fun _ _ -> incr inner);
        Machine.add_hook m 1 (fun _ _ -> incr inner))
  in
  Alcotest.(check int) "frame logged both subscriptions" 2
    (Machine.hook_count m 0 + Machine.hook_count m 1 - 1);
  Machine.detach m att;
  Alcotest.(check int) "outer observer survives" 1 (Machine.hook_count m 0);
  Alcotest.(check int) "frame's pc 1 hook gone" 0 (Machine.hook_count m 1);
  ignore (Machine.run m);
  Alcotest.(check int) "survivor still fires" 1 !outer;
  Alcotest.(check int) "detached hooks never fire" 0 !inner

let test_attachment_detach_is_physical () =
  (* an identical closure subscribed outside the frame survives: detach
     removes the recorded instances only *)
  let prog =
    build (fun b ->
        Asm.ldi b t0 1L;
        Asm.halt b)
  in
  let m = Machine.create prog in
  let hits = ref 0 in
  let f _ _ = incr hits in
  Machine.add_hook m 0 f;
  let (), att = Machine.with_attachment m (fun () -> Machine.add_hook m 0 f) in
  Machine.detach m att;
  Alcotest.(check int) "the outside instance survives" 1
    (Machine.hook_count m 0);
  ignore (Machine.run m);
  Alcotest.(check int) "and fires once" 1 !hits

let test_attachment_frames_do_not_nest () =
  let prog =
    build (fun b ->
        Asm.ldi b t0 1L;
        Asm.halt b)
  in
  let m = Machine.create prog in
  let (), _ =
    Machine.with_attachment m (fun () ->
        match Machine.with_attachment m (fun () -> ()) with
        | _ -> Alcotest.fail "nested frame must be rejected"
        | exception Invalid_argument _ -> ())
  in
  ()

let test_clear_hook_removes_all_subscribers () =
  let prog =
    build (fun b ->
        Asm.ldi b t0 1L;
        Asm.halt b)
  in
  let m = Machine.create prog in
  let hits = ref 0 in
  Machine.add_hook m 0 (fun _ _ -> incr hits);
  Machine.add_hook m 0 (fun _ _ -> incr hits);
  Machine.clear_hook m 0;
  Alcotest.(check int) "no subscribers left" 0 (Machine.hook_count m 0);
  ignore (Machine.run m);
  Alcotest.(check int) "neither fires" 0 !hits;
  (* re-attaching after a clear starts a fresh subscriber list *)
  Machine.reset m;
  Machine.add_hook m 0 (fun _ _ -> incr hits);
  ignore (Machine.run m);
  Alcotest.(check int) "fresh subscription fires once" 1 !hits

let test_proc_hook_fan_out () =
  let b = Asm.create () in
  Asm.proc b "callee" (fun b ->
      Asm.addi b ~dst:v0 a0 1L;
      Asm.ret b);
  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 10L;
      Asm.call b "callee";
      Asm.ldi b a0 20L;
      Asm.call b "callee";
      Asm.halt b);
  let prog = Asm.assemble b ~entry:"main" in
  let m = Machine.create prog in
  let callee = (Asm.find_proc prog "callee").Asm.pindex in
  let e1 = ref 0 and e2 = ref [] and r1 = ref 0 and r2 = ref [] in
  Machine.add_proc_entry_hook m callee (fun _ -> incr e1);
  Machine.add_proc_entry_hook m callee (fun m ->
      e2 := Machine.reg m a0 :: !e2);
  Machine.add_proc_return_hook m callee (fun _ _ -> incr r1);
  Machine.add_proc_return_hook m callee (fun _ v -> r2 := v :: !r2);
  ignore (Machine.run m);
  Alcotest.(check int) "first entry observer" 2 !e1;
  Alcotest.(check (list int64)) "second entry observer sees args"
    [ 10L; 20L ] (List.rev !e2);
  Alcotest.(check int) "first return observer" 2 !r1;
  Alcotest.(check (list int64)) "second return observer sees values"
    [ 11L; 21L ] (List.rev !r2)

let test_step_after_halt_is_noop () =
  let m = Machine.execute (build (fun b -> Asm.halt b)) in
  let count = Machine.icount m in
  Machine.step m;
  Alcotest.(check int) "icount unchanged" count (Machine.icount m);
  Alcotest.(check bool) "still halted" true (Machine.halted m)

let test_sp_initial () =
  let m = Machine.create (build (fun b -> Asm.halt b)) in
  Alcotest.(check int64) "sp at stack base" Machine.stack_base (Machine.reg m sp)

(* A load or store whose effective address is negative is a machine trap
   at its pc, raised after the instruction is counted, like a division by
   zero. *)
let test_negative_address_traps () =
  let check name emit =
    let m =
      Machine.create
        (build (fun b ->
             Asm.ldi b t0 (-5L);
             emit b;
             Asm.halt b))
    in
    Alcotest.check_raises name (Machine.Trap (Machine.Negative_address 1))
      (fun () -> ignore (Machine.run m));
    Alcotest.(check int) (name ^ ": trapping instruction counted") 1
      (Machine.exec_count m 1);
    Alcotest.(check int) (name ^ ": icount") 2 (Machine.icount m)
  in
  check "load" (fun b -> Asm.ld b ~dst:t1 ~base:t0 ~off:0);
  check "store" (fun b -> Asm.st b ~src:t0 ~base:t0 ~off:2);
  (* the offset is part of the effective address *)
  check "offset" (fun b -> Asm.ld b ~dst:t1 ~base:zero_reg ~off:(-1))

(* The eDSL does not check register indices: a program naming register 40
   must still create and run, failing only when that instruction runs. *)
let test_bad_register_raises_when_executed () =
  let prog ~skip =
    { Asm.code =
        [| Isa.Ldi (t0, (if skip then 1L else 0L));
           Isa.Br (Isa.Ne, t0, 3);
           Isa.Op (Isa.Add, 40, Isa.Imm 1L, t1);
           Isa.Halt |];
      procs = [| { Asm.pname = "main"; pentry = 0; plength = 4; pindex = 0 } |];
      data = [];
      entry = 0 }
  in
  let m = Machine.create (prog ~skip:true) in
  ignore (Machine.run m);
  Alcotest.(check bool) "skipped: halts normally" true (Machine.halted m);
  let m = Machine.create (prog ~skip:false) in
  Alcotest.check_raises "executed" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Machine.run m));
  Alcotest.(check int) "counted like any instruction" 1 (Machine.exec_count m 2);
  Alcotest.check_raises "reg accessor" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Machine.reg m 40))

let test_zero_register_write_hook () =
  let prog =
    build (fun b ->
        Asm.ldi b t0 41L;
        Asm.addi b ~dst:zero_reg t0 1L;
        Asm.ld b ~dst:zero_reg ~base:t0 ~off:0;
        Asm.halt b)
  in
  let m = Machine.create prog in
  let seen = ref [] in
  Machine.add_hook m 1 (fun v a -> seen := (v, a) :: !seen);
  ignore (Machine.run m);
  Alcotest.(check (list (pair int64 int64))) "hook sees the computed value"
    [ (42L, 0L) ] !seen;
  Alcotest.(check int64) "zero register still reads 0" 0L (Machine.reg m zero_reg)

(* Recursion far deeper than the call stack's initial capacity: every
   frame must return to its own call site, and [caller_pc] must name the
   call instruction of the innermost frame at each level. *)
let test_deep_recursion () =
  let depth = 1000 in
  let b = Asm.create () in
  Asm.proc b "sum" (fun b ->
      (* sum(n = a0) -> v0 = n + sum(n - 1), sum(0) = 0 *)
      Asm.br b Eq a0 "base";
      Asm.subi b ~dst:sp sp 1L;
      Asm.st b ~src:a0 ~base:sp ~off:0;
      Asm.subi b ~dst:a0 a0 1L;
      Asm.call b "sum";
      Asm.ld b ~dst:t0 ~base:sp ~off:0;
      Asm.addi b ~dst:sp sp 1L;
      Asm.add b ~dst:v0 v0 t0;
      Asm.ret b;
      Asm.label b "base";
      Asm.ldi b v0 0L;
      Asm.ret b);
  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 (Int64.of_int depth);
      Asm.call b "sum";
      Asm.halt b);
  let prog = Asm.assemble b ~entry:"main" in
  let sum = Asm.find_proc prog "sum" and main = Asm.find_proc prog "main" in
  let outer_call = main.Asm.pentry + 1 and inner_call = sum.Asm.pentry + 4 in
  let m = Machine.create prog in
  let bad = ref [] and max_depth = ref 0 in
  let expect_caller what m =
    let d = Machine.call_depth m in
    max_depth := max !max_depth d;
    let want = if d = 1 then outer_call else inner_call in
    if Machine.caller_pc m <> Some want then bad := (what, d) :: !bad
  in
  Machine.add_proc_entry_hook m sum.Asm.pindex (expect_caller "entry");
  Machine.add_proc_return_hook m sum.Asm.pindex (fun m _ -> expect_caller "return" m);
  ignore (Machine.run m);
  Alcotest.(check int) "deepest frame" (depth + 1) !max_depth;
  Alcotest.(check (list (pair string int))) "caller_pc at every level" [] !bad;
  Alcotest.(check int64) "sum 1..n" (Int64.of_int (depth * (depth + 1) / 2))
    (Machine.reg m v0);
  Alcotest.(check int) "stack unwound" 0 (Machine.call_depth m)

(* ---- gated subscriptions ----------------------------------------- *)

(* A counting loop: the instruction at pc 1 runs [n] times and produces
   1, 2, ..., n, so a hook there learns which execution it was given. *)
let counting_loop n =
  build (fun b ->
      Asm.ldi b t0 (Int64.of_int n);
      Asm.label b "loop";
      Asm.addi b ~dst:t1 t1 1L;
      Asm.subi b ~dst:t0 t0 1L;
      Asm.br b Gt t0 "loop";
      Asm.halt b)

(* A gated hook at pc 1 that logs the executions it is given and always
   asks to skip [skip] more. *)
let gated_log m skip =
  let log = ref [] in
  let g =
    Machine.add_gated_hook m 1 (fun v _ ->
        log := Int64.to_int v :: !log;
        skip)
  in
  (g, fun () -> List.rev !log)

let test_gate_zero_sees_every_execution () =
  let m = Machine.create (counting_loop 10) in
  let g, log = gated_log m 0 in
  ignore (Machine.run m);
  Alcotest.(check (list int)) "every execution delivered"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (log ());
  Alcotest.(check int) "every execution counted" 10 (Machine.gate_executions m g)

(* reset zeroes the exec counts but not what a gate still withholds:
   after the delivery at 9 with a gap of 3, execution 10 and the first
   two of the next run are skipped *)
let test_gate_survives_reset () =
  let m = Machine.create (counting_loop 10) in
  let g, log = gated_log m 3 in
  ignore (Machine.run m);
  Alcotest.(check (list int)) "first run" [ 1; 5; 9 ] (log ());
  Alcotest.(check int) "first run counted" 10 (Machine.gate_executions m g);
  Machine.reset m;
  Alcotest.(check int) "reset keeps the count" 10 (Machine.gate_executions m g);
  ignore (Machine.run m);
  Alcotest.(check (list int)) "the gap carries over" [ 1; 5; 9; 3; 7 ] (log ());
  Alcotest.(check int) "both runs counted" 20 (Machine.gate_executions m g)

let test_gate_cleared () =
  let m = Machine.create (counting_loop 10) in
  let g, log = gated_log m 1 in
  let plain = ref 0 in
  Machine.add_hook m 1 (fun _ _ -> incr plain);
  Alcotest.(check int) "gates count as subscribers" 2 (Machine.hook_count m 1);
  ignore (Machine.run m);
  Machine.clear_hook m 1;
  Alcotest.(check int) "no subscribers left" 0 (Machine.hook_count m 1);
  Machine.reset m;
  ignore (Machine.run m);
  Alcotest.(check (list int)) "nothing delivered after the clear"
    [ 1; 3; 5; 7; 9 ] (log ());
  Alcotest.(check int) "plain hook saw one run" 10 !plain;
  Alcotest.(check int) "count stops at the clear" 10 (Machine.gate_executions m g);
  (* clear_all_hooks closes gates too *)
  let m = Machine.create (counting_loop 10) in
  let g, log = gated_log m 0 in
  ignore (Machine.run m);
  Machine.clear_all_hooks m;
  Machine.reset m;
  ignore (Machine.run m);
  Alcotest.(check int) "clear_all_hooks stops the count" 10
    (Machine.gate_executions m g);
  Alcotest.(check int) "and the deliveries" 10 (List.length (log ()))

(* Two gates and a plain hook at one pc each keep their own cadence;
   detaching one gate mid-run leaves the others untouched. *)
let test_gate_detach_one_of_two () =
  let m = Machine.create (counting_loop 10) in
  let plain = ref [] in
  Machine.add_hook m 1 (fun v _ -> plain := Int64.to_int v :: !plain);
  let (a, log_a), att_a = Machine.with_attachment m (fun () -> gated_log m 1) in
  let (b, log_b), _ = Machine.with_attachment m (fun () -> gated_log m 2) in
  (* ldi, then 6 iterations of three instructions *)
  (try ignore (Machine.run ~fuel:19 m)
   with Machine.Trap (Machine.Fuel_exhausted _) -> ());
  Machine.detach m att_a;
  Alcotest.(check int) "two subscribers left" 2 (Machine.hook_count m 1);
  ignore (Machine.run m);
  Alcotest.(check (list int)) "detached gate" [ 1; 3; 5 ] (log_a ());
  Alcotest.(check int) "detached gate counted up to its detach" 6
    (Machine.gate_executions m a);
  Alcotest.(check (list int)) "surviving gate" [ 1; 4; 7; 10 ] (log_b ());
  Alcotest.(check int) "surviving gate counted the whole run" 10
    (Machine.gate_executions m b);
  Alcotest.(check (list int)) "plain hook saw every execution"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !plain)

let test_gate_step () =
  let stepped = Machine.create (counting_loop 10) in
  let g, log = gated_log stepped 2 in
  while not (Machine.halted stepped) do
    Machine.step stepped
  done;
  Alcotest.(check (list int)) "step delivers what run does" [ 1; 4; 7; 10 ] (log ());
  Alcotest.(check int) "and counts every execution" 10
    (Machine.gate_executions stepped g)

(* ---- plain and gated subscribers at one pc ------------------------- *)

(* At a pc with both kinds of subscriber, each execution goes to the
   plain observers in attach order, then to the gates it is due for, in
   attach order, whichever kind was attached first. *)
let test_mixed_delivery_order () =
  let m = Machine.create (counting_loop 4) in
  let log = ref [] in
  let note name v = log := (name, Int64.to_int v) :: !log in
  let gate name skip =
    ignore
      (Machine.add_gated_hook m 1 (fun v _ ->
           note name v;
           skip))
  in
  gate "gate a" 1;
  Machine.add_hook m 1 (fun v _ -> note "plain x" v);
  gate "gate b" 0;
  Machine.add_hook m 1 (fun v _ -> note "plain y" v);
  ignore (Machine.run m);
  Alcotest.(check (list (pair string int)))
    "plain observers first, then the gates due"
    [ ("plain x", 1); ("plain y", 1); ("gate a", 1); ("gate b", 1);
      ("plain x", 2); ("plain y", 2); ("gate b", 2);
      ("plain x", 3); ("plain y", 3); ("gate a", 3); ("gate b", 3);
      ("plain x", 4); ("plain y", 4); ("gate b", 4) ]
    (List.rev !log)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A delivered event boxes its value; an execution every gate at the pc
   withholds costs no call and no box, with or without a plain observer
   beside the gates. Each gate here stops listening after its first
   delivery, so the gates add a few words to a run, not words per
   execution. *)
let test_withheld_executions_allocate_nothing () =
  let n = 10_000 in
  let run ~plain ~gates =
    let m = Machine.create (counting_loop n) in
    let seen = ref 0 in
    if plain then Machine.add_hook m 1 (fun _ _ -> incr seen);
    for _ = 1 to gates do
      ignore (Machine.add_gated_hook m 1 (fun _ _ -> max_int))
    done;
    minor_words (fun () -> ignore (Machine.run m))
  in
  let bare = run ~plain:false ~gates:0 and plain = run ~plain:true ~gates:0 in
  let within what words base =
    if words -. base > 100. then
      Alcotest.failf "%s: %.0f words over %.0f" what words base
  in
  Alcotest.(check bool) "a plain observer boxes each value" true
    (plain -. bare >= float_of_int n);
  within "one gate" (run ~plain:false ~gates:1) bare;
  within "two gates" (run ~plain:false ~gates:2) bare;
  within "a plain observer and a gate" (run ~plain:true ~gates:1) plain;
  within "a plain observer and two gates" (run ~plain:true ~gates:2) plain

(* Generated cases for the property below: loop programs (the sampler
   property's generator), a few of their value pcs with 1-4 subscribers
   each, attached in a shuffled order, every subscriber plain or gated
   with a skip sequence it cycles through. [runs] is [None] for one run,
   or [Some (fuel, detach)]: a first run cut after [fuel] instructions,
   the subscriber numbered [detach] (modulo their count) detached if any,
   [reset], and a second run to the end. *)
type sub_kind = Plain_sub | Gated_sub of int list

let gen_mixed =
  QCheck.Gen.(
    let skip =
      frequency [ (8, int_range (-1) 12); (1, oneofl [ 1000; max_int ]) ]
    in
    let kind =
      frequency
        [ (1, return Plain_sub);
          (1, map (fun l -> Gated_sub l) (list_size (int_range 1 4) skip)) ]
    in
    let* loop = Test_sampler.gen_loop in
    let* npcs = int_range 1 3 in
    let* at_pcs = list_size (return npcs) (pair nat (list_size (int_range 1 4) kind)) in
    let* subs =
      shuffle_l (List.concat_map (fun (p, ks) -> List.map (fun k -> (p, k)) ks) at_pcs)
    in
    let* runs =
      frequency
        [ (1, return None);
          (2, map2 (fun f d -> Some (f, d)) (int_range 1 20_000) (opt nat)) ]
    in
    return (loop, subs, runs))

let print_mixed ((iters, _, ops), subs, runs) =
  Printf.sprintf "iters %d, %d ops, subscribers [%s], %s" iters (List.length ops)
    (String.concat "; "
       (List.map
          (fun (p, k) ->
            match k with
            | Plain_sub -> Printf.sprintf "%d plain" p
            | Gated_sub l ->
              Printf.sprintf "%d gated %s" p
                (String.concat "," (List.map string_of_int l)))
          subs))
    (match runs with
     | None -> "one run"
     | Some (fuel, d) ->
       Printf.sprintf "fuel %d, detach %s, reset, run" fuel
         (match d with None -> "none" | Some d -> string_of_int d))

(* Subscribe one generated subscriber at [pc]; it logs (exec count,
   value, address) for each execution delivered to it. *)
let subscribe m pc kind =
  let log = ref [] in
  let note v a = log := (Machine.exec_count m pc, v, a) :: !log in
  let gate, att =
    Machine.with_attachment m (fun () ->
        match kind with
        | Plain_sub ->
          Machine.add_hook m pc note;
          None
        | Gated_sub skips ->
          let skips = Array.of_list skips and delivered = ref 0 in
          Some
            (Machine.add_gated_hook m pc (fun v a ->
                 note v a;
                 incr delivered;
                 skips.((!delivered - 1) mod Array.length skips))))
  in
  (log, gate, att)

(* Run [m] as the case says, detaching the subscribers [detached] picks
   between the runs, and read each subscriber's log and gate count. *)
let drive m runs subs ~detached =
  (match runs with
   | None -> ignore (Machine.run m)
   | Some (fuel, _) ->
     (try ignore (Machine.run ~fuel m)
      with Machine.Trap (Machine.Fuel_exhausted _) -> ());
     List.iteri (fun i (_, _, att) -> if detached i then Machine.detach m att) subs;
     Machine.reset m;
     ignore (Machine.run m));
  List.map
    (fun (log, gate, _) ->
      (List.rev !log, Option.map (Machine.gate_executions m) gate))
    subs

(* Every subscriber at a pc shared by plain and gated observers gets
   exactly what it gets subscribed alone on a fresh machine: the same
   deliveries and the same gate count, across a detach and a reset. *)
let prop_mixed_matches_solo =
  QCheck.Test.make ~name:"mixed subscribers each see what they see alone"
    ~count:200
    (QCheck.make ~print:print_mixed gen_mixed)
    (fun (spec, subs, runs) ->
      let prog = Test_sampler.build_loop spec in
      let pcs = Array.of_list (Atom.select prog `All) in
      let pc_of p = pcs.(p mod Array.length pcs) in
      let detached i =
        match runs with
        | Some (_, Some d) -> i = d mod List.length subs
        | Some (_, None) | None -> false
      in
      let shared =
        let m = Machine.create prog in
        drive m runs ~detached (List.map (fun (p, k) -> subscribe m (pc_of p) k) subs)
      in
      let alone =
        List.mapi
          (fun i (p, k) ->
            let m = Machine.create prog in
            List.hd
              (drive m runs
                 ~detached:(fun _ -> detached i)
                 [ subscribe m (pc_of p) k ]))
          subs
      in
      shared = alone)

let suite =
  [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "logic and shifts" `Quick test_logic_and_shifts;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "div by zero traps" `Quick test_div_by_zero_traps;
    Alcotest.test_case "zero register" `Quick test_zero_register_immutable;
    Alcotest.test_case "memory ops" `Quick test_memory_ops;
    Alcotest.test_case "branches" `Quick test_branches;
    Alcotest.test_case "all branch conditions" `Quick test_all_branch_conditions;
    Alcotest.test_case "calls" `Quick test_calls;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "ret on empty stack halts" `Quick test_ret_with_empty_stack_halts;
    Alcotest.test_case "indirect call" `Quick test_indirect_call;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "call depth trap" `Quick test_call_depth_trap;
    Alcotest.test_case "invalid indirect target" `Quick test_invalid_indirect_target;
    Alcotest.test_case "hooks see values" `Quick test_hooks_see_values;
    Alcotest.test_case "proc hooks" `Quick test_proc_hooks;
    Alcotest.test_case "exec counts" `Quick test_exec_counts;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "caller pc" `Quick test_caller_pc;
    Alcotest.test_case "indirect call entry hook" `Quick
      test_indirect_call_fires_entry_hook;
    Alcotest.test_case "clear hooks" `Quick test_clear_hooks;
    Alcotest.test_case "hook fan-out order" `Quick test_hook_fan_out_order;
    Alcotest.test_case "clear hook removes all" `Quick
      test_clear_hook_removes_all_subscribers;
    Alcotest.test_case "attachment detaches as a unit" `Quick
      test_attachment_detaches_as_unit;
    Alcotest.test_case "detach matches physically" `Quick
      test_attachment_detach_is_physical;
    Alcotest.test_case "attachment frames do not nest" `Quick
      test_attachment_frames_do_not_nest;
    Alcotest.test_case "proc hook fan-out" `Quick test_proc_hook_fan_out;
    Alcotest.test_case "step after halt" `Quick test_step_after_halt_is_noop;
    Alcotest.test_case "initial sp" `Quick test_sp_initial;
    Alcotest.test_case "negative address traps" `Quick test_negative_address_traps;
    Alcotest.test_case "bad register raises when executed" `Quick
      test_bad_register_raises_when_executed;
    Alcotest.test_case "zero register write hook" `Quick test_zero_register_write_hook;
    Alcotest.test_case "deep recursion" `Quick test_deep_recursion;
    Alcotest.test_case "gated hook returning 0 sees every execution" `Quick
      test_gate_zero_sees_every_execution;
    Alcotest.test_case "gate survives reset" `Quick test_gate_survives_reset;
    Alcotest.test_case "cleared gate stops" `Quick test_gate_cleared;
    Alcotest.test_case "detaching one of two gates" `Quick
      test_gate_detach_one_of_two;
    Alcotest.test_case "step honours gates" `Quick test_gate_step;
    Alcotest.test_case "mixed pc delivers plain observers before gates" `Quick
      test_mixed_delivery_order;
    Alcotest.test_case "withheld executions allocate nothing" `Quick
      test_withheld_executions_allocate_nothing;
    QCheck_alcotest.to_alcotest prop_mixed_matches_solo ]
