(* Property tests for the optimizer passes in isolation, using a small
   reference interpreter over Body.t (no machine, no calls): each pass
   must preserve the semantics the calling convention makes observable. *)

open Isa

(* --- reference interpreter --- *)

exception Stuck of string

exception Exit_div of int

(* How a reference run ended: at its [BRet]/[BHalt], or by a division by
   zero at the given pc. *)
type outcome = Finished | Div_by_zero_at of int

type trace = {
  outcome : outcome;
  final_regs : int64 array;
  final_mem : (int64, int64) Hashtbl.t;
  icount : int;
  counts : int array;  (** per-pc executions *)
  events : (int * int64 * int64) list;
      (** (pc, value, address) per executed instruction, as a machine hook
          at that pc receives them *)
}

(* Runs a call-free body, recording what the machine's per-pc hooks and
   counters would report. The counters include a trapping instruction;
   its event is not recorded (the machine fires no hook for it). *)
let trace_body (body : Body.t) ~(regs : int64 array) =
  let regs = Array.copy regs in
  regs.(zero_reg) <- 0L;
  let mem : (int64, int64) Hashtbl.t = Hashtbl.create 64 in
  let read_mem a = Option.value ~default:0L (Hashtbl.find_opt mem a) in
  let counts = Array.make (Array.length body) 0 in
  let icount = ref 0 and events = ref [] in
  let eval pc op a b =
    match op with
    | Add -> Int64.add a b
    | Sub -> Int64.sub a b
    | Mul -> Int64.mul a b
    | Div ->
      if Int64.equal b 0L then raise_notrace (Exit_div pc) else Int64.div a b
    | Rem ->
      if Int64.equal b 0L then raise_notrace (Exit_div pc) else Int64.rem a b
    | And -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
    | Sll -> Int64.shift_left a (Int64.to_int b land 63)
    | Srl -> Int64.shift_right_logical a (Int64.to_int b land 63)
    | Sra -> Int64.shift_right a (Int64.to_int b land 63)
    | Cmpeq -> if Int64.equal a b then 1L else 0L
    | Cmplt -> if Int64.compare a b < 0 then 1L else 0L
    | Cmple -> if Int64.compare a b <= 0 then 1L else 0L
    | Cmpult -> if Int64.unsigned_compare a b < 0 then 1L else 0L
  in
  let holds c v =
    let s = Int64.compare v 0L in
    match c with
    | Eq -> s = 0
    | Ne -> s <> 0
    | Lt -> s < 0
    | Le -> s <= 0
    | Gt -> s > 0
    | Ge -> s >= 0
  in
  let set rd v = if rd <> zero_reg then regs.(rd) <- v in
  let fuel = ref 100_000 in
  let pc = ref 0 in
  let running = ref true in
  let outcome =
    try
      while !running && !pc < Array.length body do
        decr fuel;
        if !fuel <= 0 then raise (Stuck "fuel");
        let here = !pc in
        counts.(here) <- counts.(here) + 1;
        incr icount;
        let event v a = events := (here, v, a) :: !events in
        match body.(here) with
        | Body.BOp (op, ra, ob, rc) ->
          let b = match ob with Isa.Reg r -> regs.(r) | Isa.Imm v -> v in
          let v = eval here op regs.(ra) b in
          set rc v;
          incr pc;
          event v 0L
        | Body.BLdi (rd, v) ->
          set rd v;
          incr pc;
          event v 0L
        | Body.BLd (rd, rb, off) ->
          let a = Int64.add regs.(rb) (Int64.of_int off) in
          let v = read_mem a in
          set rd v;
          incr pc;
          event v a
        | Body.BSt (ra, rb, off) ->
          let a = Int64.add regs.(rb) (Int64.of_int off) in
          Hashtbl.replace mem a regs.(ra);
          incr pc;
          event regs.(ra) a
        | Body.BBr (c, r, Body.Local t) ->
          let taken = holds c regs.(r) in
          if taken then pc := t else incr pc;
          event (if taken then 1L else 0L) 0L
        | Body.BJmp (Body.Local t) ->
          pc := t;
          event 0L 0L
        | Body.BBr (_, _, Body.Global _) | Body.BJmp (Body.Global _)
        | Body.BJsr _ | Body.BJsr_ind _ -> raise (Stuck "call in call-free body")
        | Body.BRet ->
          running := false;
          event regs.(v0) 0L
        | Body.BHalt ->
          running := false;
          event 0L 0L
        | Body.BNop ->
          incr pc;
          event 0L 0L
      done;
      Finished
    with Exit_div at -> Div_by_zero_at at
  in
  { outcome; final_regs = regs; final_mem = mem; icount = !icount; counts;
    events = List.rev !events }

(* Runs a call-free body; returns (registers, memory) at exit. *)
let run_body (body : Body.t) ~(regs : int64 array) =
  match trace_body body ~regs with
  | { outcome = Finished; final_regs; final_mem; _ } -> (final_regs, final_mem)
  | { outcome = Div_by_zero_at _; _ } -> raise (Stuck "div0")

let mem_to_sorted_list mem =
  Hashtbl.fold (fun a v acc -> if Int64.equal v 0L then acc else (a, v) :: acc)
    mem []
  |> List.sort compare

let observables (regs, mem) =
  (* what the calling convention lets a caller see *)
  ( regs.(v0),
    regs.(sp),
    Array.to_list (Array.sub regs s0 6),
    mem_to_sorted_list mem )

(* --- generator: random call-free bodies with forward branches --- *)

let scratch = [| t0; t1; t2; t3; t4; t5; s0; s1 |]

(* Operand values at the edges of 64-bit arithmetic: [Int64.min_int]
   overflows negation and division by -1, and shift amounts of 64 or more
   must wrap to their low 6 bits. *)
let edge_values = [| Int64.min_int; Int64.max_int; -1L; 0L; 64L; 65L; 127L |]

let gen_body =
  let open QCheck.Gen in
  let reg = map (fun i -> scratch.(i)) (int_range 0 7) in
  (* writes to the zero register must be discarded, reads see 0 *)
  let dst = frequency [ (8, reg); (1, return zero_reg) ] in
  let src = oneof [ reg; return a0; return sp; return zero_reg ] in
  let imm =
    frequency
      [ (6, map Int64.of_int (int_range (-9) 9));
        (1, map Int64.of_int (int_range 60 130));
        (1, oneofa edge_values) ]
  in
  let instr =
    frequency
      [ (6,
         map3
           (fun op (d, s) operand ->
             `Op (op, d, s, operand))
           (oneofl
              [ Add; Sub; Mul; And; Or; Xor; Cmpeq; Cmplt; Cmple; Cmpult;
                Sll; Srl; Sra ])
           (pair dst src)
           (oneof [ map (fun r -> `R r) src; map (fun v -> `I v) imm ]));
        (1,
         map2 (fun op (d, s) -> `Op (op, d, s, `I 7L))
           (oneofl [ Div; Rem ]) (pair dst src));
        (* a register divisor may be zero: the machine must trap *)
        (1,
         map3 (fun op (d, s) r -> `Op (op, d, s, `R r))
           (oneofl [ Div; Rem ]) (pair dst src) src);
        (1,
         map2 (fun d v -> `Ldi (d, v)) dst
           (oneof [ map Int64.of_int (int_range (-50) 50); oneofa edge_values ]));
        (1, map2 (fun d off -> `Ld (d, off)) dst (int_range 0 7));
        (1, map2 (fun s off -> `St (s, off)) src (int_range 0 7));
        (2,
         map3 (fun c r dist -> `Br (c, r, dist))
           (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ]) src (int_range 1 6)) ]
  in
  map
    (fun instrs ->
      let n = List.length instrs in
      let body =
        List.mapi
          (fun i instr ->
            match instr with
            | `Op (op, d, s, `R r) -> Body.BOp (op, s, Isa.Reg r, d)
            | `Op (op, d, s, `I v) -> Body.BOp (op, s, Isa.Imm v, d)
            | `Ldi (d, v) -> Body.BLdi (d, v)
            | `Ld (d, off) -> Body.BLd (d, sp, off)
            | `St (s, off) -> Body.BSt (s, sp, off)
            | `Br (c, r, dist) -> Body.BBr (c, r, Body.Local (min n (i + dist))))
          instrs
      in
      Array.of_list (body @ [ Body.BRet ]))
    (list_size (int_range 2 30) instr)

let gen_regs =
  QCheck.Gen.(
    map
      (fun seed ->
        let rng = Rng.create (Int64.of_int seed) in
        Array.init Isa.num_regs (fun _ ->
            if Rng.int rng 8 = 0 then Rng.choose rng edge_values
            else Rng.int64_range rng (-100L) 100L))
      int)

let arg = QCheck.make QCheck.Gen.(triple gen_body gen_regs (int_range (-20) 20))

(* constant folding under [a0 = c] preserves the entire register file and
   memory, for any values of the other registers *)
let prop_constfold_preserves =
  QCheck.Test.make ~name:"constfold preserves semantics" ~count:500 arg
    (fun (body, regs, c) ->
      let regs = Array.copy regs in
      regs.(a0) <- Int64.of_int c;
      let folded, _ =
        Constfold.fold body ~entry:(Constfold.entry_env [ (a0, Int64.of_int c) ])
      in
      match (run_body body ~regs, run_body folded ~regs) with
      | (r1, m1), (r2, m2) ->
        r1 = r2 && mem_to_sorted_list m1 = mem_to_sorted_list m2
      | exception Stuck _ -> QCheck.assume_fail ())

(* dead-code elimination preserves the observables (v0, sp, callee-saved
   registers, memory) *)
let prop_dce_preserves =
  QCheck.Test.make ~name:"dce preserves observables" ~count:500 arg
    (fun (body, regs, _) ->
      let cleaned, _ = Liveness.eliminate_dead body in
      match (run_body body ~regs, run_body cleaned ~regs) with
      | s1, s2 -> observables s1 = observables s2
      | exception Stuck _ -> QCheck.assume_fail ())

(* the full pipeline (fold + dce), as the specializer composes it *)
let prop_pipeline_preserves =
  QCheck.Test.make ~name:"fold+dce pipeline preserves observables" ~count:500
    arg
    (fun (body, regs, c) ->
      let regs = Array.copy regs in
      regs.(a0) <- Int64.of_int c;
      let folded, _ =
        Constfold.fold body ~entry:(Constfold.entry_env [ (a0, Int64.of_int c) ])
      in
      let cleaned, _ = Liveness.eliminate_dead folded in
      match (run_body body ~regs, run_body cleaned ~regs) with
      | s1, s2 -> observables s1 = observables s2
      | exception Stuck _ -> QCheck.assume_fail ())

(* folding is idempotent: folding a folded body changes nothing more *)
let prop_fold_idempotent =
  QCheck.Test.make ~name:"constfold is idempotent" ~count:300 arg
    (fun (body, _, c) ->
      let entry = Constfold.entry_env [ (a0, Int64.of_int c) ] in
      let once, _ = Constfold.fold body ~entry in
      let twice, stats = Constfold.fold once ~entry in
      twice = once || stats.Constfold.folded = 0)

(* the virtual machine agrees with this reference interpreter on call-free
   bodies — a differential check of the VM's instruction semantics: how the
   run ends (a division by zero must trap at its pc), the register file,
   memory, the instruction and per-pc execution counts, and the (value,
   address) stream every per-pc hook receives *)
let prop_machine_matches_reference =
  QCheck.Test.make ~name:"machine agrees with reference interpreter"
    ~count:300 arg
    (fun (body, regs, _) ->
      (* keep addresses valid for the machine: base every memory access on
         a positive sp *)
      let regs = Array.copy regs in
      regs.(sp) <- 5000L;
      match trace_body body ~regs with
      | exception Stuck _ -> QCheck.assume_fail ()
      | expected ->
        let prog =
          { Asm.code = Body.relocate body ~base:0;
            procs = [| { Asm.pname = "p"; pentry = 0;
                         plength = Array.length body; pindex = 0 } |];
            data = [];
            entry = 0 }
        in
        let run ~hooked =
          let m = Machine.create prog in
          for r = 0 to Isa.num_regs - 1 do
            Machine.set_reg m r regs.(r)
          done;
          let events = ref [] in
          if hooked then
            Array.iteri
              (fun pc _ ->
                Machine.add_hook m pc (fun v a -> events := (pc, v, a) :: !events))
              body;
          let outcome =
            match Machine.run ~fuel:200_000 m with
            | _ -> Finished
            | exception Machine.Trap (Machine.Div_by_zero pc) -> Div_by_zero_at pc
          in
          let mem = Hashtbl.create 16 in
          Memory.iter_touched (Machine.memory m) (fun a v -> Hashtbl.replace mem a v);
          outcome = expected.outcome
          && Array.init Isa.num_regs (Machine.reg m) = expected.final_regs
          && mem_to_sorted_list mem = mem_to_sorted_list expected.final_mem
          && Machine.icount m = expected.icount
          && Array.init (Array.length body) (Machine.exec_count m) = expected.counts
          && ((not hooked) || List.rev !events = expected.events)
        in
        (* uninstrumented, and with a hook on every pc: observing must
           not perturb the run *)
        run ~hooked:false && run ~hooked:true)

let suite =
  [ QCheck_alcotest.to_alcotest prop_machine_matches_reference;
    QCheck_alcotest.to_alcotest prop_constfold_preserves;
    QCheck_alcotest.to_alcotest prop_dce_preserves;
    QCheck_alcotest.to_alcotest prop_pipeline_preserves;
    QCheck_alcotest.to_alcotest prop_fold_idempotent ]
