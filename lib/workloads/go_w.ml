(* go: board evaluation modeled on 099.go. A padded 11x11 board (9x9
   playable) receives stones move by move; after each move the whole board
   is re-evaluated. Hot behaviour: board-cell loads dominated by 0 (empty)
   early and by few stone values throughout, giving the high %zero and
   invariance the paper reports for go. *)

open Isa

let side = 11 (* 9x9 playable area with a one-cell border *)
let cells = side * side

let build input =
  let rng = Workload.rng "go" input in
  let moves = Workload.pick input ~test:180 ~train:480 in
  let positions =
    Array.init moves (fun _ ->
        (* skewed placement: corners/edges of the playable area favoured *)
        let r = 1 + Rng.skewed rng ~n:9 ~s:1.4 in
        let c = 1 + Rng.skewed rng ~n:9 ~s:1.4 in
        Int64.of_int ((r * side) + c))
  in
  let b = Asm.create () in
  let board = Asm.reserve b cells in
  let moves_base = Asm.data b positions in
  let result = Asm.reserve b 2 in

  (* eval(board=a0) -> v0 = position score. Scans every playable cell,
     scoring stones by their neighbourhood. Leaf procedure: t-registers
     only (t6=idx, t7=score), so the callee-saved convention holds. *)
  Asm.proc b "eval" (fun b ->
      Asm.ldi b t6 (Int64.of_int (side + 1));
      Asm.ldi b t7 0L;
      Asm.label b "cell_loop";
      Asm.cmplti b ~dst:t0 t6 (Int64.of_int (cells - side - 1));
      Asm.br b Eq t0 "eval_done";
      Asm.add b ~dst:t1 a0 t6;
      Asm.ld b ~dst:t2 ~base:t1 ~off:0;
      Asm.br b Eq t2 "next_cell";
      (* neighbour sum of an occupied cell *)
      Asm.ld b ~dst:t3 ~base:t1 ~off:1;
      Asm.ld b ~dst:t4 ~base:t1 ~off:(-1);
      Asm.add b ~dst:t3 t3 t4;
      Asm.ld b ~dst:t4 ~base:t1 ~off:side;
      Asm.add b ~dst:t3 t3 t4;
      Asm.ld b ~dst:t4 ~base:t1 ~off:(-side);
      Asm.add b ~dst:t3 t3 t4;
      (* score += stone * (neighbours + 1) *)
      Asm.addi b ~dst:t3 t3 1L;
      Asm.mul b ~dst:t5 t2 t3;
      Asm.add b ~dst:t7 t7 t5;
      Asm.label b "next_cell";
      Asm.addi b ~dst:t6 t6 1L;
      Asm.jmp b "cell_loop";
      Asm.label b "eval_done";
      Asm.mov b ~dst:v0 t7;
      Asm.ret b);

  (* play(moves=a0, n=a1, board=a2): alternate colours, evaluate after
     every move, accumulate scores. s0=i s1=n s2=moves s3=board s4=sum *)
  Asm.proc b "play" (fun b ->
      Asm.ldi b s0 0L;
      Asm.mov b ~dst:s1 a1;
      Asm.mov b ~dst:s2 a0;
      Asm.mov b ~dst:s3 a2;
      Asm.ldi b s4 0L;
      Asm.label b "move_loop";
      Asm.sub b ~dst:t0 s0 s1;
      Asm.br b Ge t0 "play_done";
      Asm.add b ~dst:t1 s2 s0;
      Asm.ld b ~dst:t2 ~base:t1 ~off:0;
      (* colour = 1 + (i & 1) *)
      Asm.andi b ~dst:t3 s0 1L;
      Asm.addi b ~dst:t3 t3 1L;
      Asm.add b ~dst:t4 s3 t2;
      Asm.st b ~src:t3 ~base:t4 ~off:0;
      Asm.mov b ~dst:a0 s3;
      Asm.call b "eval";
      Asm.add b ~dst:s4 s4 v0;
      Asm.addi b ~dst:s0 s0 1L;
      Asm.jmp b "move_loop";
      Asm.label b "play_done";
      Asm.ldi b t0 result;
      Asm.st b ~src:s4 ~base:t0 ~off:0;
      Asm.mov b ~dst:v0 s4;
      Asm.ret b);

  Asm.proc b "main" (fun b ->
      Asm.ldi b a0 moves_base;
      Asm.ldi b a1 (Int64.of_int moves);
      Asm.ldi b a2 board;
      Asm.call b "play";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let workload =
  { Workload.wname = "go";
    wmimics = "099.go (SPEC95)";
    wdescr = "board evaluation over a mostly-empty 9x9 go board";
    wbuild = build;
    warities = [ ("eval", 1); ("play", 3) ] }
