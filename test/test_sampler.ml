open Isa

(* A long loop with a stationary value stream: the sampler must converge
   and its estimate must match the full profile. *)
let stationary_program n =
  let b = Asm.create () in
  let values = Array.init 64 (fun i -> if i mod 8 = 0 then Int64.of_int i else 3L) in
  let base = Asm.data b values in
  Asm.proc b "main" (fun b ->
      Asm.ldi b t0 0L;
      Asm.ldi b t1 base;
      Asm.label b "loop";
      Asm.cmplti b ~dst:t2 t0 (Int64.of_int n);
      Asm.br b Eq t2 "done";
      Asm.andi b ~dst:t3 t0 63L;
      Asm.add b ~dst:t3 t1 t3;
      Asm.ld b ~dst:t4 ~base:t3 ~off:0;
      Asm.addi b ~dst:t0 t0 1L;
      Asm.jmp b "loop";
      Asm.label b "done";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let test_no_skip_equals_full () =
  (* burst-only config with zero skip profiles everything *)
  let config =
    { Sampler.default_config with initial_skip = 0; backoff = 1. }
  in
  let prog = stationary_program 5_000 in
  let sampled = Sampler.run ~config ~selection:`Loads prog in
  Alcotest.(check int) "everything profiled" sampled.Sampler.total_events
    sampled.Sampler.profiled_events;
  Alcotest.(check (float 1e-9)) "overhead 100%" 1.0 sampled.Sampler.overhead;
  let full = Profile.run ~selection:`Loads prog in
  Alcotest.(check (float 1e-9)) "zero error" 0.
    (Sampler.invariance_error sampled full)

let test_skipping_reduces_overhead () =
  let prog = stationary_program 20_000 in
  let sampled = Sampler.run ~selection:`Loads prog in
  Alcotest.(check bool) "overhead well below 1" true
    (sampled.Sampler.overhead < 0.5);
  Alcotest.(check bool) "but nonzero" true (sampled.Sampler.profiled_events > 0)

let test_convergence_on_stationary_stream () =
  let prog = stationary_program 50_000 in
  let sampled = Sampler.run ~selection:`Loads prog in
  let p =
    match Array.to_list sampled.Sampler.points with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected one load point"
  in
  Alcotest.(check bool) "converged" true p.Sampler.s_converged;
  let full = Profile.run ~selection:`Loads prog in
  Alcotest.(check bool) "error under 5%" true
    (Sampler.invariance_error sampled full < 0.05)

let test_events_accounting () =
  let prog = stationary_program 10_000 in
  let sampled = Sampler.run ~selection:`Loads prog in
  let p = sampled.Sampler.points.(0) in
  Alcotest.(check int) "every execution observed" 10_000 p.Sampler.s_events;
  Alcotest.(check bool) "profiled <= events" true
    (p.Sampler.s_profiled <= p.Sampler.s_events);
  Alcotest.(check int) "metrics total = profiled" p.Sampler.s_profiled
    p.Sampler.s_metrics.Metrics.total

let test_aggressive_backoff_cheaper () =
  let prog = stationary_program 50_000 in
  let eager =
    Sampler.run
      ~config:{ Sampler.default_config with backoff = 1. }
      ~selection:`Loads prog
  in
  let aggressive =
    Sampler.run
      ~config:{ Sampler.default_config with backoff = 16.; max_skip = 1_000_000 }
      ~selection:`Loads prog
  in
  Alcotest.(check bool) "backoff reduces profiled events" true
    (aggressive.Sampler.profiled_events < eager.Sampler.profiled_events)

let test_invalid_configs () =
  let prog = stationary_program 100 in
  Alcotest.check_raises "bad burst"
    (Invalid_argument "Sampler: burst must be positive") (fun () ->
      ignore
        (Sampler.run ~config:{ Sampler.default_config with burst = 0 } prog));
  Alcotest.check_raises "bad backoff"
    (Invalid_argument "Sampler: backoff must be >= 1") (fun () ->
      ignore
        (Sampler.run ~config:{ Sampler.default_config with backoff = 0.5 } prog));
  (* a negative gap never reaches the machine's gate *)
  Alcotest.check_raises "bad skip"
    (Invalid_argument "Sampler: skips must be >= 0") (fun () ->
      ignore
        (Sampler.run ~config:{ Sampler.default_config with initial_skip = -5 } prog));
  Alcotest.check_raises "bad max_skip"
    (Invalid_argument "Sampler: skips must be >= 0") (fun () ->
      ignore
        (Sampler.run ~config:{ Sampler.default_config with max_skip = -1 } prog))

let test_top_stability_criterion () =
  let prog = stationary_program 50_000 in
  let config =
    { Sampler.default_config with criterion = Sampler.Top_stability }
  in
  let sampled = Sampler.run ~config ~selection:`Loads prog in
  let p = sampled.Sampler.points.(0) in
  Alcotest.(check bool) "converges on stable top value" true
    p.Sampler.s_converged;
  let full = Profile.run ~selection:`Loads prog in
  Alcotest.(check bool) "error stays small" true
    (Sampler.invariance_error sampled full < 0.05)

let test_phase_change_reopens_sampling () =
  (* A stream that flips its dominant value half-way: the sampler must
     not stay converged on the stale estimate; its final Inv-Top must
     land well below the first phase's ~100%. *)
  let b = Asm.create () in
  let n = 40_000 in
  let values = Array.make 2 0L in
  values.(0) <- 111L;
  values.(1) <- 222L;
  let base = Asm.data b values in
  Asm.proc b "main" (fun b ->
      Asm.ldi b t0 0L;
      Asm.ldi b t1 base;
      Asm.label b "loop";
      Asm.cmplti b ~dst:t2 t0 (Int64.of_int n);
      Asm.br b Eq t2 "done";
      (* index 0 for the first half, 1 for the second *)
      Asm.cmplti b ~dst:t3 t0 (Int64.of_int (n / 2));
      Asm.xori b ~dst:t3 t3 1L;
      Asm.add b ~dst:t4 t1 t3;
      Asm.ld b ~dst:t5 ~base:t4 ~off:0;
      Asm.addi b ~dst:t0 t0 1L;
      Asm.jmp b "loop";
      Asm.label b "done";
      Asm.halt b);
  let prog = Asm.assemble b ~entry:"main" in
  (* the gap now keeps widening geometrically while converged, so cap it
     well below the phase length or the flip could fall inside one skip *)
  let config = { Sampler.default_config with max_skip = 2_000 } in
  let sampled = Sampler.run ~config ~selection:`Loads prog in
  let p = sampled.Sampler.points.(0) in
  Alcotest.(check bool) "estimate reflects both phases" true
    (p.Sampler.s_metrics.Metrics.inv_top < 0.9)

(* Regression for the convergent back-off: every quiet re-check burst must
   widen the gap again. The old code widened only on the burst that first
   established convergence (it guarded the back-off with [not converged]),
   so the gap froze after one widening and a long-converged point kept
   being re-profiled at nearly the initial rate. *)
let backoff_config =
  { Sampler.burst = 5; initial_skip = 10; epsilon = 0.01; consecutive = 1;
    backoff = 2.; max_skip = 1_000; criterion = Sampler.Inv_delta }

let test_backoff_keeps_widening () =
  let open Sampler.Testing in
  let st = make_state backoff_config in
  (* burst 1 sets the baseline; burst 2 is quiet, converges and doubles *)
  run_cycle st 7L;
  run_cycle st 7L;
  Alcotest.(check bool) "converged after quiet burst" true (is_converged st);
  Alcotest.(check int) "first widening" 20 (current_skip st);
  (* each further quiet re-check burst must double again — the frozen-gap
     bug left this stuck at 20 *)
  run_cycle st 7L;
  Alcotest.(check int) "second widening" 40 (current_skip st);
  run_cycle st 7L;
  run_cycle st 7L;
  Alcotest.(check int) "keeps doubling" 160 (current_skip st);
  for _ = 1 to 10 do run_cycle st 7L done;
  Alcotest.(check int) "capped at max_skip" 1_000 (current_skip st)

let test_backoff_resets_on_noisy_burst () =
  let open Sampler.Testing in
  let st = make_state backoff_config in
  for _ = 1 to 6 do run_cycle st 7L done;
  Alcotest.(check bool) "converged on constant stream" true (is_converged st);
  Alcotest.(check int) "gap widened well past initial" 320 (current_skip st);
  (* a burst of a different value moves Inv-Top past epsilon: the point
     must reopen at the initial rate, not stay backed off *)
  run_cycle st 9L;
  Alcotest.(check bool) "no longer converged" false (is_converged st);
  Alcotest.(check int) "skip reset to initial" 10 (current_skip st)

let test_degrade_widens_skip () =
  Fun.protect ~finally:Budget.Testing.reset @@ fun () ->
  let open Sampler.Testing in
  let st = make_state backoff_config in
  Budget.Testing.set_level 1;
  (* the ladder folds in at the burst boundary: one level doubles the
     inter-burst gap before any convergence widening applies *)
  run_cycle st 7L;
  Alcotest.(check int) "level 1 doubles the gap" 20 (current_skip st);
  (* an already-applied level folds in exactly once: the next quiet burst
     widens by the convergence backoff (x2) alone, not by degrade again *)
  run_cycle st 7L;
  Alcotest.(check int) "applied level does not re-widen" 40 (current_skip st);
  (* a saturated ladder on a fresh point clamps at max_skip *)
  Budget.Testing.set_level Budget.max_degrade_level;
  let st = make_state { backoff_config with Sampler.max_skip = 50 } in
  run_cycle st 7L;
  Alcotest.(check int) "widening clamps at max_skip" 50 (current_skip st)

let test_invariance_error_no_shared_points () =
  (* disjoint selections share no live point: the error is 0. by
     definition — and in particular a number, never NaN *)
  let prog = stationary_program 1_000 in
  let sampled = Sampler.run ~selection:`Loads prog in
  let full = Profile.run ~selection:`Alu prog in
  let e = Sampler.invariance_error sampled full in
  Alcotest.(check bool) "not NaN" false (Float.is_nan e);
  Alcotest.(check (float 1e-9)) "zero by definition" 0. e

let test_merge_identity_and_sum () =
  let prog = stationary_program 5_000 in
  let r () = Sampler.run ~selection:`Loads prog in
  let one = r () in
  let same = Sampler.merge [ one ] in
  Alcotest.(check int) "merge [r] keeps totals" one.Sampler.total_events
    same.Sampler.total_events;
  let m = Sampler.merge [ r (); r () ] in
  Alcotest.(check int) "events sum" (2 * one.Sampler.total_events)
    m.Sampler.total_events;
  Alcotest.(check int) "profiled sum" (2 * one.Sampler.profiled_events)
    m.Sampler.profiled_events;
  let p = m.Sampler.points.(0) and q = one.Sampler.points.(0) in
  Alcotest.(check int) "point events sum" (2 * q.Sampler.s_events)
    p.Sampler.s_events;
  Alcotest.(check bool) "convergence is the conjunction" true
    (Bool.equal p.Sampler.s_converged q.Sampler.s_converged)

(* ---- the machine gate against the in-hook countdown --------------- *)

(* The reference model: the sampler as it ran before the machine withheld
   its gaps — a plain hook that sees every execution, counts it, and
   counts down the gap the burst machinery returned at each burst end. *)
let reference_attach machine config pcs =
  List.map
    (fun pc ->
      let st = Sampler.Testing.make_state config in
      let events = ref 0 and to_skip = ref 0 in
      Machine.add_hook machine pc (fun v _ ->
          incr events;
          if !to_skip > 0 then decr to_skip
          else to_skip := Sampler.Testing.observe st v);
      (pc, st, events))
    pcs

let reference_points refs =
  List.map
    (fun (pc, st, events) ->
      ( pc,
        Sampler.Testing.metrics st,
        !events,
        Sampler.Testing.profiled st,
        Sampler.Testing.is_converged st ))
    refs

let sampled_points (s : Sampler.t) =
  Array.to_list
    (Array.map
       (fun (p : Sampler.point) ->
         (p.s_pc, p.s_metrics, p.s_events, p.s_profiled, p.s_converged))
       s.points)

(* Generated loop programs: [iters] iterations of a body that loads from
   a small table, folds immediates into the loaded value, or mixes in a
   flag that flips at iteration [k] — points whose values repeat, drift
   or change phase, each executed up to a few thousand times. Divisors
   are non-zero immediates, so no run traps. *)
type body_op = Load of int | Fold of Isa.binop * int64 | Flip of int

let build_loop (iters, table, ops) =
  let b = Asm.create () in
  let base = Asm.data b table in
  Asm.proc b "main" (fun b ->
      Asm.ldi b t0 0L;
      Asm.ldi b t1 base;
      Asm.label b "loop";
      Asm.cmplti b ~dst:t2 t0 (Int64.of_int iters);
      Asm.br b Eq t2 "done";
      List.iter
        (function
          | Load mask ->
            Asm.andi b ~dst:t3 t0 (Int64.of_int mask);
            Asm.add b ~dst:t3 t1 t3;
            Asm.ld b ~dst:t5 ~base:t3 ~off:0
          | Fold (op, k) -> Asm.bin b op ~dst:t5 t5 (Isa.Imm k)
          | Flip k ->
            Asm.cmplti b ~dst:t4 t0 (Int64.of_int k);
            Asm.add b ~dst:t5 t5 t4)
        ops;
      Asm.addi b ~dst:t0 t0 1L;
      Asm.jmp b "loop";
      Asm.label b "done";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let gen_loop =
  QCheck.Gen.(
    let op =
      frequency
        [ (3, map (fun m -> Load m) (oneofl [ 0; 1; 3; 7; 15 ]));
          ( 3,
            map2
              (fun op k -> Fold (op, Int64.of_int k))
              (oneofl
                 Isa.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Srl; Sra; Cmpeq; Cmplt ])
              (int_range 1 5) );
          (1, map (fun k -> Flip k) (int_range 0 3000)) ]
    in
    triple (int_range 1 3000)
      (array_size (return 16) (map Int64.of_int (int_range (-3) 3)))
      (list_size (int_range 1 6) op))

let gen_config =
  QCheck.Gen.(
    let* burst = int_range 1 64 in
    let* initial_skip = int_range 0 500 in
    let* backoff = float_range 1. 8. in
    let* max_skip = int_range 0 5000 in
    let* epsilon = float_range 0. 0.2 in
    let* consecutive = int_range 1 4 in
    let* criterion = oneofl [ Sampler.Inv_delta; Sampler.Top_stability ] in
    return
      { Sampler.burst; initial_skip; epsilon; consecutive; backoff; max_skip;
        criterion })

let print_case ((iters, _, ops), (c : Sampler.config), fused) =
  Printf.sprintf
    "iters %d, %d ops, burst %d, skip %d, backoff %g, max_skip %d, epsilon %g, \
     consecutive %d, %s, %s"
    iters (List.length ops) c.burst c.initial_skip c.backoff c.max_skip
    c.epsilon c.consecutive
    (match c.criterion with Sampler.Inv_delta -> "inv-delta" | Top_stability -> "top")
    (if fused then "fused with Profile" else "solo")

(* Solo, or fused with a full profile attached first at every pc the
   sampler gates: the gated sampler must report exactly what the
   countdown reference reports, and the full profile exactly what it
   reports alone. *)
let prop_gate_matches_countdown =
  QCheck.Test.make ~name:"machine-gated sampler == in-hook countdown" ~count:150
    (QCheck.make ~print:print_case
       QCheck.Gen.(triple gen_loop gen_config bool))
    (fun (spec, config, fused) ->
      let prog = build_loop spec in
      let pcs = Atom.select prog `All in
      let reference =
        let m = Machine.create prog in
        let refs = reference_attach m config pcs in
        ignore (Machine.run m);
        reference_points refs
      in
      let m = Machine.create prog in
      let full = if fused then Some (Profile.attach m `All) else None in
      let live = Sampler.attach ~config m `All in
      ignore (Machine.run m);
      let sampled = Sampler.collect live in
      sampled_points sampled = reference
      && sampled.Sampler.total_events
         = List.fold_left (fun a (_, _, e, _, _) -> a + e) 0 reference
      &&
      match full with
      | None -> true
      | Some live ->
        let got = Profile.collect live and solo = Profile.run ~selection:`All prog in
        got.Profile.points = solo.Profile.points
        && got.Profile.profiled_events = solo.Profile.profiled_events)

let suite =
  [ Alcotest.test_case "no skip equals full" `Quick test_no_skip_equals_full;
    Alcotest.test_case "no shared live points: error is 0, not NaN" `Quick
      test_invariance_error_no_shared_points;
    Alcotest.test_case "merge identity and sums" `Quick
      test_merge_identity_and_sum;
    Alcotest.test_case "skipping reduces overhead" `Quick
      test_skipping_reduces_overhead;
    Alcotest.test_case "converges on stationary stream" `Quick
      test_convergence_on_stationary_stream;
    Alcotest.test_case "event accounting" `Quick test_events_accounting;
    Alcotest.test_case "aggressive backoff cheaper" `Quick
      test_aggressive_backoff_cheaper;
    Alcotest.test_case "invalid configs" `Quick test_invalid_configs;
    Alcotest.test_case "top-stability criterion" `Quick
      test_top_stability_criterion;
    Alcotest.test_case "phase change handled" `Quick
      test_phase_change_reopens_sampling;
    Alcotest.test_case "back-off keeps widening while quiet" `Quick
      test_backoff_keeps_widening;
    Alcotest.test_case "back-off resets on a noisy burst" `Quick
      test_backoff_resets_on_noisy_burst;
    Alcotest.test_case "degradation widens the gap" `Quick
      test_degrade_widens_skip;
    QCheck_alcotest.to_alcotest prop_gate_matches_countdown ]
