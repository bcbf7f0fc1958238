let workloads = Workloads.all

(* Domain-safe once-per-key cache: when the parallel driver runs several
   experiments at once, the first to need a workload's data computes it
   and the rest block on the latch instead of duplicating the run.

   One entry serves all three consumers — the plain machine state, the
   full value profile, and the procedure profile — from a SINGLE machine
   execution: instrumentation is additive, so the full profiler and the
   procedure profiler attach to the same machine, and hooks never perturb
   architectural state (registers, memory, icount, exec counts), so the
   machine doubles as the "plain run". Before fusion the suite executed
   every workload/input up to three times.

   Both profilers attach inside one recording frame and are detached once
   their snapshots are collected: the memoized machine then holds no
   hooks, so the profilers' live per-point state (TNV tables, distinct
   sets) is garbage as soon as the entry is built, not for the life of
   the process. *)

type entry = {
  e_machine : Machine.t;
  e_profile : Profile.t;
  e_procprof : Procprof.t;
}

let cache : (string * Workload.input, entry) Memo_cache.t =
  Memo_cache.create ()

let entry (w : Workload.t) input =
  Memo_cache.find_or_compute cache (w.wname, input) (fun () ->
      let machine = Machine.create (w.wbuild input) in
      let config = { Procprof.default_config with arities = w.warities } in
      let (profile_live, proc_live), attachment =
        Machine.with_attachment machine (fun () ->
            let profile_live = Profile.attach machine `All in
            (profile_live, Procprof.attach ~config machine))
      in
      ignore (Machine.run machine);
      let e_profile = Profile.collect profile_live in
      let e_procprof = Procprof.collect proc_live in
      Machine.detach machine attachment;
      { e_machine = machine; e_profile; e_procprof })

(* Sharded full value profiles, memoized by shard count, so flipping
   --shards mid-process never aliases a serial result and vice versa.
   Sharding only accelerates the value profile, the one consumer whose
   result merges: the serial profile, the plain machine state and the
   procedure profile all come from the fused single execution. *)
let profiles : (string * Workload.input * int, Profile.t) Memo_cache.t =
  Memo_cache.create ()

(* The shard count and the domains the shards run on, set together so a
   reader never pairs one run's count with another's domains. *)
let sharding : (int * int option) Atomic.t = Atomic.make (1, None)

let set_shards ~jobs k = Atomic.set sharding (max 1 k, jobs)

let full_profile (w : Workload.t) input =
  match Atomic.get sharding with
  | 1, _ -> (entry w input).e_profile
  | shards, jobs ->
    Memo_cache.find_or_compute profiles (w.wname, input, shards) (fun () ->
        Shard.profile ?jobs ~shards w input)

let plain_run w input = (entry w input).e_machine

let proc_profile w input = (entry w input).e_procprof

(* Machine executions performed so far (tests assert fusion: one per
   workload/input however many accessors were hit). *)
let machine_runs () = Memo_cache.computations cache

let clear_cache () =
  Memo_cache.clear cache;
  Memo_cache.clear profiles

let load_points p = Profile.points_by_category p Isa.Load

let value_points p = Array.to_list p.Profile.points
