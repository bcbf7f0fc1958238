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

(* Cross-invocation profile reuse: with a store attached, a memo miss
   consults the store before executing the machine, and a computed
   profile is committed for the next invocation. Memo first, store
   second: in-process repeats never pay the decode. *)

let store_ref : Store.t option Atomic.t = Atomic.make None

let set_store s = Atomic.set store_ref s

let store () = Atomic.get store_ref

let profile_key (w : Workload.t) input ~shards =
  Store.Fingerprint.(
    key
      (make ~shards
         ~config:
           (profile_config Vstate.default_config ~selection:"all")
         ~profiler:"full" ~workload:w.wname
         ~input:(Workload.string_of_input input) ()))

let stored_profile (w : Workload.t) input ~shards compute =
  match store () with
  | None -> compute ()
  | Some s ->
    let key = profile_key w input ~shards in
    (match Store.get_profile s ~program:(w.wbuild input) ~key with
     | Some p -> p
     | None ->
       let p = compute () in
       Store.put_profile s ~key p;
       p)

(* Full value profiles are memoized by shard count, so flipping --shards
   mid-process never aliases a serial result and vice versa, and a
   store-served profile is memoized even though no machine ran for it.
   Sharding only accelerates the value profile, the one consumer whose
   result merges: the serial profile, the plain machine state and the
   procedure profile all come from the fused single execution. *)
let profiles : (string * Workload.input * int, Profile.t) Memo_cache.t =
  Memo_cache.create ()

let sharded_profile ?jobs (w : Workload.t) input ~shards =
  let shards = max 1 shards in
  Memo_cache.find_or_compute profiles (w.wname, input, shards) (fun () ->
      stored_profile w input ~shards (fun () ->
          if shards = 1 then (entry w input).e_profile
          else Shard.profile ?jobs ~shards w input))

let shard_count = Atomic.make 1

let set_shards k = Atomic.set shard_count (max 1 k)

let shards () = Atomic.get shard_count

let full_profile w input =
  match (shards (), store ()) with
  | 1, None -> (entry w input).e_profile
  | k, _ -> sharded_profile w input ~shards:k

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
