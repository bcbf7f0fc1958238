(* The five workloads. Each is a closed loop with one client: the next
   request is issued when the previous one returns. A workload is built
   from the run's seed, which draws the request order (and for store_rw
   the keys operated on); the programs themselves only see their own
   generated inputs. Every pass issues the same multiset of request kinds,
   so runs on different seeds do the same work. *)

type ctx = {
  seed : int;
  golden : Golden.table;
  vprof : string;  (** the vprof binary cli_suite runs *)
  scratch : string;  (** directory for stores this run creates *)
}

(* A request is the timed call; it returns the output check, which runs
   off the clock. Requests of one [kind] do identical work. *)
type request = { kind : string; exec : unit -> unit -> bool }

type t = {
  setup : unit -> unit;
      (** one complete set-up, timed; run several times, the last one's
          state serves the requests *)
  pass : int -> request array;  (** the requests of the k-th pass *)
  finish : unit -> bool;  (** off-clock checks of the final state *)
  fresh_heap : bool;
      (** start every request from a collected heap: requests that each
          build megabytes of profile state are otherwise slowed by
          collecting the previous request's garbage, by an amount that
          depends on request order *)
}

let shuffled rng a =
  let a = Array.copy a in
  Rng.shuffle rng a;
  a

let kind_of (w : Workload.t) i = Printf.sprintf "%s/%s" w.wname (Workload.string_of_input i)

let programs () =
  Array.of_list (List.map (fun (w, i) -> (w, i, w.Workload.wbuild i)) Golden.pairs)

(* profile_full and profile_sampled: one request profiles one program;
   a pass visits all 24 (program, input) pairs in a seeded order, after a
   set-up that builds the programs and warms every one once. *)
let profiling ~golden_kind ~run ~digest ctx =
  let progs = ref [||] in
  let rng = Rng.create (Int64.of_int ctx.seed) in
  { setup =
      (fun () ->
        progs := programs ();
        Array.iter (fun (_, _, p) -> ignore (run p)) !progs);
    pass =
      (fun _ ->
        Array.map
          (fun (w, i, p) ->
            let k = Golden.key golden_kind w i in
            { kind = kind_of w i;
              exec =
                (fun () ->
                  let r = run p in
                  fun () -> Golden.matches ctx.golden k (digest r)) })
          (shuffled rng !progs));
    finish = (fun () -> true);
    fresh_heap = true }

let profile_full =
  profiling ~golden_kind:"profile"
    ~run:(fun p -> Profile.run ~selection:`All p)
    ~digest:Golden.profile_digest

let profile_sampled =
  profiling ~golden_kind:"sample"
    ~run:(fun p -> Sampler.run p)
    ~digest:Golden.sample_digest

(* grid_fused: the profile+sample+procs grid over the 12 programs x 2
   inputs (72 jobs) under the supervisor, one domain. One request is one
   (program, input)'s 3 jobs, which the driver fuses into one unit; a pass
   covers all 24 units in a seeded order. *)
type grid_result = P of Profile.t | S of Sampler.t | R of Procprof.t

let grid_jobs pairs =
  List.concat_map
    (fun (w, i) ->
      let tag k f r = (Golden.key k w i, f r) in
      [ Driver.job (module Profile.Profiler) ~finish:(tag "profile" (fun r -> P r)) w i;
        Driver.job (module Sampler.Profiler) ~finish:(tag "sample" (fun r -> S r)) w i;
        Driver.job (module Procprof.Profiler) ~config:(Golden.procs_config w)
          ~finish:(tag "procs" (fun r -> R r)) w i ])
    pairs

let grid_check golden (rep : _ Supervisor.report) expected () =
  rep.failed = 0
  && List.length (Supervisor.oks rep) = expected
  && List.for_all
       (fun (k, r) ->
         Golden.matches golden k
           (match r with
            | P p -> Golden.profile_digest p
            | S x -> Golden.sample_digest x
            | R p -> Golden.procs_digest p))
       (Supervisor.oks rep)

let grid_fused ctx =
  let rng = Rng.create (Int64.of_int ctx.seed) in
  let units = Array.of_list (List.map (fun (w, i) -> (w, i, grid_jobs [ (w, i) ])) Golden.pairs) in
  let run jobs = Supervisor.run_jobs ~jobs:1 jobs in
  { setup = (fun () -> Array.iter (fun (_, _, jobs) -> ignore (run jobs)) units);
    pass =
      (fun _ ->
        Array.map
          (fun (w, i, jobs) ->
            { kind = kind_of w i;
              exec =
                (fun () ->
                  let rep = run jobs in
                  grid_check ctx.golden rep (List.length jobs)) })
          (shuffled rng units));
    finish = (fun () -> true);
    fresh_heap = true }

(* store_rw: a directory store seeded with 256 fingerprint-keyed v3
   profiles — each (program, input) pair owns the keys k with
   k mod 24 = its index, holding its full profile. A pass is 240
   operations: per pair, 8 get_profile and 2 put_profile on keys of that
   pair drawn from the seed, in a seeded order. A put rewrites the bytes
   the key already holds, as recomputing a fingerprinted profile does;
   every get is checked against the profile put. *)
let store_keys = 256

let same_profile (a : Profile.t) (b : Profile.t) =
  a.instrumented = b.instrumented
  && a.profiled_events = b.profiled_events
  && a.dynamic_instructions = b.dynamic_instructions
  && a.points = b.points

let store_rw ctx =
  let dir = Filename.concat ctx.scratch "store_rw" in
  let rng = Rng.create (Int64.of_int ctx.seed) in
  let npairs = List.length Golden.pairs in
  let progs = ref [||] and profiles = ref [||] and store = ref None in
  let keys =
    Array.init store_keys (fun k ->
        let w, i = List.nth Golden.pairs (k mod npairs) in
        Store.Fingerprint.key
          (Store.Fingerprint.make ~profiler:"full" ~workload:w.Workload.wname
             ~input:(Workload.string_of_input i)
             ~config:(Printf.sprintf "variant-%d" (k / npairs))
             ()))
  in
  let the_store () = Option.get !store in
  let get k =
    let _, _, prog = !progs.(k mod npairs) in
    Store.get_profile (the_store ()) ~program:prog ~key:keys.(k)
  in
  let get_ok k r () =
    match r with Some p -> same_profile p !profiles.(k mod npairs) | None -> false
  in
  let op pair is_get =
    (* a key of this pair: pair + npairs * j < store_keys *)
    let k = pair + (npairs * Rng.int rng ((store_keys - 1 - pair) / npairs + 1)) in
    let w, i, _ = !progs.(pair) in
    if is_get then { kind = "get:" ^ kind_of w i; exec = (fun () -> get_ok k (get k)) }
    else
      { kind = "put:" ^ kind_of w i;
        exec =
          (fun () ->
            Store.put_profile (the_store ()) ~key:keys.(k) !profiles.(pair);
            fun () -> true) }
  in
  { setup =
      (fun () ->
        progs := programs ();
        profiles := Array.map (fun (_, _, p) -> Profile.run ~selection:`All p) !progs;
        Probe.rm_rf dir;
        let s = Store.open_dir ~reset:true dir in
        Array.iteri (fun k key -> Store.put_profile s ~key !profiles.(k mod npairs)) keys;
        store := Some s);
    pass =
      (fun _ ->
        shuffled rng
          (Array.init (npairs * 10) (fun j -> op (j / 10) (j mod 10 < 8))));
    finish =
      (fun () ->
        (* every key served after a reopen: what the loop wrote is what
           the directory holds *)
        store := Some (Store.open_dir dir);
        List.for_all (fun k -> get_ok k (get k) ()) (List.init store_keys Fun.id));
    fresh_heap = false }

(* cli_suite: the real binary. Set-up is a cold
   `vprof experiments -j 1 --store D` on an emptied D; each request is
   the same command warm, every experiment served from D. *)
let cli_warm_block = 50

let cli_suite ctx =
  let dir = Filename.concat ctx.scratch "cli_store" in
  let cli_ok (out, ok) () = ok && Golden.matches ctx.golden Golden.cli_key (Golden.hex out) in
  let cold_ok = ref true in
  { setup =
      (fun () ->
        Probe.rm_rf dir;
        let r = Probe.capture ctx.vprof (Golden.cli_args dir) in
        cold_ok := !cold_ok && cli_ok r ());
    pass =
      (fun _ ->
        Array.init cli_warm_block (fun _ ->
            { kind = "warm"; exec = (fun () -> cli_ok (Probe.capture ctx.vprof (Golden.cli_args dir))) }));
    finish = (fun () -> !cold_ok);
    fresh_heap = false }

let all =
  [ ("profile_full", profile_full); ("profile_sampled", profile_sampled);
    ("grid_fused", grid_fused); ("store_rw", store_rw); ("cli_suite", cli_suite) ]

let find name ctx =
  match List.assoc_opt name all with
  | Some make -> make ctx
  | None -> invalid_arg ("unknown workload " ^ name)
