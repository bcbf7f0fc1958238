type action = Raise | Kill

type firing =
  | Shots of { at : int; count : int }
  | Prob of float

exception Injected of string

type site_state = {
  s_site : string;
  s_action : action;
  s_firing : firing;
  (* Shots: counts down from [at]; the hits that move it through
     [1 .. 2-count] fire. Atomic: sites are hit from worker domains
     concurrently. Unused by [Prob] sites. *)
  s_countdown : int Atomic.t;
  s_hits : int Atomic.t;
  (* Prob sites draw from a per-site generator seeded from the campaign
     seed and the site name; the generator mutates, so draws serialize
     under [s_mu]. *)
  s_rng : Rng.t option;
  s_mu : Mutex.t;
}

(* The armed flag is the only thing hot paths read. The site list is
   written under [mu] and published by the subsequent [Atomic.set] of
   [armed_flag], so workers that observe [true] see the sites. *)
let armed_flag = Atomic.make false
let mu = Mutex.create ()
let sites : site_state list Atomic.t = Atomic.make []

let default_seed = 0x9e3779b97f4a7c15L
let seed_ref = ref default_seed
let set_seed s = seed_ref := s

let enabled () = Atomic.get armed_flag

let arm_firing ?(action = Raise) ~site firing =
  if site = "" then invalid_arg "Fault.arm: empty site name";
  (match firing with
   | Shots { at; count } ->
     if at < 1 || count < 1 then
       invalid_arg "Fault.arm: at and count must be >= 1"
   | Prob p ->
     if not (p > 0. && p <= 1.) then
       invalid_arg "Fault.arm: probability must be in (0, 1]");
  let rng =
    match firing with
    | Prob _ ->
      Some (Rng.create (Int64.add !seed_ref (Int64.of_int (Hashtbl.hash site))))
    | Shots _ -> None
  in
  let countdown =
    match firing with Shots { at; _ } -> at | Prob _ -> 0
  in
  Mutex.lock mu;
  let others =
    List.filter (fun s -> s.s_site <> site) (Atomic.get sites)
  in
  Atomic.set sites
    ({ s_site = site; s_action = action; s_firing = firing;
       s_countdown = Atomic.make countdown;
       s_hits = Atomic.make 0;
       s_rng = rng; s_mu = Mutex.create () }
     :: others);
  Atomic.set armed_flag true;
  Mutex.unlock mu

let arm ?action ?(count = 1) ~site ~at () =
  arm_firing ?action ~site (Shots { at = max at 1; count = max count 1 })

let arm_prob ?action ~site ~p () = arm_firing ?action ~site (Prob p)

let disarm () =
  Mutex.lock mu;
  Atomic.set sites [];
  Atomic.set armed_flag false;
  Mutex.unlock mu

let find site =
  List.find_opt (fun s -> s.s_site = site) (Atomic.get sites)

(* [fetch_and_add (-1)] identifies the [at]-th through [at+count-1]-th
   hits exactly once each, even under concurrent hits; later hits drive
   the counter further negative and never fire again. *)
let fired st =
  Atomic.incr st.s_hits;
  match st.s_firing with
  | Shots { count; _ } ->
    let r = Atomic.fetch_and_add st.s_countdown (-1) in
    r <= 1 && r > 1 - count
  | Prob p ->
    (match st.s_rng with
     | None -> false
     | Some rng ->
       Mutex.lock st.s_mu;
       let x = Rng.float rng in
       Mutex.unlock st.s_mu;
       x < p)

(* A firing [Kill] site dies the way kill -9 would: SIGKILL to self, so
   no exception handler, [at_exit] hook or [Fun.protect] finalizer gets
   to tidy up. The crash-survival harness depends on this being a real
   crash, not a polite unwind. *)
let kill_self () =
  (try Unix.kill (Unix.getpid ()) Sys.sigkill with _ -> ());
  (* unreachable: SIGKILL is delivered before [kill] returns to the
     calling thread — but never fall through into the caller *)
  Stdlib.exit 137

let point ~site =
  if Atomic.get armed_flag then
    match find site with
    | Some ({ s_action = Raise; _ } as st) ->
      if fired st then raise (Injected site)
    | Some ({ s_action = Kill; _ } as st) -> if fired st then kill_self ()
    | None -> ()

let hits ~site =
  match find site with
  | None -> 0
  | Some st -> Atomic.get st.s_hits

let env_var = "VPROF_FAULT"
let seed_env_var = "VPROF_FAULT_SEED"

let parse_entry entry =
  let bad () =
    invalid_arg
      (Printf.sprintf
         "Fault: malformed spec entry %S (want SITE@AT, SITE@AT#N, \
          SITE@~P, each optionally @kill)"
         entry)
  in
  let parse_firing f =
    let len = String.length f in
    if len = 0 then bad ()
    else if f.[0] = '~' then
      match float_of_string_opt (String.sub f 1 (len - 1)) with
      | Some p when p > 0. && p <= 1. -> Prob p
      | _ -> bad ()
    else
      match String.index_opt f '#' with
      | Some i ->
        let at = String.sub f 0 i in
        let n = String.sub f (i + 1) (len - i - 1) in
        (match (int_of_string_opt at, int_of_string_opt n) with
         | Some at, Some n when at >= 1 && n >= 1 ->
           Shots { at; count = n }
         | _ -> bad ())
      | None ->
        (match int_of_string_opt f with
         | Some at when at >= 1 -> Shots { at; count = 1 }
         | Some at -> Shots { at = max at 1; count = 1 }
         | None -> bad ())
  in
  match String.split_on_char '@' entry with
  | [ site; f ] when site <> "" -> (site, parse_firing f, Raise)
  | [ site; f; "kill" ] when site <> "" -> (site, parse_firing f, Kill)
  | _ -> bad ()

let arm_spec spec =
  let entries = String.split_on_char ',' spec |> List.map String.trim in
  List.iter
    (fun e ->
      if e = "" then
        invalid_arg
          (Printf.sprintf "Fault: empty entry in spec %S" spec)
      else
        let site, firing, action = parse_entry e in
        arm_firing ~action ~site firing)
    entries

let load_env () =
  (match Sys.getenv_opt seed_env_var with
   | None | Some "" -> ()
   | Some s ->
     (match Int64.of_string_opt s with
      | Some seed -> set_seed seed
      | None ->
        invalid_arg
          (Printf.sprintf "Fault: malformed %s %S (want an integer)"
             seed_env_var s)));
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some spec -> arm_spec spec
