type limits = {
  deadline : float option;
  max_heap_words : int option;
  degrade : bool;
}

let no_limits = { deadline = None; max_heap_words = None; degrade = false }

exception Deadline_exceeded of float
exception Mem_pressure of int

type notice =
  | Degrade_step of int
  | Deadline_trip of float
  | Mem_trip of int

let notifier : (notice -> unit) ref = ref (fun _ -> ())
let set_notifier f = notifier := f

let max_degrade_level = 4

(* The armed flag is the only thing hot paths read. [current] is written
   under [mu] and published by the subsequent [Atomic.set] of
   [armed_flag], so pollers that observe [true] see the limits — the same
   discipline as [Fault]. *)
let armed_flag = Atomic.make false
let mu = Mutex.create ()
let current : (limits * float) option ref = ref None
let level = Atomic.make 0

type callback = {
  cb_id : int;
  cb_dom : int;
  cb_f : int -> unit;
  (* last level delivered to this callback; callbacks registered on other
     domains catch up lazily on their own polls *)
  mutable cb_applied : int;
}

let callbacks : callback list ref = ref []
let next_cb_id = Atomic.make 0

let armed () = Atomic.get armed_flag
let degrade_level () = Atomic.get level

let arm limits =
  Mutex.lock mu;
  if Atomic.get armed_flag then begin
    Mutex.unlock mu;
    invalid_arg "Budget.arm: already armed (governed sections do not nest)"
  end;
  current := Some (limits, Unix.gettimeofday ());
  Atomic.set level 0;
  Atomic.set armed_flag true;
  Mutex.unlock mu

let disarm () =
  Mutex.lock mu;
  Atomic.set armed_flag false;
  current := None;
  Atomic.set level 0;
  Mutex.unlock mu

let govern limits f =
  arm limits;
  Fun.protect ~finally:disarm f

let elapsed () =
  match !current with
  | Some (_, start) when Atomic.get armed_flag ->
    Unix.gettimeofday () -. start
  | _ -> 0.

let on_degrade f =
  let id = Atomic.fetch_and_add next_cb_id 1 in
  let cb =
    { cb_id = id;
      cb_dom = (Domain.self () :> int);
      cb_f = f;
      cb_applied = Atomic.get level }
  in
  Mutex.lock mu;
  callbacks := cb :: !callbacks;
  Mutex.unlock mu;
  id

let remove_on_degrade id =
  Mutex.lock mu;
  callbacks := List.filter (fun cb -> cb.cb_id <> id) !callbacks;
  Mutex.unlock mu

(* Deliver pending steps to callbacks registered by the calling domain.
   Invoked outside [mu]: the callbacks may do real work (detach machine
   hooks). Snapshot the lagging subset under the lock first. *)
let deliver_here () =
  let lvl = Atomic.get level in
  if lvl > 0 then begin
    let dom = (Domain.self () :> int) in
    Mutex.lock mu;
    let mine =
      List.filter
        (fun cb -> cb.cb_dom = dom && cb.cb_applied < lvl)
        !callbacks
    in
    Mutex.unlock mu;
    List.iter
      (fun cb ->
        cb.cb_applied <- lvl;
        cb.cb_f lvl)
      mine
  end

(* One degradation step: bump the level (saturating), tell the notifier,
   and push one major collection so shed precision can actually translate
   into freed words before the next poll. *)
let step_degrade () =
  let stepped =
    Mutex.lock mu;
    let l = Atomic.get level in
    let took = l < max_degrade_level in
    if took then Atomic.set level (l + 1);
    Mutex.unlock mu;
    took
  in
  if stepped then begin
    !notifier (Degrade_step (Atomic.get level));
    Gc.full_major ()
  end

let check (limits, start) =
  (match limits.deadline with
   | Some d when Unix.gettimeofday () -. start > d ->
     !notifier (Deadline_trip d);
     raise (Deadline_exceeded d)
   | _ -> ());
  (match limits.max_heap_words with
   | Some m ->
     let hw = (Gc.quick_stat ()).Gc.heap_words in
     if hw > m then
       if limits.degrade then step_degrade ()
       else begin
         !notifier (Mem_trip hw);
         raise (Mem_pressure hw)
       end
   | None -> ());
  deliver_here ()

let poll () =
  if Atomic.get armed_flag then
    match !current with Some c -> check c | None -> ()

module Testing = struct
  let set_level l = Atomic.set level (max 0 (min l max_degrade_level))

  let force_step () =
    let l = Atomic.get level in
    if l < max_degrade_level then begin
      Atomic.set level (l + 1);
      !notifier (Degrade_step (l + 1))
    end;
    deliver_here ()

  let reset () =
    disarm ();
    Mutex.lock mu;
    callbacks := [];
    Mutex.unlock mu
end
