type 'v entry = Running | Done of 'v

type ('k, 'v) t = {
  mu : Mutex.t;
  cv : Condition.t;
  tbl : ('k, 'v entry) Hashtbl.t;
  mutable computations : int;
}

let create () =
  { mu = Mutex.create ();
    cv = Condition.create ();
    tbl = Hashtbl.create 32;
    computations = 0 }

let find_or_compute t k f =
  Mutex.lock t.mu;
  let rec get () =
    match Hashtbl.find_opt t.tbl k with
    | Some (Done v) ->
      Mutex.unlock t.mu;
      v
    | Some Running ->
      Condition.wait t.cv t.mu;
      get ()
    | None ->
      Hashtbl.replace t.tbl k Running;
      t.computations <- t.computations + 1;
      Mutex.unlock t.mu;
      (match f () with
       | v ->
         Mutex.lock t.mu;
         Hashtbl.replace t.tbl k (Done v);
         Condition.broadcast t.cv;
         Mutex.unlock t.mu;
         v
       | exception e ->
         (* release the key so a waiter (or a later call) can retry;
            failures are not cached *)
         Mutex.lock t.mu;
         Hashtbl.remove t.tbl k;
         Condition.broadcast t.cv;
         Mutex.unlock t.mu;
         raise e)
  in
  get ()

let computations t =
  Mutex.lock t.mu;
  let n = t.computations in
  Mutex.unlock t.mu;
  n

let clear t =
  Mutex.lock t.mu;
  Hashtbl.reset t.tbl;
  t.computations <- 0;
  Condition.broadcast t.cv;
  Mutex.unlock t.mu
