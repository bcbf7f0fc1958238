type policy = Lfu_clear | Lfu | Lru

(* Slot values are raw 64-bit words in a [Bytes] buffer (word [s] at byte
   [8 * s]): storing a new value boxes nothing and runs no write barrier. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The table proper is the parallel [values]/[counts]/[stamps] arrays, as
   in the paper. The [index] array is a small open-addressing (linear
   probing) value->slot map over the occupied slots, sized to a power of
   two at least 4x the capacity so probe chains stay short; cell [0] means
   empty, [s + 1] means slot [s]. It exists purely so the per-event hit
   path is one hash and (almost always) one compare instead of an
   O(capacity) scan, and it is rebuilt wholesale on the rare mutations
   (replacement, periodic clear, reset) — capacity is tiny, so a rebuild
   is a few dozen cache-resident writes. *)
type t = {
  pol : policy;
  cap : int;
  interval : int;
  values : Bytes.t;
  counts : int array; (* count 0 = empty slot *)
  stamps : int array; (* last-touch tick, for LRU *)
  index : int array;
  mask : int; (* Array.length index - 1; the length is a power of two *)
  kept : bool array; (* scratch for periodic_clear, reused across clears *)
  mutable last_slot : int; (* slot of the last added value; -1 = unknown *)
  mutable occupied : int;
  mutable total : int; (* doubles as the recency tick for [stamps] *)
  mutable since_clear : int;
  mutable clears : int;
  mutable replacements : int;
  (* Degradation: under memory pressure the table keeps its allocated
     arrays but caps occupancy at [live_cap], halved per degradation
     level at the next periodic clear. [degrade_applied] is the Budget
     level already folded in, so the (cold) clear path applies each new
     level exactly once. *)
  mutable live_cap : int;
  mutable degrade_applied : int;
}

let index_size capacity =
  let rec grow n = if n >= 4 * capacity then n else grow (2 * n) in
  grow 16

let create ?(policy = Lfu_clear) ?(clear_interval = 2000) ~capacity () =
  if capacity <= 0 then invalid_arg "Tnv.create: capacity must be positive";
  if clear_interval <= 0 then invalid_arg "Tnv.create: clear_interval must be positive";
  let isize = index_size capacity in
  { pol = policy; cap = capacity; interval = clear_interval;
    values = Bytes.make (8 * capacity) '\000';
    counts = Array.make capacity 0;
    stamps = Array.make capacity 0;
    index = Array.make isize 0;
    mask = isize - 1;
    kept = Array.make capacity false;
    last_slot = -1;
    occupied = 0; total = 0; since_clear = 0;
    clears = 0; replacements = 0;
    live_cap = capacity; degrade_applied = 0 }

let policy t = t.pol
let capacity t = t.cap
let clear_interval t = t.interval
let clears t = t.clears
let replacements t = t.replacements

(* Fibonacci (multiplicative) hashing; the constant is 2^64 / phi. *)
let[@inline] hash_slot t v =
  Int64.to_int (Int64.shift_right_logical (Int64.mul v 0x9E3779B97F4A7C15L) 32)
  land t.mask

let[@inline] value t s = get64u t.values (8 * s)
let[@inline] set_value t s v = set64u t.values (8 * s) v

(* First index cell, probing from [i], that either holds [v]'s slot or is
   empty (the insertion point on a miss). Terminates because the index is
   never more than [cap <= mask/4 + 1] full. *)
let rec probe_cell t (v : int64) i =
  let e = Array.unsafe_get t.index i in
  if e = 0 || value t (e - 1) = v then i
  else probe_cell t v ((i + 1) land t.mask)

let index_insert t s =
  let v = value t s in
  let cell = probe_cell t v (hash_slot t v) in
  t.index.(cell) <- s + 1

let rebuild_index t =
  Array.fill t.index 0 (Array.length t.index) 0;
  for s = 0 to t.cap - 1 do
    if t.counts.(s) > 0 then index_insert t s
  done

(* Number of top entries immune to the periodic clearing. *)
let steady t = t.live_cap / 2

let live_capacity t = t.live_cap

let m_degrade_cap = Obs.Metrics.counter "degrade.tnv_capacity"

(* Fold any new Budget degradation level in: halve the live capacity per
   level (saturating at 1). Called from the periodic clear only — the
   hot add path never reads the level. *)
let apply_degrade t =
  let lvl = Budget.degrade_level () in
  if lvl > t.degrade_applied then begin
    t.degrade_applied <- lvl;
    let target = max 1 (t.cap asr lvl) in
    if target < t.live_cap then begin
      t.live_cap <- target;
      Obs.Metrics.incr m_degrade_cap;
      Obs.Trace.instant ~cat:"tnv" "degrade.tnv_capacity"
    end
  end

(* Clear every slot that is not among the [steady] highest-counted ones —
   in place: [kept] is preallocated scratch, and the top-k selection is
   O(cap * k) scans over the (cache-resident) counts, so the clear
   allocates nothing. Ties on count keep the lowest-numbered slot. *)
let m_clears = Obs.Metrics.counter "tnv.clears"
let m_evictions = Obs.Metrics.counter "tnv.evictions"

let periodic_clear t =
  apply_degrade t;
  t.clears <- t.clears + 1;
  Obs.Metrics.incr m_clears;
  Obs.Trace.instant ~cat:"tnv" "tnv.clear";
  t.last_slot <- -1;
  let k = steady t in
  Array.fill t.kept 0 t.cap false;
  for _ = 1 to k do
    let best = ref 0 in
    while t.kept.(!best) do incr best done;
    for i = !best + 1 to t.cap - 1 do
      if (not t.kept.(i)) && t.counts.(i) > t.counts.(!best) then best := i
    done;
    t.kept.(!best) <- true
  done;
  for i = 0 to t.cap - 1 do
    if (not t.kept.(i)) && t.counts.(i) > 0 then begin
      t.counts.(i) <- 0;
      set_value t i 0L;
      t.stamps.(i) <- 0;
      t.occupied <- t.occupied - 1
    end
  done;
  rebuild_index t

let find_empty t =
  let rec loop i =
    if i >= t.cap then -1 else if t.counts.(i) = 0 then i else loop (i + 1)
  in
  loop 0

let index_of_min t key =
  let best = ref 0 in
  for i = 1 to t.cap - 1 do
    if key i < key !best then best := i
  done;
  !best

let replace t victim v =
  t.replacements <- t.replacements + 1;
  Obs.Metrics.incr m_evictions;
  set_value t victim v;
  t.counts.(victim) <- 1;
  t.stamps.(victim) <- t.total;
  t.last_slot <- victim;
  rebuild_index t

(* The full-table miss under the eviction policies. Kept out of [add_mem]
   (in particular, no anonymous closures there) so the non-flambda inliner
   can inline the hot path into callers. *)
let evict t v =
  match t.pol with
  | Lfu_clear -> () (* dropped; the periodic clear will make room *)
  | Lfu -> replace t (index_of_min t (fun i -> t.counts.(i))) v
  | Lru -> replace t (index_of_min t (fun i -> t.stamps.(i))) v

(* [stamps] only drives {!Lru} victim selection, so the hit paths below
   touch that array (an extra cache line per event) only under [Lru]. *)

let[@inline] add_mem t (v : int64) =
  t.total <- t.total + 1;
  let hit =
    let ls = t.last_slot in
    if ls >= 0 && value t ls = v then begin
      (* the dominant case value profiling banks on: the value repeats, and
         the slot is already known — no hash, no probe *)
      Array.unsafe_set t.counts ls (Array.unsafe_get t.counts ls + 1);
      (match t.pol with
       | Lru -> Array.unsafe_set t.stamps ls t.total
       | Lfu_clear | Lfu -> ());
      true
    end
    else begin
      let cell = probe_cell t v (hash_slot t v) in
      let e = Array.unsafe_get t.index cell in
      if e <> 0 then begin
        (* index hit: one hash, one (usually first-probe) compare *)
        let s = e - 1 in
        Array.unsafe_set t.counts s (Array.unsafe_get t.counts s + 1);
        (match t.pol with
         | Lru -> Array.unsafe_set t.stamps s t.total
         | Lfu_clear | Lfu -> ());
        t.last_slot <- s;
        true
      end
      else if t.occupied < t.live_cap then begin
        let empty = find_empty t in
        set_value t empty v;
        t.counts.(empty) <- 1;
        t.stamps.(empty) <- t.total;
        t.occupied <- t.occupied + 1;
        t.index.(cell) <- empty + 1;
        t.last_slot <- empty;
        false
      end
      else begin
        evict t v;
        false
      end
    end
  in
  (match t.pol with
   | Lfu_clear ->
     t.since_clear <- t.since_clear + 1;
     if t.since_clear >= t.interval then begin
       t.since_clear <- 0;
       periodic_clear t
     end
   | Lfu | Lru -> ());
  hit

let[@inline] add t v = ignore (add_mem t v)

let total t = t.total

let covered t = Array.fold_left ( + ) 0 t.counts

let entries t =
  let occupied = ref [] in
  for i = t.cap - 1 downto 0 do
    if t.counts.(i) > 0 then occupied := (value t i, t.counts.(i)) :: !occupied
  done;
  let arr = Array.of_list !occupied in
  (* (count desc, value asc): Array.sort is unstable, so a count-only
     comparison would surface equal-count entries in slot-dependent order;
     the value tie-break makes the order a pure function of the multiset
     of entries, which byte-identical merged output depends on. *)
  Array.sort
    (fun (va, ca) (vb, cb) ->
      if ca <> cb then compare cb ca else Int64.compare va vb)
    arr;
  arr

let top t =
  let e = entries t in
  if Array.length e = 0 then None else Some e.(0)

let inv_top t =
  if t.total = 0 then 0.
  else
    match top t with
    | None -> 0.
    | Some (_, c) -> float_of_int c /. float_of_int t.total

let inv_all t =
  if t.total = 0 then 0. else float_of_int (covered t) /. float_of_int t.total

(* ---- Merging ------------------------------------------------------- *)

let entry_order (va, ca) (vb, cb) =
  if ca <> cb then compare cb ca else Int64.compare va vb

let merge_entries a b =
  let tbl : (int64, int ref) Hashtbl.t =
    Hashtbl.create (Array.length a + Array.length b)
  in
  let feed (v, c) =
    match Hashtbl.find_opt tbl v with
    | Some r -> r := !r + c
    | None -> Hashtbl.add tbl v (ref c)
  in
  Array.iter feed a;
  Array.iter feed b;
  let out = Array.make (Hashtbl.length tbl) (0L, 0) in
  let i = ref 0 in
  Hashtbl.iter (fun v r -> out.(!i) <- (v, !r); incr i) tbl;
  Array.sort entry_order out;
  out

let m_merges = Obs.Metrics.counter "tnv.merges"

let merge a b =
  Obs.Metrics.incr m_merges;
  let union = merge_entries (entries a) (entries b) in
  (* The merged table holds the full union: truncating to either input's
     capacity makes merge non-associative (which side of a tie survives
     would depend on grouping), so capacity grows to fit. *)
  let cap = max (max a.cap b.cap) (max 1 (Array.length union)) in
  let t = create ~policy:a.pol ~clear_interval:a.interval ~capacity:cap () in
  Array.iteri
    (fun s (v, c) ->
      set_value t s v;
      t.counts.(s) <- c)
    union;
  t.occupied <- Array.length union;
  t.total <- a.total + b.total;
  t.clears <- a.clears + b.clears;
  t.replacements <- a.replacements + b.replacements;
  rebuild_index t;
  t

let reset t =
  Bytes.fill t.values 0 (8 * t.cap) '\000';
  Array.fill t.counts 0 t.cap 0;
  Array.fill t.stamps 0 t.cap 0;
  Array.fill t.index 0 (Array.length t.index) 0;
  t.last_slot <- -1;
  t.occupied <- 0;
  t.total <- 0;
  t.since_clear <- 0;
  t.clears <- 0;
  t.replacements <- 0;
  t.live_cap <- t.cap;
  t.degrade_applied <- 0
