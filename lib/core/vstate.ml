type config = {
  tnv_capacity : int;
  tnv_policy : Tnv.policy;
  clear_interval : int;
  distinct_cap : int;
}

let default_config =
  { tnv_capacity = 8; tnv_policy = Tnv.Lfu_clear; clear_interval = 2000;
    distinct_cap = 1024 }

(* Values are kept as raw 64-bit words in [Bytes] buffers (word [i] at byte
   [8 * i]): recording a new value boxes nothing and runs no write
   barrier. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Growable open-addressing int64 set for the distinct-value count.
   [Hashtbl] costs a [caml_hash] C call per probe, which showed up as one
   of the larger per-event costs for high-entropy points; this probes with
   the same multiplicative hash as the TNV index. [present] marks occupied
   cells so 0L is an ordinary member. Load is kept at or under 1/2. *)
module Distinct = struct
  type t = {
    mutable values : Bytes.t;
    mutable present : Bytes.t;
    mutable mask : int;
    mutable count : int;
  }

  let initial_size = 16

  let create () =
    { values = Bytes.make (8 * initial_size) '\000';
      present = Bytes.make initial_size '\000';
      mask = initial_size - 1;
      count = 0 }

  let[@inline] hash t v =
    Int64.to_int (Int64.shift_right_logical (Int64.mul v 0x9E3779B97F4A7C15L) 32)
    land t.mask

  let[@inline] value t i = get64u t.values (8 * i)
  let[@inline] set_value t i v = set64u t.values (8 * i) v

  (* Cell holding [v], or the empty cell where it would go. *)
  let rec probe t (v : int64) i =
    if Bytes.unsafe_get t.present i = '\000' || value t i = v then i
    else probe t v ((i + 1) land t.mask)

  let length t = t.count

  let grow t =
    let old_values = t.values and old_present = t.present in
    let size = 2 * (t.mask + 1) in
    t.values <- Bytes.make (8 * size) '\000';
    t.present <- Bytes.make size '\000';
    t.mask <- size - 1;
    for i = 0 to Bytes.length old_present - 1 do
      if Bytes.get old_present i <> '\000' then begin
        let v = get64u old_values (8 * i) in
        let j = probe t v (hash t v) in
        set_value t j v;
        Bytes.set t.present j '\001'
      end
    done

  (* [true] if [v] was freshly inserted, [false] if already present. *)
  let add t v =
    let i = probe t v (hash t v) in
    if Bytes.unsafe_get t.present i <> '\000' then false
    else begin
      set_value t i v;
      Bytes.set t.present i '\001';
      t.count <- t.count + 1;
      if 2 * t.count > t.mask then grow t;
      true
    end

  let mem t v =
    Bytes.unsafe_get t.present (probe t v (hash t v)) <> '\000'

  let iter t f =
    for i = 0 to t.mask do
      if Bytes.get t.present i <> '\000' then f (value t i)
    done

  let reset t =
    if t.mask + 1 > initial_size then begin
      t.values <- Bytes.make (8 * initial_size) '\000';
      t.present <- Bytes.make initial_size '\000';
      t.mask <- initial_size - 1
    end
    else Bytes.fill t.present 0 (t.mask + 1) '\000';
    t.count <- 0
end

type t = {
  tnv : Tnv.t;
  deltas : Tnv.t; (* TNV over value transitions: the stride profile *)
  distinct : Distinct.t;
  distinct_cap : int;
  mutable saturated : bool;
  last : Bytes.t; (* one word: the previous value, when [has_last] *)
  mutable has_last : bool;
  mutable lvp_hits : int;
  mutable zero_hits : int;
}

let create ?(config = default_config) () =
  { tnv =
      Tnv.create ~policy:config.tnv_policy ~clear_interval:config.clear_interval
        ~capacity:config.tnv_capacity ();
    deltas =
      Tnv.create ~policy:config.tnv_policy ~clear_interval:config.clear_interval
        ~capacity:config.tnv_capacity ();
    distinct = Distinct.create ();
    distinct_cap = config.distinct_cap;
    saturated = false;
    last = Bytes.make 8 '\000';
    has_last = false;
    lvp_hits = 0;
    zero_hits = 0 }

let track_distinct t v =
  if Distinct.length t.distinct < t.distinct_cap then
    ignore (Distinct.add t.distinct v)
  else if not (Distinct.mem t.distinct v) then t.saturated <- true

let observe t (v : int64) =
  let hit = Tnv.add_mem t.tnv v in
  if t.has_last then begin
    let last = get64u t.last 0 in
    let repeat = v = last in
    if repeat then begin
      t.lvp_hits <- t.lvp_hits + 1;
      Tnv.add t.deltas 0L
    end
    else begin
      Tnv.add t.deltas (Int64.sub v last);
      set64u t.last 0 v
    end;
    if Int64.equal v 0L then t.zero_hits <- t.zero_hits + 1;
    (* a value already resident in the TNV table (or equal to the previous
       one) went through [track_distinct] when it first appeared, and once
       the distinct set is saturated [track_distinct] is a no-op — either
       way the hit path skips the hashtable probe, the dominant cost of the
       old per-event bookkeeping *)
    if not (repeat || hit || t.saturated) then track_distinct t v
  end
  else begin
    set64u t.last 0 v;
    t.has_last <- true;
    if Int64.equal v 0L then t.zero_hits <- t.zero_hits + 1;
    track_distinct t v
  end

let total t = Tnv.total t.tnv

let tnv_clears t = Tnv.clears t.tnv + Tnv.clears t.deltas

let tnv_replacements t = Tnv.replacements t.tnv + Tnv.replacements t.deltas

let inv_top t = Tnv.inv_top t.tnv

let top_value t = Option.map fst (Tnv.top t.tnv)

let metrics t =
  let n = total t in
  if n = 0 then Metrics.empty
  else
    let fn = float_of_int n in
    { Metrics.total = n;
      lvp = float_of_int t.lvp_hits /. fn;
      inv_top = Tnv.inv_top t.tnv;
      inv_all = Tnv.inv_all t.tnv;
      zero = float_of_int t.zero_hits /. fn;
      distinct = Distinct.length t.distinct;
      distinct_saturated = t.saturated;
      top_values = Tnv.entries t.tnv;
      stride_top = Tnv.inv_top t.deltas;
      top_stride = Option.map fst (Tnv.top t.deltas) }

(* Merge two live states as if [b]'s event stream followed [a]'s.

   Exact: TNV value and stride tables (count-weighted union, no
   truncation), the distinct-value set (true set union), zero hits, and
   totals. Approximate only at the single seam between the two streams:
   the serial run would compare [b]'s first value against [a]'s last for
   one potential LVP hit and one stride observation, which the merge
   cannot reconstruct — so [lvp_hits] and the stride table may each be
   short by at most 1 per merge. *)
let merge a b =
  let distinct = Distinct.create () in
  Distinct.iter a.distinct (fun v -> ignore (Distinct.add distinct v));
  Distinct.iter b.distinct (fun v -> ignore (Distinct.add distinct v));
  let distinct_cap = max a.distinct_cap b.distinct_cap in
  { tnv = Tnv.merge a.tnv b.tnv;
    deltas = Tnv.merge a.deltas b.deltas;
    distinct;
    distinct_cap;
    saturated =
      a.saturated || b.saturated || Distinct.length distinct > distinct_cap;
    last = Bytes.copy (if b.has_last then b.last else a.last);
    has_last = a.has_last || b.has_last;
    lvp_hits = a.lvp_hits + b.lvp_hits;
    zero_hits = a.zero_hits + b.zero_hits }

let reset t =
  Tnv.reset t.tnv;
  Tnv.reset t.deltas;
  Distinct.reset t.distinct;
  t.saturated <- false;
  set64u t.last 0 0L;
  t.has_last <- false;
  t.lvp_hits <- 0;
  t.zero_hits <- 0
