let page_shift = 12
let page_words = 1 lsl page_shift (* 4096 *)
let page_mask = page_words - 1
let page_bytes = page_words * 8

(* Pages hold raw 64-bit words: a load or store moves a machine word, never
   a boxed [int64], so a store runs no write barrier and a load allocates
   nothing once inlined into its caller. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A direct-mapped cache of recently touched pages sits in front of the
   hash table, so an access pays one compare instead of a [Hashtbl] probe
   even when a loop alternates between the stack and a data region. The
   slot hash folds bits 4..7 of the page key in, so neighbouring data pages
   and the far-away stack pages seldom share a slot. [no_page] never equals
   a real key (keys are non-negative). *)
let cache_slots = 16
let no_page = min_int

(* Read by every miss on an unallocated page and never written: such a
   read yields zero without allocating or caching anything. *)
let zero_page = Bytes.make page_bytes '\000'

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  keys : int array; (* cache slot -> page key, [no_page] when empty *)
  cached : Bytes.t array; (* cache slot -> that key's page *)
}

let create () =
  { pages = Hashtbl.create 64;
    keys = Array.make cache_slots no_page;
    cached = Array.make cache_slots zero_page }

let[@inline] slot key = (key lxor (key lsr 4)) land (cache_slots - 1)

let remember t key page =
  let s = slot key in
  t.keys.(s) <- key;
  t.cached.(s) <- page;
  page

(* Cache misses. A read of a page that was never written returns
   [zero_page] uncached, so a later write still allocates the real page. *)
let page_for_read t key =
  match Hashtbl.find_opt t.pages key with
  | None -> zero_page
  | Some page -> remember t key page

let page_for_write t key =
  match Hashtbl.find_opt t.pages key with
  | Some page -> remember t key page
  | None ->
    let page = Bytes.make page_bytes '\000' in
    Hashtbl.replace t.pages key page;
    remember t key page

(* Addresses below 2^62 (all realistic ones) split with shift/mask on the
   untagged int; an address that wrapped in [to_int] falls back to exact
   64-bit math so the page decomposition matches [iter_touched]'s
   reconstruction. Separate key/off helpers rather than one returning a
   pair: a pair would allocate on every access. *)
let[@inline] page_key a addr =
  if a >= 0 then a lsr page_shift
  else Int64.to_int (Int64.div addr (Int64.of_int page_words))

let[@inline] page_off a addr =
  if a >= 0 then a land page_mask
  else Int64.to_int (Int64.rem addr (Int64.of_int page_words))

let[@inline] read t (addr : int64) =
  if addr < 0L then invalid_arg "Memory.read: negative address";
  let a = Int64.to_int addr in
  let key = page_key a addr and off = page_off a addr in
  let s = slot key in
  let page =
    if Array.unsafe_get t.keys s = key then Array.unsafe_get t.cached s
    else page_for_read t key
  in
  get64u page (off lsl 3)

let[@inline] write t (addr : int64) (v : int64) =
  if addr < 0L then invalid_arg "Memory.write: negative address";
  let a = Int64.to_int addr in
  let key = page_key a addr and off = page_off a addr in
  let s = slot key in
  let page =
    if Array.unsafe_get t.keys s = key then Array.unsafe_get t.cached s
    else page_for_write t key
  in
  set64u page (off lsl 3) v

let load_segment t base words =
  Array.iteri (fun i v -> write t (Int64.add base (Int64.of_int i)) v) words

let pages_allocated t = Hashtbl.length t.pages

let iter_touched t f =
  Hashtbl.iter
    (fun key page ->
      let base = Int64.mul (Int64.of_int key) (Int64.of_int page_words) in
      for i = 0 to page_words - 1 do
        f (Int64.add base (Int64.of_int i)) (get64u page (i lsl 3))
      done)
    t.pages

let clear t =
  Hashtbl.reset t.pages;
  Array.fill t.keys 0 cache_slots no_page;
  Array.fill t.cached 0 cache_slots zero_page
