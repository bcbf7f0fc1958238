exception Error of int * string

(* Writers *)

let put_uvarint buf n =
  if n < 0 then invalid_arg "Codec.put_uvarint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let put_varint64 buf v =
  (* Zigzag: sign bit moves to bit 0 so small magnitudes stay short. *)
  let z = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63) in
  let rec go z =
    if Int64.unsigned_compare z 0x80L < 0 then
      Buffer.add_char buf (Char.chr (Int64.to_int z))
    else begin
      Buffer.add_char buf
        (Char.chr (0x80 lor Int64.to_int (Int64.logand z 0x7fL)));
      go (Int64.shift_right_logical z 7)
    end
  in
  go z

let put_f64 buf x =
  let bits = Int64.bits_of_float x in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr
         (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
  done

let put_u32 buf n =
  if n < 0 || n > 0xFFFFFFFF then invalid_arg "Codec.put_u32: out of range";
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let put_string buf s =
  put_uvarint buf (String.length s);
  Buffer.add_string buf s

(* Readers *)

type reader = { src : string; mutable rpos : int }

let reader ?(pos = 0) src =
  if pos < 0 || pos > String.length src then
    invalid_arg "Codec.reader: bad position";
  { src; rpos = pos }

let pos r = r.rpos
let at_end r = r.rpos >= String.length r.src
let err r msg = raise (Error (r.rpos, msg))

let read_byte r =
  if at_end r then err r "unexpected end of input";
  let b = Char.code r.src.[r.rpos] in
  r.rpos <- r.rpos + 1;
  b

let read_uvarint r =
  let start = r.rpos in
  let rec go acc shift =
    if shift > 62 then raise (Error (start, "varint overflows int"));
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    (* the ninth byte's bit 6 lands on the sign bit: a count the writer
       can never have produced *)
    if acc < 0 then raise (Error (start, "varint overflows int"));
    if b land 0x80 = 0 then acc else go acc (shift + 7)
  in
  go 0 0

let read_varint64 r =
  let start = r.rpos in
  let rec go acc shift =
    if shift > 63 then raise (Error (start, "varint64 overflows 64 bits"));
    let b = read_byte r in
    let acc =
      Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift)
    in
    if b land 0x80 = 0 then acc else go acc (shift + 7)
  in
  let z = go 0L 0 in
  (* Undo zigzag. *)
  Int64.logxor (Int64.shift_right_logical z 1) (Int64.neg (Int64.logand z 1L))

let read_f64 r =
  let bits = ref 0L in
  for i = 0 to 7 do
    let b = read_byte r in
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int b) (8 * i))
  done;
  Int64.float_of_bits !bits

let read_u32 r =
  let n = ref 0 in
  for i = 0 to 3 do
    let b = read_byte r in
    n := !n lor (b lsl (8 * i))
  done;
  !n

let read_bytes r n =
  if n < 0 then err r "negative length";
  if r.rpos + n > String.length r.src then err r "unexpected end of input";
  let s = String.sub r.src r.rpos n in
  r.rpos <- r.rpos + n;
  s

let read_string r =
  let n = read_uvarint r in
  read_bytes r n

(* String table *)

module Strtab = struct
  type t = { tbl : (string, int) Hashtbl.t; mutable order : string list }

  let create () = { tbl = Hashtbl.create 16; order = [] }

  let intern t s =
    match Hashtbl.find_opt t.tbl s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length t.tbl in
      Hashtbl.add t.tbl s i;
      t.order <- s :: t.order;
      i

  let encode t =
    let buf = Buffer.create 64 in
    let strings = List.rev t.order in
    put_uvarint buf (List.length strings);
    List.iter (put_string buf) strings;
    Buffer.contents buf

  let decode r =
    let n = read_uvarint r in
    if n > String.length r.src then err r "string table count exceeds input";
    Array.init n (fun _ -> read_string r)
end

(* Sections *)

let put_section buf ~tag payload =
  Buffer.add_char buf tag;
  put_uvarint buf (String.length payload);
  Buffer.add_string buf payload;
  put_u32 buf (Crc32.string payload)

let read_section r =
  let tag = Char.chr (read_byte r) in
  let len = read_uvarint r in
  if r.rpos + len > String.length r.src then err r "truncated section payload";
  let payload_pos = r.rpos in
  let payload = read_bytes r len in
  let crc = read_u32 r in
  if crc <> Crc32.sub r.src payload_pos len then
    raise (Error (payload_pos, Printf.sprintf "section '%c' checksum mismatch" tag));
  (tag, payload)
