(** Binary codec primitives for the v3 profile format and the store.

    Everything here is deliberately boring: LEB128 varints for counts,
    zigzag varints for signed 64-bit values, fixed little-endian words for
    floats and checksums, length-prefixed strings, a first-use-interned
    string table, and tagged sections framed with a per-section CRC-32
    (reusing {!Crc32}). Writers append to a [Buffer.t]; readers consume a
    [string] through a mutable cursor and raise {!Error} with the byte
    offset of the first malformed byte, so callers can report "byte N"
    the way the text parsers report "line N". *)

(** [Error (offset, message)]: the input is malformed at [offset]. *)
exception Error of int * string

(** {1 Writers} *)

(** LEB128 unsigned varint. Raises [Invalid_argument] on a negative int. *)
val put_uvarint : Buffer.t -> int -> unit

(** Zigzag-encoded LEB128 varint covering all of [int64]. *)
val put_varint64 : Buffer.t -> int64 -> unit

(** Fixed 8-byte little-endian IEEE-754 bits. *)
val put_f64 : Buffer.t -> float -> unit

(** Fixed 4-byte little-endian word; [Invalid_argument] outside
    [\[0, 0xFFFFFFFF\]]. The on-disk shape of a CRC-32. *)
val put_u32 : Buffer.t -> int -> unit

(** Length-prefixed (uvarint) byte string. *)
val put_string : Buffer.t -> string -> unit

(** {1 Readers} *)

type reader

(** [reader ?pos s] reads [s] starting at [pos] (default 0). *)
val reader : ?pos:int -> string -> reader

(** Current cursor position (an offset into the underlying string). *)
val pos : reader -> int

(** True when the cursor has consumed every byte. *)
val at_end : reader -> bool

val read_byte : reader -> int

(** Never negative: a uvarint past [max_int] raises {!Error}, as
    {!put_uvarint} never writes one. *)
val read_uvarint : reader -> int
val read_varint64 : reader -> int64
val read_f64 : reader -> float
val read_u32 : reader -> int
val read_string : reader -> string

(** [read_bytes r n] consumes exactly [n] raw bytes. *)
val read_bytes : reader -> int -> string

(** {1 String table}

    Interns strings in first-use order; the encoded form is a uvarint
    count followed by length-prefixed entries, so indices assigned by
    [intern] are stable across encode/decode. *)

module Strtab : sig
  type t

  val create : unit -> t

  (** Index of [s], interning it on first use. *)
  val intern : t -> string -> int

  val encode : t -> string

  (** Decodes an [encode]d table; indices are array positions. *)
  val decode : reader -> string array
end

(** {1 Sections}

    A section is [tag byte · uvarint payload length · payload ·
    4-byte CRC-32 of the payload]. [read_section] verifies the CRC and
    raises {!Error} on a mismatch, a truncated payload, or an
    over-long length. *)

val put_section : Buffer.t -> tag:char -> string -> unit
val read_section : reader -> char * string
