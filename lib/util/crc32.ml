(* Reflected CRC-32, polynomial 0xEDB88320. The state fits easily in an
   OCaml int (63-bit), so the whole computation is unboxed. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub";
  let t = Lazy.force table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = sub s 0 (String.length s)

let to_hex c = Printf.sprintf "%08x" (c land 0xFFFFFFFF)

(* Every digit is checked here: [int_of_string] alone would also accept
   an underscore between digits. *)
let is_hex_digit = function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

let of_hex s =
  if String.length s <> 8 || not (String.for_all is_hex_digit s) then None
  else int_of_string_opt ("0x" ^ s)
