type input = Test | Train

let string_of_input = function Test -> "test" | Train -> "train"

let input_of_string = function
  | "test" -> Test
  | "train" -> Train
  | s -> invalid_arg (Printf.sprintf "Workload.input_of_string: %S" s)

type t = {
  wname : string;
  wmimics : string;
  wdescr : string;
  wbuild : input -> Asm.program;
  warities : (string * int) list;
}

let pick input ~test ~train = match input with Test -> test | Train -> train

let rng name input =
  let h = Hashtbl.hash (name, string_of_input input) in
  Rng.create (Int64.of_int (h + 0x5157))
