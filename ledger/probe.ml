(* Measurement plumbing shared by the workloads and the ladder: clocks,
   subprocesses, scratch directories, and the self-time rollup of a
   recorded trace. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Timing samples in seconds, in no particular order. *)
type samples = float list ref

let samples () : samples = ref []

let push (s : samples) x = s := x :: !s

let to_array (s : samples) = Array.of_list !s

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_all fd =
  let b = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Run [prog args] to completion with stdin and stderr on /dev/null;
   returns its stdout and whether it exited 0. The child is always
   reaped before returning. *)
let capture prog args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null w null)
  in
  Unix.close null;
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> read_all r) in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  (out, wait () = Unix.WEXITED 0)

(* Self time per span name: a span's duration minus the part of it its
   child spans cover, summed over every occurrence, per domain. *)
type rollup_row = { name : string; count : int; total_us : float; self_us : float }

let rollup (events : Obs.Trace.event list) =
  let acc = Hashtbl.create 64 in
  let add name ~total ~self =
    let c, t, s = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc name) in
    Hashtbl.replace acc name (c + 1, t +. total, s +. self)
  in
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.dom) in
      match e.ph with
      | 'B' -> Hashtbl.replace stacks e.dom ((e.name, e.ts_us, ref 0.) :: stack)
      | 'E' -> (
        match stack with
        | (name, t0, children) :: rest ->
          let total = e.ts_us -. t0 in
          add name ~total ~self:(total -. !children);
          (match rest with (_, _, up) :: _ -> up := !up +. total | [] -> ());
          Hashtbl.replace stacks e.dom rest
        | [] -> ())
      | _ -> ())
    events;
  Hashtbl.fold
    (fun name (count, total_us, self_us) l -> { name; count; total_us; self_us } :: l)
    acc []
  |> List.sort (fun a b -> Float.compare b.self_us a.self_us)

let write_rollup path rows =
  let all = List.fold_left (fun s r -> s +. r.self_us) 0. rows in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%-40s %8s %14s %14s %7s\n" "span" "count" "total_ms" "self_ms" "self%";
      List.iter
        (fun r ->
          Printf.fprintf oc "%-40s %8d %14.3f %14.3f %6.2f%%\n" r.name r.count
            (r.total_us /. 1e3) (r.self_us /. 1e3)
            (if all > 0. then 100. *. r.self_us /. all else 0.))
        rows)

(* Write the recorded trace as DIR/NAME.trace.json (Chrome trace_event)
   and DIR/NAME.rollup.txt. *)
let dump_trace ~dir name =
  mkdir_p dir;
  Obs.Trace.write_file (Filename.concat dir (name ^ ".trace.json"));
  write_rollup (Filename.concat dir (name ^ ".rollup.txt")) (rollup (Obs.Trace.events ()))
