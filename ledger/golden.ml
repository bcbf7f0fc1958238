(* Output checks. Every request's result is reduced to a digest and
   compared with the digest [ledger.exe bless] recorded in
   ledger/golden/digests.txt; independently, [oracle_check] holds each
   program's full value profile against the exact Oracle. *)

let hex s = Digest.to_hex (Digest.string s)

(* Every deterministic field of a result; [%h] prints floats exactly, so
   equal renderings mean bit-equal numbers. *)
let fl = Printf.sprintf "%h"

let render_metrics (m : Metrics.t) =
  String.concat ";"
    [ string_of_int m.total; fl m.lvp; fl m.inv_top; fl m.inv_all; fl m.zero;
      string_of_int m.distinct; string_of_bool m.distinct_saturated;
      String.concat ","
        (Array.to_list (Array.map (fun (v, c) -> Printf.sprintf "%Ld:%d" v c) m.top_values));
      fl m.stride_top;
      (match m.top_stride with None -> "-" | Some s -> Int64.to_string s) ]

let render_lines f items tail =
  let b = Buffer.create 4096 in
  Array.iter (fun x -> Buffer.add_string b (f x); Buffer.add_char b '\n') items;
  Buffer.add_string b tail;
  Buffer.contents b

let profile_digest p = hex (Profile_io.to_binary p)

let sample_digest (s : Sampler.t) =
  hex
    (render_lines
       (fun (pt : Sampler.point) ->
         Printf.sprintf "%d %s %d %d %b" pt.s_pc (render_metrics pt.s_metrics) pt.s_events
           pt.s_profiled pt.s_converged)
       s.points
       (Printf.sprintf "%d %d %s %d" s.total_events s.profiled_events (fl s.overhead)
          s.dynamic_instructions))

let procs_digest (p : Procprof.t) =
  hex
    (render_lines
       (fun (r : Procprof.proc_report) ->
         Printf.sprintf "%s %d [%s] %s %d %b" r.r_name r.r_calls
           (String.concat " | " (Array.to_list (Array.map render_metrics r.r_params)))
           (render_metrics r.r_return) r.r_memo_hits r.r_memo_capacity_exceeded)
       p.procs
       (Printf.sprintf "%d %d" p.total_calls p.dynamic_instructions))

let procs_config (w : Workload.t) = { Procprof.default_config with arities = w.warities }

let key kind (w : Workload.t) input =
  Printf.sprintf "%s/%s/%s" kind w.wname (Workload.string_of_input input)

let cli_key = "cli/experiments"

(* The CLI command every cli_suite request runs, against store [dir]. *)
let cli_args dir = [ "experiments"; "-j"; "1"; "--store"; dir ]

(* Every (workload, input) pair, in registry order. *)
let pairs =
  List.concat_map (fun w -> [ (w, Workload.Test); (w, Workload.Train) ]) Workloads.all

(* --- the golden file --- *)

type table = (string, string) Hashtbl.t

let file dir = Filename.concat dir "digests.txt"

let load dir : table =
  let t = Hashtbl.create 128 in
  let ic =
    try open_in (file dir)
    with Sys_error e -> failwith ("no golden digests (" ^ e ^ "); run `ledger.exe bless`")
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if line <> "" && line.[0] <> '#' then
            match String.split_on_char ' ' line with
            | [ k; d ] -> Hashtbl.replace t k d
            | _ -> failwith ("malformed golden line: " ^ line)
        done
      with End_of_file -> ());
  t

(* [matches t key digest] — a key with no golden never matches. *)
let matches (t : table) key digest = Hashtbl.find_opt t key = Some digest

(* Recompute every golden digest from scratch and write the file. *)
let bless ~dir ~vprof ~scratch =
  let rows =
    List.concat_map
      (fun (w, i) ->
        let prog = w.Workload.wbuild i in
        [ (key "profile" w i, profile_digest (Profile.run ~selection:`All prog));
          (key "sample" w i, sample_digest (Sampler.run prog));
          (key "procs" w i, procs_digest (Procprof.run ~config:(procs_config w) prog)) ])
      pairs
  in
  let store = Filename.concat scratch "bless_store" in
  Probe.mkdir_p scratch;
  Probe.rm_rf store;
  let out, ok = Probe.capture vprof (cli_args store) in
  if not ok then failwith "vprof experiments failed while blessing";
  let rows = List.sort compare ((cli_key, hex out) :: rows) in
  Probe.mkdir_p dir;
  let oc = open_out (file dir) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        "# MD5 of each benchmark request's output: v3 bytes for profiles, an\n\
         # exact rendering for sampler and procs results, stdout for the CLI.\n\
         # Written by `ledger.exe bless`; a change that claims a gain keeps them.\n";
      List.iter (fun (k, d) -> Printf.fprintf oc "%s %s\n" k d) rows);
  List.length rows

(* --- the Oracle check ---

   One execution per (program, input) with the value profiler and an
   exact per-pc Oracle co-attached, so both see the same value stream.
   Per profiled pc: the TNV total equals the Oracle's, an unsaturated
   distinct count equals the Oracle's, and Inv-Top never exceeds the
   Oracle's (TNV counts are lower bounds). The profile must also match its
   golden digest, which ties the goldens to the Oracle. Top-value equality
   is deliberately not asserted: periodic clears can legitimately evict
   the true top value's early count. *)
type oracle_report = { points : int; violations : string list }

let oracle_check (golden : table) =
  let violations = ref [] and points = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun (w, i) ->
      let prog = w.Workload.wbuild i in
      let m = Machine.create prog in
      let live = Profile.attach m `All in
      let oracles = Hashtbl.create 256 in
      ignore
        (Atom.instrument m (Atom.select prog `All) (fun pc ->
             let o = Oracle.create () in
             Hashtbl.replace oracles pc o;
             fun v _ -> Oracle.observe o v));
      ignore (Machine.run m);
      let p = Profile.collect live in
      let k = key "profile" w i in
      if not (matches golden k (profile_digest p)) then fail "%s: digest differs from golden" k;
      Array.iter
        (fun (pt : Profile.point) ->
          incr points;
          let mt = pt.p_metrics in
          match Hashtbl.find_opt oracles pt.p_pc with
          | None -> fail "%s pc %d: no oracle" k pt.p_pc
          | Some o ->
            if mt.total <> Oracle.total o then
              fail "%s pc %d: total %d, oracle %d" k pt.p_pc mt.total (Oracle.total o);
            if (not mt.distinct_saturated) && mt.distinct <> Oracle.distinct o then
              fail "%s pc %d: distinct %d, oracle %d" k pt.p_pc mt.distinct (Oracle.distinct o);
            if mt.inv_top > Oracle.inv_top o then
              fail "%s pc %d: inv_top %h above oracle %h" k pt.p_pc mt.inv_top (Oracle.inv_top o))
        p.points)
    pairs;
  { points = !points; violations = List.rev !violations }
