(* The observability substrate. See obs.mli for the contract; the two
   invariants that shaped this file are (a) a disabled trace site costs
   exactly one flag read, and (b) trace recording never takes a lock —
   each domain owns its buffer, and the only mutex-protected operations
   are buffer registration, registry creation and histogram appends, all
   of them cold. *)

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let number_to_string x =
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else if Float.is_finite x then Printf.sprintf "%.12g" x
    else invalid_arg "Obs.Json: non-finite number"

  let to_string v =
    let buf = Buffer.create 4096 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num x -> Buffer.add_string buf (number_to_string x)
      | Str s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
      | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            go item)
          fields;
        Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  exception Bad of int * string

  let parse text =
    let n = String.length text in
    let pos = ref 0 in
    let fail msg = raise (Bad (!pos, msg)) in
    let peek () = if !pos < n then Some text.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n
         && String.sub text !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = text.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then fail "unterminated escape";
           let e = text.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let hex = String.sub text !pos 4 in
             pos := !pos + 4;
             (match int_of_string_opt ("0x" ^ hex) with
              | None -> fail "bad \\u escape"
              | Some cp ->
                (* decode the BMP code point to UTF-8 *)
                if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
                else if cp < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                end)
           | _ -> fail "bad escape");
          go ()
        | c -> Buffer.add_char buf c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char text.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some x -> x
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let fields = ref [] in
          let rec field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); field ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          field ();
          Obj (List.rev !fields)
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [] in
          let rec item () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); item ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          item ();
          List (List.rev !items)
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad (at, msg) ->
      Error (Printf.sprintf "at byte %d: %s" at msg)

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | Null | Bool _ | Num _ | Str _ | List _ -> None
end

let write_text_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type counter = { c_name : string; c_val : int Atomic.t }
  type gauge = { g_name : string; g_val : float Atomic.t }

  type histogram = {
    h_name : string;
    h_mu : Mutex.t;
    mutable h_data : float array;
    mutable h_len : int;
  }

  type metric = C of counter | G of gauge | H of histogram

  let mu = Mutex.create ()
  let table : (string, metric) Hashtbl.t = Hashtbl.create 64

  let with_mu f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

  let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

  let get_or_create name make match_existing =
    with_mu (fun () ->
        match Hashtbl.find_opt table name with
        | Some m ->
          (match match_existing m with
           | Some x -> x
           | None ->
             invalid_arg
               (Printf.sprintf
                  "Obs.Metrics: %S is already registered as a %s" name
                  (kind_name m)))
        | None ->
          let x, m = make () in
          Hashtbl.replace table name m;
          x)

  let counter name =
    get_or_create name
      (fun () ->
        let c = { c_name = name; c_val = Atomic.make 0 } in
        (c, C c))
      (function C c -> Some c | G _ | H _ -> None)

  let incr c = Atomic.incr c.c_val
  let add c n = ignore (Atomic.fetch_and_add c.c_val n)
  let counter_value c = Atomic.get c.c_val

  let gauge name =
    get_or_create name
      (fun () ->
        let g = { g_name = name; g_val = Atomic.make 0. } in
        (g, G g))
      (function G g -> Some g | C _ | H _ -> None)

  let set_gauge g x = Atomic.set g.g_val x
  let gauge_value g = Atomic.get g.g_val

  let histogram name =
    get_or_create name
      (fun () ->
        let h =
          { h_name = name; h_mu = Mutex.create (); h_data = [||]; h_len = 0 }
        in
        (h, H h))
      (function H h -> Some h | C _ | G _ -> None)

  let observe h x =
    Mutex.lock h.h_mu;
    if h.h_len = Array.length h.h_data then begin
      let grown = Array.make (max 16 (2 * h.h_len)) 0. in
      Array.blit h.h_data 0 grown 0 h.h_len;
      h.h_data <- grown
    end;
    h.h_data.(h.h_len) <- x;
    h.h_len <- h.h_len + 1;
    Mutex.unlock h.h_mu

  let histogram_samples h =
    Mutex.lock h.h_mu;
    let copy = Array.sub h.h_data 0 h.h_len in
    Mutex.unlock h.h_mu;
    copy

  let histogram_percentile h p = Stats.percentile p (histogram_samples h)

  type value =
    | Counter of int
    | Gauge of float
    | Histogram of float array

  let snapshot () =
    let items =
      with_mu (fun () ->
          Hashtbl.fold
            (fun name m acc ->
              let v =
                match m with
                | C c -> Counter (counter_value c)
                | G g -> Gauge (gauge_value g)
                | H h -> Histogram (histogram_samples h)
              in
              (name, v) :: acc)
            table [])
    in
    List.sort (fun (a, _) (b, _) -> compare a b) items

  let reset () =
    with_mu (fun () ->
        Hashtbl.iter
          (fun _ m ->
            match m with
            | C c -> Atomic.set c.c_val 0
            | G g -> Atomic.set g.g_val 0.
            | H h ->
              Mutex.lock h.h_mu;
              h.h_len <- 0;
              Mutex.unlock h.h_mu)
          table)

  let to_json () =
    let metric_json (name, v) =
      match v with
      | Counter n ->
        Json.Obj
          [ ("name", Json.Str name); ("type", Json.Str "counter");
            ("value", Json.Num (float_of_int n)) ]
      | Gauge x ->
        Json.Obj
          [ ("name", Json.Str name); ("type", Json.Str "gauge");
            ("value", Json.Num x) ]
      | Histogram samples ->
        let stats =
          if Array.length samples = 0 then []
          else
            let lo, hi = Stats.min_max samples in
            [ ("min", Json.Num lo);
              ("p50", Json.Num (Stats.percentile 50. samples));
              ("p90", Json.Num (Stats.percentile 90. samples));
              ("p99", Json.Num (Stats.percentile 99. samples));
              ("max", Json.Num hi) ]
        in
        Json.Obj
          ([ ("name", Json.Str name); ("type", Json.Str "histogram");
             ("count", Json.Num (float_of_int (Array.length samples))) ]
          @ stats)
    in
    Json.Obj [ ("metrics", Json.List (List.map metric_json (snapshot ()))) ]

  let write_file path = write_text_file path (Json.to_string (to_json ()) ^ "\n")
end

(* ------------------------------------------------------------------ *)
(* Span tracer                                                        *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type ev = { e_ph : char; e_name : string; e_cat : string; e_ts : float }

  let dummy_ev = { e_ph = ' '; e_name = ""; e_cat = ""; e_ts = 0. }

  (* A domain's private buffer. [b_gen] ties it to the trace generation:
     after a [reset], the next record on this domain clears the buffer
     and re-registers it, so stale events from before the reset never
     leak into the new trace. *)
  type buf = {
    b_dom : int;
    mutable b_gen : int;
    mutable b_evs : ev array;
    mutable b_len : int;
  }

  let enabled = ref false
  let on () = !enabled
  let set_enabled b = enabled := b

  let mu = Mutex.create ()
  let bufs : buf list ref = ref []
  let generation = ref 1
  let epoch = ref 0.

  let key =
    Domain.DLS.new_key (fun () ->
        { b_dom = (Domain.self () :> int);
          b_gen = 0;
          b_evs = [||];
          b_len = 0 })

  let reset () =
    Mutex.lock mu;
    bufs := [];
    incr generation;
    epoch := now ();
    Mutex.unlock mu

  (* Hot (tracing-on) path: one DLS read, a generation check, an array
     store. The mutex is taken only on the first record after a reset. *)
  let record ph name cat =
    let b = Domain.DLS.get key in
    if b.b_gen <> !generation then begin
      b.b_len <- 0;
      b.b_gen <- !generation;
      Mutex.lock mu;
      bufs := b :: !bufs;
      Mutex.unlock mu
    end;
    if b.b_len = Array.length b.b_evs then begin
      let grown = Array.make (max 256 (2 * b.b_len)) dummy_ev in
      Array.blit b.b_evs 0 grown 0 b.b_len;
      b.b_evs <- grown
    end;
    b.b_evs.(b.b_len) <- { e_ph = ph; e_name = name; e_cat = cat; e_ts = now () -. !epoch };
    b.b_len <- b.b_len + 1

  let begin_span ?(cat = "app") name = if !enabled then record 'B' name cat
  let end_span ?(cat = "app") name = if !enabled then record 'E' name cat
  let instant ?(cat = "app") name = if !enabled then record 'i' name cat

  let with_span ?cat name f =
    if not !enabled then f ()
    else begin
      begin_span ?cat name;
      match f () with
      | v ->
        end_span ?cat name;
        v
      | exception e ->
        end_span ?cat name;
        raise e
    end

  type event = {
    ph : char;
    name : string;
    cat : string;
    ts_us : float;
    dom : int;
  }

  let events () =
    Mutex.lock mu;
    let gen = !generation in
    let snap =
      List.filter_map
        (fun b ->
          if b.b_gen = gen && b.b_len > 0 then
            Some (b.b_dom, Array.sub b.b_evs 0 b.b_len)
          else None)
        !bufs
    in
    Mutex.unlock mu;
    List.sort (fun (a, _) (b, _) -> compare a b) snap
    |> List.concat_map (fun (dom, evs) ->
           Array.to_list evs
           |> List.map (fun e ->
                  { ph = e.e_ph; name = e.e_name; cat = e.e_cat;
                    ts_us = e.e_ts *. 1e6; dom }))

  let structure () =
    let buf = Buffer.create 1024 in
    List.iter
      (fun e ->
        Buffer.add_string buf
          (Printf.sprintf "dom %d: %c %s [%s]\n" e.dom e.ph e.name e.cat))
      (events ());
    Buffer.contents buf

  let well_nested () =
    let check_domain (dom, evs) =
      let stack = ref [] in
      let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
      let rec go = function
        | [] ->
          (match !stack with
           | [] -> Ok ()
           | name :: _ -> bad "dom %d: span %S never ended" dom name)
        | e :: rest ->
          (match e.ph with
           | 'B' ->
             stack := e.name :: !stack;
             go rest
           | 'E' ->
             (match !stack with
              | top :: below when top = e.name ->
                stack := below;
                go rest
              | top :: _ ->
                bad "dom %d: end of %S while %S is open" dom e.name top
              | [] -> bad "dom %d: end of %S with no open span" dom e.name)
           | _ -> go rest)
      in
      go evs
    in
    let by_dom = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_dom e.dom) in
        Hashtbl.replace by_dom e.dom (e :: cur))
      (events ());
    Hashtbl.fold (fun dom evs acc -> (dom, List.rev evs) :: acc) by_dom []
    |> List.fold_left
         (fun acc d -> match acc with Error _ -> acc | Ok () -> check_domain d)
         (Ok ())

  let to_json () =
    let event_json e =
      let base =
        [ ("name", Json.Str e.name);
          ("cat", Json.Str e.cat);
          ("ph", Json.Str (String.make 1 e.ph));
          ("pid", Json.Num 1.);
          ("tid", Json.Num (float_of_int e.dom));
          ("ts", Json.Num e.ts_us) ]
      in
      (* instant events carry a scope field in the trace_event format *)
      Json.Obj (if e.ph = 'i' then base @ [ ("s", Json.Str "t") ] else base)
    in
    Json.Obj [ ("traceEvents", Json.List (List.map event_json (events ()))) ]

  let write_file path = write_text_file path (Json.to_string (to_json ()) ^ "\n")
end

(* ------------------------------------------------------------------ *)
(* Sinks                                                              *)
(* ------------------------------------------------------------------ *)

let with_sinks ?trace ?metrics f =
  if trace <> None then begin
    Trace.reset ();
    Trace.set_enabled true
  end;
  let finish () =
    Option.iter
      (fun path ->
        Trace.set_enabled false;
        Trace.write_file path)
      trace;
    Option.iter Metrics.write_file metrics
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* ------------------------------------------------------------------ *)
(* Profiler-run publication                                           *)
(* ------------------------------------------------------------------ *)

let publish_profiler_run ~name (c : Counters.t) =
  let pfx = "profiler." ^ name ^ "." in
  Metrics.incr (Metrics.counter (pfx ^ "runs"));
  Metrics.add (Metrics.counter (pfx ^ "events_seen")) c.Counters.events_seen;
  Metrics.add
    (Metrics.counter (pfx ^ "events_profiled"))
    c.Counters.events_profiled;
  Metrics.add (Metrics.counter (pfx ^ "tnv_clears")) c.Counters.tnv_clears;
  Metrics.add
    (Metrics.counter (pfx ^ "tnv_evictions"))
    c.Counters.tnv_replacements;
  Metrics.observe
    (Metrics.histogram (pfx ^ "wall_seconds"))
    c.Counters.wall_seconds;
  if c.Counters.degrade_level > 0 then
    Metrics.set_gauge
      (Metrics.gauge (pfx ^ "degrade_level"))
      (float_of_int c.Counters.degrade_level)

(* Budget lives in [vp_util], below this library, so it cannot emit
   telemetry itself; it reports degradation steps and budget trips
   through a notifier installed here at program start. Linking [vp_obs]
   (every binary does) is what arms the wiring. *)
let m_degrade_steps = Metrics.counter "degrade.steps"
let m_deadline_trips = Metrics.counter "budget.deadline_trips"
let m_mem_trips = Metrics.counter "budget.mem_pressure_trips"

let () =
  Budget.set_notifier (function
    | Budget.Degrade_step level ->
      Metrics.incr m_degrade_steps;
      Metrics.set_gauge (Metrics.gauge "degrade.level") (float_of_int level);
      Trace.instant ~cat:"budget" "degrade.step"
    | Budget.Deadline_trip _ ->
      Metrics.incr m_deadline_trips;
      Trace.instant ~cat:"budget" "budget.deadline"
    | Budget.Mem_trip _ ->
      Metrics.incr m_mem_trips;
      Trace.instant ~cat:"budget" "budget.mem_pressure")
