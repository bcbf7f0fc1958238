(** The observability substrate: structured tracing plus a process-wide
    metrics registry, shared by every layer from the virtual machine up
    to the experiment suite.

    Two design invariants, both load-bearing:

    - {e Zero cost when off.} Tracing is gated on a single flag read
      ({!Trace.on}); a disabled span site costs one boolean load and
      nothing else — no allocation, no clock read, no buffer touch. The
      registry's counters are bare atomic adds placed only on cold or
      per-run paths (never per machine event), so they stay on
      unconditionally.

    - {e Lock-free recording.} Each domain appends trace events to its
      own buffer (registered once, under a mutex, at first use); the hot
      recording path takes no lock and shares no cache line with other
      domains.

    See DESIGN.md ("The observability layer") for the span model and the
    registry naming scheme. *)

(** A minimal JSON tree: enough to emit the trace/metrics files and to
    parse them back for validation (the repository deliberately has no
    external JSON dependency). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  (** Compact rendering. Integral [Num]s print without a decimal point,
      so counters round-trip exactly. *)
  val to_string : t -> string

  (** Strict parser for the subset {!to_string} emits (standard JSON with
      numbers as floats). [Error msg] carries a position. *)
  val parse : string -> (t, string) result

  (** Field lookup on an [Obj]; [None] on a missing field or a non-object. *)
  val member : string -> t -> t option
end

(** The metrics registry: named counters, gauges and histograms,
    get-or-created by name and aggregated process-wide. Names follow a
    ["layer.metric"] dotted scheme ("machine.runs", "tnv.clears",
    "supervisor.retries", "profiler.profile.events_seen", ...).

    All operations are domain-safe: counters and gauges are atomics,
    histograms take a per-histogram lock on [observe] (they live on
    per-run paths only). {!reset} zeroes every metric but never
    invalidates a handle, so modules may hold handles at top level. *)
module Metrics : sig
  type counter
  type gauge
  type histogram

  (** Get or create. Raises [Invalid_argument] if the name is already
      registered as a different metric kind. *)
  val counter : string -> counter

  val incr : counter -> unit
  val add : counter -> int -> unit
  val counter_value : counter -> int

  val gauge : string -> gauge
  val set_gauge : gauge -> float -> unit
  val gauge_value : gauge -> float

  (** Histograms keep every sample; percentiles are computed on demand
      with {!Stats.percentile} (the registry adds no second quantile
      estimator). *)
  val histogram : string -> histogram

  val observe : histogram -> float -> unit

  (** The raw samples, in observation order (a copy). *)
  val histogram_samples : histogram -> float array

  (** [histogram_percentile h p] = [Stats.percentile p] of the samples.
      Raises [Invalid_argument] on an empty histogram, like
      [Stats.percentile]. *)
  val histogram_percentile : histogram -> float -> float

  type value =
    | Counter of int
    | Gauge of float
    | Histogram of float array  (** raw samples *)

  (** Every registered metric, sorted by name. *)
  val snapshot : unit -> (string * value) list

  (** Zero every metric (counters to 0, gauges to 0., histograms
      emptied). Registrations and handles survive. *)
  val reset : unit -> unit

  (** [{ "metrics": [ {name; type; ...} ... ] }], name-sorted.
      Histograms export count/min/max/p50/p90/p99. *)
  val to_json : unit -> Json.t

  val write_file : string -> unit
end

(** The span tracer. Spans are begin/end event pairs recorded per domain
    with wall-clock timestamps; within one domain they must nest (end the
    innermost open span first), which every exporter and checker here
    assumes and {!well_nested} verifies. *)
module Trace : sig
  (** Master switch, off by default. The recording functions are no-ops
      (one flag read) while off. *)
  val set_enabled : bool -> unit

  val on : unit -> bool

  (** Drop every recorded event and restart the trace clock. *)
  val reset : unit -> unit

  val begin_span : ?cat:string -> string -> unit
  val end_span : ?cat:string -> string -> unit

  (** A zero-duration marker event. *)
  val instant : ?cat:string -> string -> unit

  (** [with_span name f] wraps [f] in a span (ended on exceptions too);
      when tracing is off it is exactly [f ()]. *)
  val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a

  type event = {
    ph : char;  (** 'B' begin, 'E' end, 'i' instant *)
    name : string;
    cat : string;
    ts_us : float;  (** microseconds since the trace epoch *)
    dom : int;  (** recording domain's id *)
  }

  (** All recorded events: domains in ascending id order, each domain's
      events in recording order. *)
  val events : unit -> event list

  (** The trace with timestamps scrubbed — one ["dom D: PH name [cat]"]
      line per event, in {!events} order. Two runs with identical control
      flow produce byte-identical structures; tests compare exactly
      this. *)
  val structure : unit -> string

  (** Check begin/end pairing per domain: every 'E' matches the innermost
      open 'B' of the same name, and nothing is left open. *)
  val well_nested : unit -> (unit, string) result

  (** Chrome [trace_event] JSON: [{ "traceEvents": [...] }] with
      "B"/"E"/"i" phase records (pid 1, tid = domain id, ts in
      microseconds), loadable in [chrome://tracing] / Perfetto. *)
  val to_json : unit -> Json.t

  val write_file : string -> unit
end

(** [with_sinks ?trace ?metrics f] runs [f] with the telemetry sinks
    the command asked for. Given [trace], tracing is reset and enabled
    for exactly this call. On the way out, exceptions included, tracing
    is disabled and the trace written to [trace], then the registry to
    [metrics], so a failing run still leaves its telemetry behind. The
    writes are silent: callers own stdout. *)
val with_sinks : ?trace:string -> ?metrics:string -> (unit -> 'a) -> 'a

(** Publish one profiler run's cost counters into the registry, under
    ["profiler.<name>.*"]: counters [runs], [events_seen],
    [events_profiled], [tnv_clears], [tnv_evictions] plus a
    [wall_seconds] histogram, and a [degrade_level] gauge when the run
    finished degraded. Loading this library also installs the
    {!Budget.set_notifier} hook, which surfaces degradation steps and
    budget trips as [degrade.*] / [budget.*] counters and trace
    instants. The {!Profiler_intf.Make} functor calls
    this from [collect], which is what makes the registry the single
    aggregation substrate for all nine profilers. *)
val publish_profiler_run : name:string -> Counters.t -> unit
