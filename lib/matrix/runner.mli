(** Execute an expanded scenario matrix on the domain pool.

    Each (cell, seed) pair is one independent pool job; results are
    merged by job index, so every aggregate below — and hence the
    rendered table and the [BENCH_MATRIX_*.json] export — is
    byte-identical at any worker count.  The only non-deterministic
    field is the advisory wall-clock, and only when a [clock] is
    supplied; with [clock] absent every wall field is exactly [0.]
    (what the CI determinism diff runs with).

    Protocol dispatch lives here: [abc-bench] and the [bench/] tables
    E2–E6, E10 and E16–E19 all read {!run_seed} outcomes.  Supported
    protocol tokens: [bracha], [bracha-cc] (common coin), [bracha-rl]
    (reliable-link transport), [ben-or], [mmr] for binary consensus;
    [bracha-rbc], [coded-rbc], [ir-rbc] for reliable broadcast over a
    [payload]-byte message; [atomic] for the batched atomic broadcast
    ([batch] / [epochs] / [window] / [checkpoint] / [crash] axes).  An
    unsupported token or axis combination raises [Invalid_argument]
    with the offending cell's key.  Configurations no token covers
    still run in [bench/main.ml]: E5's binary RBC, E7's transport and
    validation ablation, E8's Bechamel timings, E9, E10's local-coin
    MMR ablation, E11, E12 and E13. *)

type outcome = {
  decided : bool;  (** every correct node finished (consensus: decided) *)
  agreement : bool;
  validity : bool;
  totality : bool;  (** broadcast: none or all honest nodes delivered *)
  o_rounds : int;  (** slowest honest decision round (consensus) *)
  o_messages : int;  (** point-to-point messages sent *)
  o_bytes : int;  (** wire bytes sent ([bytes.sent]) *)
  o_ticks : int;  (** final virtual time *)
  o_committed : int;  (** transactions in the first complete log (atomic) *)
  o_deliveries : int;  (** engine deliveries: the unit of hot-path work *)
  o_gc_stats : (int * int * int) option;
      (** atomic: the watched replica's [(max_live, checkpoints,
          transfers)]; the watched replica is the first
          crash-recovered node of a [crash] cell, else node 0 *)
  o_rejoin_latency : int option;
      (** atomic [crash] cells: ticks from the watched replica's rejoin
          to its first [Epoch_committed] or [Log_complete] *)
}
(** One seed of one cell.  Only the fields up to [o_committed] feed
    {!table} and {!to_json}. *)

val run_seed : Spec.cell -> seed:int -> outcome
(** Run one seed of one cell.  A protocol's own quorum assertion
    rejecting a beyond-resilience [(n, f)] yields an outcome with every
    flag false. *)

val decides : outcome -> bool
(** The {!Spec.Decide} oracle: decided, agreement and validity. *)

val logs_agree : 'a list option list -> bool
(** Agreement over replicated logs: every [Some] log equals every
    other; [None] (an unfinished replica) constrains nothing. *)

type cell_metrics = {
  ok_rate : float;  (** fraction of seeds satisfying {!Spec.Decide} *)
  rounds : float;  (** mean slowest-honest decision round *)
  messages : float;  (** mean point-to-point messages per run *)
  bytes : float;  (** mean wire bytes per run ([bytes.sent]) *)
  ticks : float;  (** mean virtual duration per run *)
  committed : float;  (** mean committed transactions (atomic only) *)
  wall_s : float;  (** summed wall-clock over the cell's runs; advisory *)
}

type cell_result = {
  cell : Spec.cell;
  pass : bool;  (** the cell's expected verdict held on every seed *)
  metrics : cell_metrics;
}

type t = { spec : Spec.t; cells : cell_result list }

val run :
  ?clock:(unit -> float) ->
  ?seeds_scale:float ->
  pool:Abc_exec.Pool.t ->
  Spec.t ->
  t
(** Expand the spec and run every cell's seed sweep on the pool.
    [seeds_scale] multiplies each cell's [seeds] axis (floored at 1);
    the quick tier in CI uses the spec's own counts, scale [1.]. *)

val passed : t -> bool
(** Every cell's expected verdict held. *)

val failures : t -> cell_result list

val table : t -> Abc_sim.Table.t
(** One row per cell: the axis values, the expected verdict, the
    observed verdict and the aggregate metrics.  The table id is the
    spec id. *)

val matrix_schema_version : int
(** Version stamped into (and accepted from) [abc.bench.matrix]
    documents. *)

val to_json : seeds_scale:float -> t -> Abc_sim.Json.t
(** The [abc.bench.matrix] result set (schema documented in
    OBSERVABILITY.md): spec identity, axis list, one object per cell
    keyed by its axis values, and run metadata.  Deliberately excludes
    the worker count: the export is byte-identical at any [--jobs]. *)
