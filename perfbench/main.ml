(* The repository benchmark.

   One process runs one named workload for a wall-clock budget, one
   simulated run after another on a single domain, judges every run
   with a strict oracle and prints its metrics as the last line of
   standard output, one JSON object.  [--trace 0] gives the end-to-end
   metrics of untouched runs; [--trace 1] gives the per-layer metrics,
   measured from outside the library by wrapping protocol modules in
   [Timed].  perfbench/README.md explains the workloads and metrics. *)

module Engine = Abc_net.Engine
module Protocol = Abc_net.Protocol
module Node_id = Abc_net.Node_id
module Adversary = Abc_net.Adversary
module Link_faults = Abc_net.Link_faults
module Reliable_link = Abc_net.Reliable_link
module Metrics = Abc_sim.Metrics
module Trace = Abc_sim.Trace
module Atomic = Abc_smr.Atomic_broadcast
module Workload = Abc_smr.Workload
module Mmr = Abc.Mmr_consensus

(* ---------------------------------------------------------------- *)
(* Per-layer accounting                                               *)
(* ---------------------------------------------------------------- *)

(* Accumulator slots.  Float arrays keep every update unboxed, so the
   accounting allocates nothing inside a measured window. *)
let transport = 0
let dissemination = 1
let agreement = 2
let composition = 3
let wrap_inner = 4
let wrap_outer = 5
let n_slots = 6
let busy = Array.make n_slots 0.
let words = Array.make n_slots 0.
let calls = Array.make n_slots 0

let reset_slots () =
  Array.fill busy 0 n_slots 0.;
  Array.fill words 0 n_slots 0.;
  Array.fill calls 0 n_slots 0

module type LAYERS = sig
  val of_label : string -> int
  (** slot charged with the delivery of a message with this label *)

  val other : int
  (** slot charged with [initial] and [on_timeout] *)

  val wrap : int
  (** slot charged with the wrapper's own time and allocation *)
end

(* Records wall time and minor words around every call into [P].  The
   window opens right before the inner call and closes right after it;
   reading the clock, classifying the label and updating the slots
   fall outside it and are charged to [L.wrap], so the engine's self
   cost can be recovered exactly by subtraction.  Two applications
   never share stamps, so a wrapper may sit inside another. *)
module Timed (L : LAYERS) (P : Protocol.S) :
  Protocol.S
    with type input = P.input
     and type output = P.output
     and type msg = P.msg = struct
  include P

  (* entry words, window-open time, window-open words, window-close
     words, window-close time *)
  let stamps = Array.make 5 0.

  let open_window () =
    stamps.(0) <- Gc.minor_words ();
    stamps.(1) <- Unix.gettimeofday ();
    stamps.(2) <- Gc.minor_words ()

  let close_window () =
    stamps.(3) <- Gc.minor_words ();
    stamps.(4) <- Unix.gettimeofday ()

  let account slot =
    busy.(slot) <- busy.(slot) +. (stamps.(4) -. stamps.(1));
    words.(slot) <- words.(slot) +. (stamps.(3) -. stamps.(2));
    calls.(slot) <- calls.(slot) + 1;
    let w = L.wrap in
    busy.(w) <- busy.(w) +. (Unix.gettimeofday () -. stamps.(4));
    words.(w) <-
      words.(w) +. (stamps.(2) -. stamps.(0)) +. (Gc.minor_words () -. stamps.(3))

  let initial ctx input =
    open_window ();
    let r = P.initial ctx input in
    close_window ();
    account L.other;
    r

  let on_message ctx st ~src msg =
    open_window ();
    let r = P.on_message ctx st ~src msg in
    close_window ();
    account (L.of_label (P.msg_label msg));
    r

  let on_timeout ctx st ~id =
    open_window ();
    let r = P.on_timeout ctx st ~id in
    close_window ();
    account L.other;
    r
end

(* The atomic broadcast's wire labels name the layer: "epoch.prop.*" is
   coded dispersal (Coded_rbc, RS, Merkle), "epoch.ba.*" the
   per-proposer binary agreements (Ba_instance over Rbc_mux); the rest
   (checkpoints, transfers, epoch starts on timers) is composition. *)
let atomic_layer label =
  if String.starts_with ~prefix:"epoch.prop." label then dissemination
  else if String.starts_with ~prefix:"epoch.ba." label then agreement
  else if String.starts_with ~prefix:"rl." label then transport
  else composition

module Atomic_layers = struct
  let of_label = atomic_layer
  let other = composition
  let wrap = wrap_inner
end

module Agreement_layers = struct
  let of_label _ = agreement
  let other = agreement
  let wrap = wrap_inner
end

module Transport_layers = struct
  let of_label _ = transport
  let other = transport
  let wrap = wrap_outer
end

(* ---------------------------------------------------------------- *)
(* One simulated run and its oracle                                   *)
(* ---------------------------------------------------------------- *)

type variant =
  | Plain  (** the library as shipped: no wrapper, no trace *)
  | Wrapped  (** every protocol layer inside [Timed] *)
  | Traced  (** sampled [Abc_sim.Trace] plus [detail:true], no wrapper *)

type obs = {
  wall : float;  (** seconds inside [E.run] *)
  alloc : float;  (** minor words allocated inside [E.run] *)
  heap : float;  (** major heap words when [E.run] returns *)
  deliveries : int;
  duration : int;
  counters : (string * int) list;
  nodes : int;
  attempted : int;  (** offered transactions, or honest deciders *)
  passed : bool;  (** the strict oracle accepted the run *)
  safe : bool;  (** no agreement or validity violation *)
  digest : string;  (** every replica's log or decision *)
  subset_size : float;
  fresh_ratio : float;
  epoch_gap : float;
  max_round : int;
  trace_events : int;
}

let counter obs name = Option.value ~default:0 (List.assoc_opt name obs.counters)

(* Every run starts from a collected heap, so one run's garbage does not
   bill the next.  Returns the result, wall seconds and minor words of
   [f ()], and the major heap's size in words when [f] returns.  The
   heap gives pools back only when a major cycle sweeps them, so its
   size at the end of a run, before the collection, is close to the
   run's peak; the process-wide high-water mark would instead follow
   the single hungriest run. *)
let timed_run f =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  (r, t1 -. t0, w1 -. w0, float_of_int (Gc.quick_stat ()).Gc.heap_words)

let new_trace = function
  | Traced -> Some (Trace.create ~sample:16 ())
  | Plain | Wrapped -> None

let recorded = function Some t -> Trace.recorded t | None -> 0

type atomic_spec = {
  n : int;
  batch : int;
  tx_bytes : int;
  loss : float;  (** per-link loss; > 0 puts [Reliable_link] under the protocol *)
}

let epochs = 2
let window = 2
let max_f n = (n - 1) / 3

(* One simulated run's randomness: [seed] makes the transactions and
   the uniform scheduler's choices; [coin] seeds the common coin.  Run
   [k] of a measurement uses seed [1000 * s + k] for benchmark seed [s]
   but coin [7919 + k] for every [s]: MMR's round count follows its
   coin, and a fresh coin per benchmark seed would turn the count of
   rounds — not the code under test — into the largest source of
   spread between seeds. *)
type draw = { seed : int; coin : int }

let draw seed k = { seed = (1000 * seed) + k; coin = 7919 + k }

let mempools spec ~seed =
  Array.init spec.n (fun i ->
      Workload.txs
        (Workload.generate ~seed ~node:(Node_id.of_int i)
           ~count:(spec.batch * epochs) ~rate:1.0 ~tx_bytes:spec.tx_bytes))

let atomic_inputs spec ~coin pools =
  Atomic.inputs ~n:spec.n ~window ~batch_size:spec.batch ~epochs ~coin_seed:coin pools

let link_faults spec =
  if spec.loss > 0. then Some (Link_faults.make ~name:"loss" ~drop:spec.loss ())
  else None

(* [sorted_sub a b]: sorted list [a] is a sub-multiset of sorted [b]. *)
let rec sorted_sub a b =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: a', y :: b' ->
    let c = String.compare x y in
    if c = 0 then sorted_sub a' b' else if c > 0 then sorted_sub a b' else false

(* A run passes only if it stops at All_terminal, every replica's
   Log_complete is byte-identical, and the log holds every offered
   transaction exactly once.  It is unsafe if two complete logs differ
   or a log duplicates or invents a transaction. *)
let judge_atomic ~pools ~stop outputs =
  let offered =
    List.sort String.compare (List.concat_map Array.to_list (Array.to_list pools))
  in
  let logs = Array.map Atomic.log_of_outputs outputs in
  let present = List.filter_map Fun.id (Array.to_list logs) in
  let agree =
    match present with
    | [] -> true
    | first :: rest -> List.for_all (List.equal String.equal first) rest
  in
  let valid =
    List.for_all (fun l -> sorted_sub (List.sort String.compare l) offered) present
  in
  let complete = Array.for_all Option.is_some logs in
  let exact =
    match present with
    | first :: _ -> List.equal String.equal (List.sort String.compare first) offered
    | [] -> false
  in
  let safe = agree && valid in
  let passed = stop = Engine.All_terminal && complete && safe && exact in
  let digest =
    Array.to_list logs
    |> List.map (function
         | None -> "-"
         | Some l -> Digest.to_hex (Digest.string (String.concat "\n" l)))
    |> String.concat "|"
  in
  (passed, safe, digest, List.length offered)

let composition_stats outputs =
  let subsets = ref 0 and batches = ref 0 and in_batches = ref 0 and fresh = ref 0 in
  let gaps = ref 0. and gapped = ref 0 in
  Array.iter
    (fun out ->
      let times =
        List.filter_map
          (fun (t, o) ->
            match o with
            | Atomic.Epoch_committed { batches = bs; fresh = fr; _ } ->
              incr subsets;
              batches := !batches + List.length bs;
              List.iter (fun (_, txs) -> in_batches := !in_batches + List.length txs) bs;
              fresh := !fresh + List.length fr;
              Some t
            | Atomic.Gc_stats _ | Atomic.Log_complete _ -> None)
          out
      in
      match times with
      | first :: (_ :: _ as rest) ->
        let last = List.fold_left (fun _ t -> t) first rest in
        gaps := !gaps +. (float_of_int (last - first) /. float_of_int (List.length rest));
        incr gapped
      | [ _ ] | [] -> ())
    outputs;
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  ( ratio !batches !subsets,
    ratio !fresh !in_batches,
    if !gapped = 0 then 0. else !gaps /. float_of_int !gapped )

module Atomic_case
    (P : Protocol.S with type input = Atomic.input and type output = Atomic.output) =
struct
  module E = Engine.Make (P)

  let config spec ~seed ?trace ~detail inputs =
    E.config ~n:spec.n ~f:(max_f spec.n) ~inputs ~adversary:Adversary.uniform ~seed
      ?link_faults:(link_faults spec) ?trace ~detail ()

  let setup spec { seed; coin } =
    ignore (config spec ~seed ~detail:false (atomic_inputs spec ~coin (mempools spec ~seed)))

  let run spec variant { seed; coin } =
    let pools = mempools spec ~seed in
    let trace = new_trace variant in
    let cfg =
      config spec ~seed ?trace ~detail:(variant = Traced) (atomic_inputs spec ~coin pools)
    in
    let r, wall, alloc, heap = timed_run (fun () -> E.run cfg) in
    let passed, safe, digest, attempted = judge_atomic ~pools ~stop:r.E.stop r.E.outputs in
    let subset_size, fresh_ratio, epoch_gap = composition_stats r.E.outputs in
    {
      wall;
      alloc;
      heap;
      deliveries = r.E.deliveries;
      duration = r.E.duration;
      counters = Metrics.counters r.E.metrics;
      nodes = spec.n;
      attempted;
      passed;
      safe;
      digest;
      subset_size;
      fresh_ratio;
      epoch_gap;
      max_round = 0;
      trace_events = recorded trace;
    }
end

let mmr_n = 256

let mmr_inputs ~coin =
  Mmr.inputs ~n:mmr_n
    ~coin:(Abc.Coin.common ~seed:coin)
    (Array.init mmr_n (fun i -> if i < mmr_n / 2 then Abc.Value.Zero else Abc.Value.One))

module Mmr_case (P : Abc.Harness.CONSENSUS with type input = Mmr.input) = struct
  module H = Abc.Harness.Make (P)

  let config ~seed ?trace ~detail inputs =
    H.E.config ~n:mmr_n ~f:(max_f mmr_n) ~inputs ~adversary:Adversary.uniform ~seed
      ?trace ~detail ()

  let setup { seed; coin } = ignore (config ~seed ~detail:false (mmr_inputs ~coin))

  let run variant { seed; coin } =
    let trace = new_trace variant in
    let cfg = config ~seed ?trace ~detail:(variant = Traced) (mmr_inputs ~coin) in
    let r, wall, alloc, heap = timed_run (fun () -> H.E.run cfg) in
    let v = H.evaluate cfg r in
    let digest =
      String.concat ";"
        (List.map
           (fun (id, t, d) ->
             Printf.sprintf "%d@%d:%s/%d" (Node_id.to_int id) t
               (Fmt.str "%a" Abc.Value.pp d.Abc.Decision.value)
               d.Abc.Decision.round)
           v.Abc.Harness.decisions)
    in
    {
      wall;
      alloc;
      heap;
      deliveries = r.H.E.deliveries;
      duration = r.H.E.duration;
      counters = Metrics.counters r.H.E.metrics;
      nodes = mmr_n;
      attempted = List.length (H.E.honest cfg);
      passed = Abc.Harness.ok v;
      safe = v.Abc.Harness.agreement && v.Abc.Harness.validity;
      digest;
      subset_size = 0.;
      fresh_ratio = 0.;
      epoch_gap = 0.;
      max_round = v.Abc.Harness.max_round;
      trace_events = recorded trace;
    }
end

module Atomic_plain = Atomic_case (Atomic)
module Atomic_timed = Atomic_case (Timed (Atomic_layers) (Atomic))
module Rl_plain = Atomic_case (Reliable_link.Make (Atomic))

(* Transport self time is the outer span minus the inner one. *)
module Rl_timed =
  Atomic_case
    (Timed (Transport_layers) (Reliable_link.Make (Timed (Atomic_layers) (Atomic))))

module Mmr_plain = Mmr_case (Mmr)

module Mmr_timed = Mmr_case (struct
  include Timed (Agreement_layers) (Mmr)

  let value_of_input = Mmr.value_of_input
end)

(* ---------------------------------------------------------------- *)
(* Workloads                                                          *)
(* ---------------------------------------------------------------- *)

type case = {
  cycle : int;
      (** distinct draws per measurement; the counted metrics are taken
          over exactly these runs, so they depend on the seed only, never
          on how many runs the budget admits *)
  setup : draw -> unit;
  run : variant -> draw -> obs;
  layer_of_label : string -> int;  (** slot a wire label's traffic belongs to *)
  outer : int list;  (** slots the outermost wrapper charges *)
  outer_wrap : int;
}

let atomic_case ~cycle spec =
  let lossy = spec.loss > 0. in
  {
    cycle;
    setup = (if lossy then Rl_plain.setup else Atomic_plain.setup) spec;
    run =
      (fun v d ->
        match (v, lossy) with
        | Wrapped, true -> Rl_timed.run spec v d
        | Wrapped, false -> Atomic_timed.run spec v d
        | (Plain | Traced), true -> Rl_plain.run spec v d
        | (Plain | Traced), false -> Atomic_plain.run spec v d);
    layer_of_label = atomic_layer;
    outer = (if lossy then [ transport ] else [ dissemination; agreement; composition ]);
    outer_wrap = (if lossy then wrap_outer else wrap_inner);
  }

let workloads =
  [
    ("atomic-wide", atomic_case ~cycle:6 { n = 16; batch = 64; tx_bytes = 32; loss = 0. });
    ("atomic-bulk", atomic_case ~cycle:10 { n = 7; batch = 1024; tx_bytes = 256; loss = 0. });
    ( "mmr-n256",
      {
        cycle = 8;
        setup = Mmr_plain.setup;
        run =
          (fun v d ->
            match v with
            | Wrapped -> Mmr_timed.run v d
            | Plain | Traced -> Mmr_plain.run v d);
        layer_of_label = (fun _ -> agreement);
        outer = [ agreement ];
        outer_wrap = wrap_inner;
      } );
    ("atomic-lossy", atomic_case ~cycle:2 { n = 7; batch = 64; tx_bytes = 32; loss = 0.05 });
  ]

(* ---------------------------------------------------------------- *)
(* Measurement                                                        *)
(* ---------------------------------------------------------------- *)

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let m = Array.length a in
    if m mod 2 = 1 then a.(m / 2) else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* The deterministic face of a run: what a repeat of its seed, or a
   wrapped or traced run of it, must reproduce exactly. *)
let fingerprint o =
  Printf.sprintf "sent=%d bytes=%d deliveries=%d duration=%d passed=%b logs=%s"
    (counter o "sent") (counter o "bytes.sent") o.deliveries o.duration o.passed
    o.digest

let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

(* Repeated runs of one seed must agree on every count, allocation
   included. *)
let check_repeat ~what ~first o =
  let a = fingerprint first and b = fingerprint o in
  if a <> b then problem "%s: repeat differs:\n  %s\n  %s" what a b
  else if first.alloc <> o.alloc then
    problem "%s: repeat allocated %.0f words, first run %.0f" what o.alloc first.alloc

let check_transparent ~what ~plain o =
  let a = fingerprint plain and b = fingerprint o in
  if a <> b then problem "%s: differs from the plain run:\n  %s\n  %s" what b a

let check_safe ~what o = if not o.safe then problem "%s: safety violated" what

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let count (o : obs) =
  tally.attempted <- tally.attempted + o.attempted;
  if not o.passed then tally.failed <- tally.failed + o.attempted

let now = Unix.gettimeofday

(* Set-up is the input generation and engine configuration a run pays
   before [E.run].  Each of [setup_samples] samples repeats it until at
   least [setup_sample_s] have passed, so a set-up of microseconds is
   still timed well above the clock's resolution; the median sample is
   reported. *)
let setup_samples = 11
let setup_sample_s = 0.1

let setup_s case ~seed =
  median
    (List.init setup_samples (fun r ->
         let d = draw seed (r mod case.cycle) in
         let t0 = now () in
         let rec go reps =
           case.setup d;
           let dt = now () -. t0 in
           if dt < setup_sample_s then go (reps + 1) else dt /. fi reps
         in
         go 1))

(* A run of draw 0 before anything is timed lets lazy set-up
   finish and brings the processor up to speed; its repeats must
   reproduce it. *)
let warm_up case ~seed =
  let warm = case.run Plain (draw seed 0) in
  check_safe ~what:"warm-up" warm;
  warm

(* Runs draws 0 .. cycle-1 round-robin for [seconds], and at least
   [min_runs] times. *)
let run_loop case ~seed ~seconds ~min_runs ~warm ~body =
  let refs = Hashtbl.create 8 in
  let remember k o =
    match Hashtbl.find_opt refs k with
    | None -> Hashtbl.add refs k o
    | Some first -> check_repeat ~what:(Printf.sprintf "draw %d" k) ~first o
  in
  remember 0 warm;
  let start = now () in
  let rec go i =
    if i < min_runs || now () -. start < seconds then begin
      let k = i mod case.cycle in
      body ~remember:(remember k) k (draw seed k);
      go (i + 1)
    end
  in
  go 0

(* Draws differ in length (MMR's rounds follow the coin), and how many
   of them the budget lets run twice depends on the host, so a median
   over all runs would jump between draws.  Each timed metric is
   instead the median over the cycle's draws of each draw's median. *)
let end_to_end case ~seed ~seconds =
  let warm = warm_up case ~seed in
  Gc.full_major ();
  let setup = setup_s case ~seed in
  let runs = Array.make case.cycle [] in
  run_loop case ~seed ~seconds ~min_runs:case.cycle ~warm ~body:(fun ~remember k d ->
      let o = case.run Plain d in
      check_safe ~what:"run" o;
      remember o;
      count o;
      runs.(k) <- o :: runs.(k));
  let per_draw f = median (List.map (fun os -> median (List.map f os)) (Array.to_list runs)) in
  (* Repeats of a draw reproduce its counts, so one run per draw gives
     the counted metrics. *)
  let once f = List.fold_left (fun acc os -> acc + f (List.hd os)) 0 (Array.to_list runs) in
  let committed o = if o.passed then o.attempted else 0 in
  let attempted = fi (once (fun o -> o.attempted)) in
  [
    ("setup_s", setup, "s");
    ("run_s", per_draw (fun o -> o.wall), "s");
    ("ops_per_s", per_draw (fun o -> fi (committed o) /. o.wall), "1/s");
    ("events_per_s", per_draw (fun o -> fi o.deliveries /. o.wall), "1/s");
    ("msgs_per_op", fi (once (fun o -> counter o "sent")) /. attempted, "count");
    ( "bytes_per_op",
      fi (once (fun o -> counter o "bytes.sent")) /. fi warm.nodes /. attempted,
      "B" );
    ( "words_per_delivery",
      fi (once (fun o -> int_of_float o.alloc)) /. fi (once (fun o -> o.deliveries)),
      "words" );
    ("peak_heap_mb", per_draw (fun o -> o.heap) *. fi (Sys.word_size / 8) /. 1048576., "MiB");
  ]

let per_layer case ~seed ~seconds =
  let runs = ref 0 in
  let plain_wall = ref 0. and wrapped_wall = ref 0. and traced_wall = ref 0. in
  let sum_busy = Array.make n_slots 0.
  and sum_words = Array.make n_slots 0.
  and sum_calls = Array.make n_slots 0 in
  let engine_s = ref 0. and engine_words = ref 0. and transport_s = ref 0. in
  let deliveries = ref 0 and timers = ref 0 and max_age = ref 0 in
  let data = ref 0 and retx = ref 0 and acks = ref 0 and dropped = ref 0 in
  let msgs = Array.make n_slots 0 and bytes = Array.make n_slots 0 in
  let subset = ref 0. and fresh = ref 0. and gap = ref 0. and rounds = ref 0 in
  let events = ref 0 in
  let inner = [ dissemination; agreement; composition ] in
  let total slots arr = List.fold_left (fun acc s -> acc +. arr.(s)) 0. slots in
  run_loop case ~seed ~seconds ~min_runs:1 ~warm:(warm_up case ~seed)
    ~body:(fun ~remember _ d ->
      let plain = case.run Plain d in
      check_safe ~what:"run" plain;
      remember plain;
      count plain;
      reset_slots ();
      let wrapped = case.run Wrapped d in
      check_transparent ~what:"wrapped run" ~plain wrapped;
      let traced = case.run Traced d in
      check_transparent ~what:"traced run" ~plain traced;
      incr runs;
      plain_wall := !plain_wall +. plain.wall;
      wrapped_wall := !wrapped_wall +. wrapped.wall;
      traced_wall := !traced_wall +. traced.wall;
      for s = 0 to n_slots - 1 do
        sum_busy.(s) <- sum_busy.(s) +. busy.(s);
        sum_words.(s) <- sum_words.(s) +. words.(s);
        sum_calls.(s) <- sum_calls.(s) + calls.(s)
      done;
      engine_s :=
        !engine_s +. wrapped.wall -. total case.outer busy -. busy.(case.outer_wrap);
      engine_words :=
        !engine_words +. wrapped.alloc -. total case.outer words
        -. words.(case.outer_wrap);
      if case.outer_wrap = wrap_outer then
        transport_s :=
          !transport_s +. busy.(transport) -. total inner busy -. busy.(wrap_inner);
      deliveries := !deliveries + plain.deliveries;
      timers := !timers + counter plain "timer.fired";
      max_age := max !max_age (counter plain "max_delivery_age");
      data := !data + counter plain "sent.rl.data";
      retx := !retx + counter plain "sent.rl.retx";
      acks := !acks + counter plain "sent.rl.ack";
      dropped := !dropped + counter plain "dropped.link";
      List.iter
        (fun (name, v) ->
          let add arr prefix =
            if String.starts_with ~prefix name then begin
              let label = String.sub name (String.length prefix)
                  (String.length name - String.length prefix) in
              let s = case.layer_of_label label in
              arr.(s) <- arr.(s) + v
            end
          in
          add msgs "sent.";
          add bytes "bytes.sent.")
        plain.counters;
      subset := !subset +. plain.subset_size;
      fresh := !fresh +. plain.fresh_ratio;
      gap := !gap +. plain.epoch_gap;
      rounds := !rounds + plain.max_round;
      events := !events + traced.trace_events);
  let per x = x /. fi !runs and per_i x = fi x /. fi !runs in
  let layer name s =
    [
      (name ^ ".busy_s", per sum_busy.(s), "s");
      (name ^ ".calls", per_i sum_calls.(s), "count");
      (name ^ ".us_per_call", 1e6 *. ratio sum_busy.(s) (fi sum_calls.(s)), "us");
      (name ^ ".words_per_call", ratio sum_words.(s) (fi sum_calls.(s)), "words");
      (name ^ ".msgs", per_i msgs.(s), "count");
      (name ^ ".bytes", per_i bytes.(s), "B");
    ]
  in
  let metrics =
    [
      ("engine.self_s", per !engine_s, "s");
      ("engine.ns_per_delivery", 1e9 *. ratio !engine_s (fi !deliveries), "ns");
      ("engine.words_per_delivery", ratio !engine_words (fi !deliveries), "words");
      ("engine.deliveries", per_i !deliveries, "count");
      ("engine.timer_fired", per_i !timers, "count");
      ("engine.max_delivery_age", fi !max_age, "ticks");
      ("transport.self_s", per !transport_s, "s");
      ("transport.data_msgs", per_i !data, "count");
      ("transport.retx_msgs", per_i !retx, "count");
      ("transport.ack_msgs", per_i !acks, "count");
      ("transport.dropped", per_i !dropped, "count");
      ("transport.useful_ratio", ratio (fi !data) (fi (!data + !retx)), "ratio");
    ]
    @ layer "dissemination" dissemination
    @ layer "agreement" agreement
    @ [
        ("agreement.max_round", per_i !rounds, "rounds");
        ("composition.subset_size", per !subset, "batches");
        ("composition.fresh_ratio", per !fresh, "ratio");
        ("composition.epoch_gap_ticks", per !gap, "ticks");
        ("composition.busy_s", per sum_busy.(composition), "s");
        ("instrumentation.trace_overhead", ratio !traced_wall !plain_wall, "ratio");
        ("instrumentation.trace_events", per_i !events, "count");
        ("bench.span_overhead", ratio !wrapped_wall !plain_wall, "ratio");
      ]
  in
  let share x = 100. *. ratio x !wrapped_wall in
  Printf.printf
    "layer shares of wrapped wall time over %d runs: engine %.1f%%, transport \
     %.1f%%, dissemination %.1f%%, agreement %.1f%%, composition %.1f%%, \
     wrapper %.1f%%\n"
    !runs (share !engine_s) (share !transport_s)
    (share sum_busy.(dissemination))
    (share sum_busy.(agreement))
    (share sum_busy.(composition))
    (share (sum_busy.(wrap_inner) +. sum_busy.(wrap_outer)));
  metrics

(* ---------------------------------------------------------------- *)
(* Command line and report                                            *)
(* ---------------------------------------------------------------- *)

(* Seeds 0..1000000 are used as given; any other integer, of any size
   or sign, is folded into that range by a hash of its digits, so that
   [1000 * seed + k] stays far from overflow and the same seed always
   gives the same inputs. *)
let input_seed arg =
  let digits =
    if String.length arg > 1 && arg.[0] = '-' then String.sub arg 1 (String.length arg - 1)
    else arg
  in
  if digits = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') digits) then None
  else
    match int_of_string_opt arg with
    | Some s when s >= 0 && s <= 1_000_000 -> Some s
    | _ -> Some (Hashtbl.hash arg mod 1_000_001)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let report ~correct metrics =
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.attempted tally.failed (String.concat ", " body)

let () =
  let workload = ref "" and seed = ref "" and seconds = ref 0 and trace = ref (-1) in
  let usage = "main.exe --workload NAME --seed N --seconds T --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_string seed, "N input seed (any integer)");
      ("--seconds", Arg.Set_int seconds, "T measured wall-clock budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let case =
    match List.assoc_opt !workload workloads with
    | Some case -> case
    | None ->
      fail
        (Printf.sprintf "unknown workload %S (one of: %s)" !workload
           (String.concat ", " (List.map fst workloads)))
  in
  let seed =
    match input_seed !seed with Some s -> s | None -> fail "--seed must be an integer"
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let seconds = fi !seconds in
  let metrics =
    if !trace = 0 then end_to_end case ~seed ~seconds
    else per_layer case ~seed ~seconds
  in
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) (List.rev !problems);
  let correct = !problems = [] in
  report ~correct metrics;
  if not correct then exit 1
