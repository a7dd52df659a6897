module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
module Topology = Abc_net.Topology
module Link_faults = Abc_net.Link_faults
module Pool = Abc_exec.Pool
module Table = Abc_sim.Table
module Json = Abc_sim.Json
module Metrics = Abc_sim.Metrics

module B = Abc.Bracha_consensus
module BO = Abc.Ben_or
module Mmr = Abc.Mmr_consensus
module Bracha_str = Abc.Bracha_rbc.Make (Abc.Payloads.String_payload)
module Ir_str = Abc.Ir_rbc.Make (Abc.Payloads.String_payload)
module Atomic = Abc_smr.Atomic_broadcast
module AtomE = Abc_net.Engine.Make (Atomic)

(* ----------------------------------------------------------------- *)
(* Cell configuration                                                *)
(* ----------------------------------------------------------------- *)

let node = Node_id.of_int

let cell_label cell =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) (Spec.cell_key cell))

let bad cell fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "matrix cell [%s]: %s" (cell_label cell) msg))
    fmt

(* Token splitting for parameterized axis values like [latency:8] or
   [circulant:1,2]. *)
let token_parts s = String.split_on_char ':' s

let adversary cell ~n token =
  match token_parts token with
  | [ "fifo" ] -> Adversary.fifo
  | [ "uniform" ] -> Adversary.uniform
  | [ "split" ] -> Adversary.split ~n
  | [ "latency"; mean ] -> (
    match float_of_string_opt mean with
    | Some m when m > 0. -> Adversary.latency ~mean:m
    | _ -> bad cell "latency wants a positive mean, got %S" mean)
  | [ "target"; id ] -> (
    match int_of_string_opt id with
    | Some i when i >= 0 && i < n -> Adversary.targeted_delay ~victims:[ node i ]
    | _ -> bad cell "target wants a node id below n, got %S" id)
  | [ "source"; id ] -> (
    match int_of_string_opt id with
    | Some i when i >= 0 && i < n -> Adversary.source_starve ~victims:[ node i ]
    | _ -> bad cell "source wants a node id below n, got %S" id)
  | [ "eclipse"; period ] -> (
    match int_of_string_opt period with
    | Some p when p > 0 -> Adversary.rotating_eclipse ~n ~period:p
    | _ -> bad cell "eclipse wants a positive period, got %S" period)
  | _ -> bad cell "unknown adversary %S" token

let topology cell ~n token =
  match token_parts token with
  | [ "complete" ] -> None
  | [ "ring" ] -> Some (Topology.ring ~n)
  | [ "star" ] -> Some (Topology.star ~n)
  | [ "circulant"; offsets ] -> (
    let parts = String.split_on_char ',' offsets in
    match List.map int_of_string_opt parts with
    | offs when List.for_all (fun o -> o <> None) offs ->
      Some (Topology.circulant ~n ~offsets:(List.filter_map Fun.id offs))
    | _ -> bad cell "circulant wants comma-separated offsets, got %S" offsets)
  | _ -> bad cell "unknown topology %S" token

let link_faults ~loss ~dup =
  if loss = 0. && dup = 0. then None
  else Some (Link_faults.make ~name:"matrix" ~drop:loss ~dup ())

let counted cell token =
  match token_parts token with
  | [ kind ] -> (kind, 1)
  | [ kind; k ] -> (
    match int_of_string_opt k with
    | Some count when count >= 0 -> (kind, count)
    | _ -> bad cell "fault count must be a non-negative integer, got %S" k)
  | _ -> bad cell "unknown fault %S" token

let tail_faults ~n ~count behaviour =
  List.init count (fun k -> (node (n - 1 - k), behaviour))

let balanced_ids ~n ~count =
  List.init count (fun k -> if k mod 2 = 0 then k / 2 else n - 1 - (k / 2))

(* Consensus fault battery: the highest-numbered [count] nodes
   misbehave, except [balanced-flip], which splits the liars across
   the two input halves (the bench's hardest placement, E3/E4/E6/E10). *)
let consensus_faults (type msg) cell ~n ~token
    ~(flip : Abc_prng.Stream.t -> msg -> msg)
    ~(equivocate : Abc_prng.Stream.t -> dst:Node_id.t -> msg -> msg)
    ~(force : (Abc_prng.Stream.t -> msg -> msg) option) :
    (Node_id.t * msg Behaviour.t) list =
  match counted cell token with
  | "none", _ -> []
  | "silent", count -> tail_faults ~n ~count Behaviour.Silent
  | "crash", count -> tail_faults ~n ~count (Behaviour.Crash_after 5)
  | "flip", count -> tail_faults ~n ~count (Behaviour.Mutate flip)
  | "balanced-flip", count ->
    List.map (fun i -> (node i, Behaviour.Mutate flip)) (balanced_ids ~n ~count)
  | "equivocate", count -> tail_faults ~n ~count (Behaviour.Equivocate equivocate)
  | "force-decide", count -> (
    match force with
    | Some force -> tail_faults ~n ~count (Behaviour.Mutate force)
    | None -> bad cell "force-decide is only defined for bracha")
  | kind, _ -> bad cell "unknown consensus fault %S" kind

let flip_payload _rng s = "!" ^ s

let two_faced ~n _rng ~dst s =
  if Node_id.to_int dst < n / 2 then s else "!" ^ s

(* RBC fault battery, mirroring E1's placements: the designated sender
   is node 0; [flip-relay] keeps the sender honest and corrupts a
   relay instead.  [corrupt] carries the protocol's (relay mutation,
   sender equivocation) pair; only Bracha's broadcast supplies one. *)
let rbc_faults cell ~token ~corrupt =
  match (token, corrupt) with
  | "none", _ -> []
  | "silent-sender", _ -> [ (node 0, Behaviour.Silent) ]
  | "crash-sender", _ -> [ (node 0, Behaviour.Crash_after 2) ]
  | "flip-relay", Some (flip, _) -> [ (node 1, Behaviour.Mutate flip) ]
  | "equivocate-sender", Some (_, equivocate) ->
    [ (node 0, Behaviour.Equivocate equivocate) ]
  | ("flip-relay" | "equivocate-sender"), None ->
    bad cell "fault %S is only wired up for bracha-rbc" token
  | _ -> bad cell "unknown rbc fault %S" token

let crash_schedules cell token =
  if token = "none" then []
  else
    List.map
      (fun part ->
        match token_parts part with
        | [ i; down; up ] -> (
          match
            (int_of_string_opt i, int_of_string_opt down, int_of_string_opt up)
          with
          | Some i, Some down, Some up when i >= 0 && 0 <= down && down < up ->
            (i, [ (down, up) ])
          | _ -> bad cell "crash wants id:down:up with down < up, got %S" part)
        | _ -> bad cell "crash wants id:down:up, got %S" part)
      (String.split_on_char ',' token)

let inputs_pattern cell ~n token =
  match token with
  | "split" ->
    Array.init n (fun i -> if i < n / 2 then Abc.Value.Zero else Abc.Value.One)
  | "unanimous0" -> Array.make n Abc.Value.Zero
  | "unanimous1" -> Array.make n Abc.Value.One
  | _ -> bad cell "unknown inputs pattern %S" token

let payload_bytes ~bytes ~seed =
  String.init bytes (fun i -> Char.chr ((seed + (131 * i)) land 0xFF))

(* ----------------------------------------------------------------- *)
(* One seed of one cell                                              *)
(* ----------------------------------------------------------------- *)

type outcome = {
  decided : bool;
  agreement : bool;
  validity : bool;
  totality : bool;
  o_rounds : int;
  o_messages : int;
  o_bytes : int;
  o_ticks : int;
  o_committed : int;
  o_deliveries : int;
  o_gc_stats : (int * int * int) option;
  o_rejoin_latency : int option;
}

let failed_outcome =
  {
    decided = false;
    agreement = false;
    validity = false;
    totality = false;
    o_rounds = 0;
    o_messages = 0;
    o_bytes = 0;
    o_ticks = 0;
    o_committed = 0;
    o_deliveries = 0;
    o_gc_stats = None;
    o_rejoin_latency = None;
  }

type cfg = {
  protocol : string;
  n : int;
  f : int;
  seeds : int;
  adversary_tok : string;
  fault_tok : string;
  topology_tok : string;
  inputs_tok : string;
  loss : float;
  dup : float;
  payload : int;
  budget : int option;
  batch : int;
  epochs : int;
  window : int;
  checkpoint : int;
  crash_tok : string;
}

let cfg_of_cell cell =
  {
    protocol = Spec.find_str cell "protocol" ~default:"";
    n = Spec.find_int cell "n" ~default:0;
    f = Spec.find_int cell "f" ~default:0;
    seeds = max 1 (Spec.find_int cell "seeds" ~default:10);
    adversary_tok = Spec.find_str cell "adversary" ~default:"uniform";
    fault_tok = Spec.find_str cell "fault" ~default:"none";
    topology_tok = Spec.find_str cell "topology" ~default:"complete";
    inputs_tok = Spec.find_str cell "inputs" ~default:"split";
    loss = Spec.find_num cell "loss" ~default:0.;
    dup = Spec.find_num cell "dup" ~default:0.;
    payload = Spec.find_int cell "payload" ~default:64;
    budget =
      (match Spec.find_int cell "budget" ~default:0 with
      | 0 -> None
      | b -> Some b);
    batch = Spec.find_int cell "batch" ~default:16;
    epochs = Spec.find_int cell "epochs" ~default:2;
    window = Spec.find_int cell "window" ~default:2;
    checkpoint = Spec.find_int cell "checkpoint" ~default:0;
    crash_tok = Spec.find_str cell "crash" ~default:"none";
  }

(* One Harness-judged binary-consensus run.  The functor argument is
   the protocol; each token's dispatch arm supplies its inputs and
   fault battery. *)
module Consensus (P : Abc.Harness.CONSENSUS) = struct
  module H = Abc.Harness.Make (P)

  let run cell cfg ~inputs ~faulty ~seed =
    let config =
      H.E.config ~n:cfg.n ~f:cfg.f ~inputs ~faulty
        ~adversary:(adversary cell ~n:cfg.n cfg.adversary_tok)
        ?topology:(topology cell ~n:cfg.n cfg.topology_tok)
        ?link_faults:(link_faults ~loss:cfg.loss ~dup:cfg.dup)
        ?max_deliveries:cfg.budget ~seed ()
    in
    let result, v = H.run config in
    {
      failed_outcome with
      decided = v.Abc.Harness.terminated;
      agreement = v.Abc.Harness.agreement;
      validity = v.Abc.Harness.validity;
      totality = true;
      o_rounds = v.Abc.Harness.max_round;
      o_messages = v.Abc.Harness.messages;
      o_bytes = Metrics.counter result.H.E.metrics "bytes.sent";
      o_ticks = v.Abc.Harness.duration;
      o_deliveries = v.Abc.Harness.deliveries;
    }
end

module Bracha_run = Consensus (B)
module Ben_or_run = Consensus (BO)
module Mmr_run = Consensus (Mmr)

module Bracha_rl_run = Consensus (struct
  include Abc_net.Reliable_link.Make (B)

  let value_of_input = B.value_of_input
end)

let honest_of_faulty ~n faulty =
  let ids = List.map fst faulty in
  List.filter
    (fun id -> not (List.exists (Node_id.equal id) ids))
    (Node_id.all ~n)

(* One reliable broadcast of a [payload]-byte string from node 0,
   judged the way E1 does: validity/agreement/totality over the honest
   nodes' [Delivered] outputs. *)
module Broadcast (P : sig
  include Abc_net.Protocol.S

  val inputs : n:int -> sender:Node_id.t -> string -> input array

  val delivered : output -> string
end) =
struct
  module E = Abc_net.Engine.Make (P)

  let run cell cfg ~faulty ~seed =
    let payload = payload_bytes ~bytes:cfg.payload ~seed in
    let config =
      E.config ~n:cfg.n ~f:cfg.f
        ~inputs:(P.inputs ~n:cfg.n ~sender:(node 0) payload)
        ~faulty
        ~adversary:(adversary cell ~n:cfg.n cfg.adversary_tok)
        ?topology:(topology cell ~n:cfg.n cfg.topology_tok)
        ?link_faults:(link_faults ~loss:cfg.loss ~dup:cfg.dup)
        ?max_deliveries:cfg.budget ~seed ()
    in
    let result = E.run config in
    let honest = honest_of_faulty ~n:cfg.n faulty in
    let delivered =
      List.filter_map
        (fun id ->
          match result.E.outputs.(Node_id.to_int id) with
          | [ (_, out) ] -> Some (P.delivered out)
          | _ -> None)
        honest
    in
    let count = List.length delivered in
    let all = count = List.length honest in
    let sender_honest = List.exists (Node_id.equal (node 0)) honest in
    {
      failed_outcome with
      decided = all;
      agreement =
        (match delivered with
        | v :: rest -> List.for_all (String.equal v) rest
        | [] -> true);
      validity =
        (not sender_honest) || List.for_all (String.equal payload) delivered;
      totality = count = 0 || all;
      o_messages = Metrics.counter result.E.metrics "sent";
      o_bytes = Metrics.counter result.E.metrics "bytes.sent";
      o_ticks = result.E.duration;
      o_deliveries = result.E.deliveries;
    }
end

module Bracha_rbc_run = Broadcast (struct
  include Bracha_str

  let delivered (Delivered v) = v
end)

module Coded_rbc_run = Broadcast (struct
  include Abc.Coded_rbc

  let delivered (Delivered v) = v
end)

module Ir_rbc_run = Broadcast (struct
  include Ir_str

  let delivered (Delivered v) = v
end)

(* Every [Some] log equals every other: a replica without a log (it did
   not finish) constrains nothing, wherever it sits in the list. *)
let logs_agree logs =
  match List.filter_map Fun.id logs with
  | first :: rest -> List.for_all (( = ) first) rest
  | [] -> true

let run_atomic cell cfg ~seed =
  let mempools =
    Array.init cfg.n (fun i ->
        Abc_smr.Workload.txs
          (Abc_smr.Workload.generate ~seed ~node:(node i)
             ~count:(cfg.batch * cfg.epochs) ~rate:1.0 ~tx_bytes:cfg.payload))
  in
  let crash = crash_schedules cell cfg.crash_tok in
  let faulty =
    (match counted cell cfg.fault_tok with
    | "none", _ -> []
    | "silent", count -> tail_faults ~n:cfg.n ~count Behaviour.Silent
    | kind, _ -> bad cell "unknown atomic fault %S" kind)
    @ List.map (fun (i, plan) -> (node i, Behaviour.Crash_recover plan)) crash
  in
  let recovery =
    { AtomE.snapshot = Atomic.snapshot; restore = Atomic.restore }
  in
  let config =
    AtomE.config ~n:cfg.n ~f:cfg.f
      ~inputs:
        (Atomic.inputs ~n:cfg.n ~window:cfg.window
           ~checkpoint_interval:cfg.checkpoint ~batch_size:cfg.batch
           ~epochs:cfg.epochs ~coin_seed:(seed + 7919) mempools)
      ~faulty
      ~adversary:(adversary cell ~n:cfg.n cfg.adversary_tok)
      ?topology:(topology cell ~n:cfg.n cfg.topology_tok)
      ?link_faults:(link_faults ~loss:cfg.loss ~dup:cfg.dup)
      ?max_deliveries:cfg.budget ~recovery ~seed ()
  in
  let result = AtomE.run config in
  let honest = honest_of_faulty ~n:cfg.n faulty in
  let crash_ids = List.map (fun (i, _) -> node i) crash in
  let correct =
    honest @ List.filter (fun id -> not (List.mem id honest)) crash_ids
  in
  let logs =
    List.map (fun id -> Atomic.log_of_outputs result.AtomE.outputs.(Node_id.to_int id)) correct
  in
  (* The watched replica is the first crash-recovered one (node 0 when
     nothing crashes); its rejoin latency is the ticks from its rejoin
     to its first commit progress — [Epoch_committed] for a live epoch,
     or [Log_complete] when state transfer delivered the tail whole. *)
  let watched, rejoin =
    match crash with (i, [ (_, up) ]) :: _ -> (i, Some up) | _ -> (0, None)
  in
  let outputs = result.AtomE.outputs.(watched) in
  let rejoin_latency up =
    List.fold_left
      (fun acc (t, out) ->
        match out with
        | (Atomic.Epoch_committed _ | Atomic.Log_complete _) when t >= up ->
          Some (match acc with None -> t - up | Some x -> min x (t - up))
        | _ -> acc)
      None outputs
  in
  {
    decided =
      result.AtomE.stop = Abc_net.Engine.All_terminal
      && List.for_all (fun l -> l <> None) logs;
    agreement = logs_agree logs;
    validity = true;
    totality = true;
    o_rounds = 0;
    o_messages = Metrics.counter result.AtomE.metrics "sent";
    o_bytes = Metrics.counter result.AtomE.metrics "bytes.sent";
    o_ticks = result.AtomE.duration;
    o_committed =
      (match List.find_map Fun.id logs with Some l -> List.length l | None -> 0);
    o_deliveries = result.AtomE.deliveries;
    o_gc_stats = Atomic.stats_of_outputs outputs;
    o_rejoin_latency = Option.bind rejoin rejoin_latency;
  }

let dispatch cell cfg ~seed =
  let n = cfg.n and token = cfg.fault_tok in
  let values () = inputs_pattern cell ~n cfg.inputs_tok in
  let bracha options =
    Bracha_run.run cell cfg ~seed
      ~inputs:(B.inputs ~n ~options (values ()))
      ~faulty:
        (consensus_faults cell ~n ~token ~flip:B.Fault.flip_value
           ~equivocate:(B.Fault.equivocate_by_half ~n)
           ~force:(Some B.Fault.force_decide))
  in
  match cfg.protocol with
  | "bracha" -> bracha B.Options.default
  | "bracha-cc" -> bracha (B.Options.with_common_coin ~seed:7)
  | "bracha-rl" ->
    if token <> "none" then bad cell "bracha-rl cells only support fault none";
    Bracha_rl_run.run cell cfg ~seed ~faulty:[]
      ~inputs:(B.inputs ~n ~options:B.Options.default (values ()))
  | "ben-or" ->
    Ben_or_run.run cell cfg ~seed
      ~inputs:
        (BO.inputs ~n ~mode:BO.Mode.Byzantine ~coin:Abc.Coin.local (values ()))
      ~faulty:
        (consensus_faults cell ~n ~token ~flip:BO.Fault.flip_value
           ~equivocate:(BO.Fault.equivocate_by_half ~n) ~force:None)
  | "mmr" ->
    Mmr_run.run cell cfg ~seed
      ~inputs:(Mmr.inputs ~n ~coin:(Abc.Coin.common ~seed:7) (values ()))
      ~faulty:
        (consensus_faults cell ~n ~token ~flip:Mmr.Fault.flip_value
           ~equivocate:(Mmr.Fault.equivocate_by_half ~n) ~force:None)
  | "bracha-rbc" ->
    Bracha_rbc_run.run cell cfg ~seed
      ~faulty:
        (rbc_faults cell ~token
           ~corrupt:
             (Some
                ( Bracha_str.Fault.substitute flip_payload,
                  Bracha_str.Fault.equivocate (two_faced ~n) )))
  | "coded-rbc" ->
    Coded_rbc_run.run cell cfg ~seed ~faulty:(rbc_faults cell ~token ~corrupt:None)
  | "ir-rbc" ->
    Ir_rbc_run.run cell cfg ~seed ~faulty:(rbc_faults cell ~token ~corrupt:None)
  | "atomic" -> run_atomic cell cfg ~seed
  | p -> bad cell "unknown protocol %S" p

(* A beyond-resilience (n, f) is rejected by the protocol's own quorum
   assertion at init.  For the matrix that IS the run's failure mode —
   an [expect-fail] cell passes on it, a [decide] cell fails — so only
   that specific rejection becomes a failed outcome; every other
   [Invalid_argument] (unknown token, bad axis combination) stays an
   error. *)
let run_seed cell ~seed =
  match dispatch cell (cfg_of_cell cell) ~seed with
  | outcome -> outcome
  | exception Invalid_argument msg
    when String.length msg >= 7 && String.sub msg 0 7 = "Quorum." ->
    failed_outcome

(* ----------------------------------------------------------------- *)
(* Oracles                                                           *)
(* ----------------------------------------------------------------- *)

let decides o = o.decided && o.agreement && o.validity

let satisfies oracle o =
  match oracle with
  | Spec.Decide | Spec.Expect_fail -> decides o
  | Spec.Agree -> o.agreement && o.validity
  | Spec.Deliver_all -> o.decided && o.agreement && o.totality
  | Spec.Live_within b -> decides o && o.o_ticks <= b
  | Spec.Any -> true

let cell_pass oracle ~ok ~total =
  match oracle with
  | Spec.Expect_fail -> ok < total
  | Spec.Any -> true
  | Spec.Decide | Spec.Agree | Spec.Deliver_all | Spec.Live_within _ ->
    ok = total

(* ----------------------------------------------------------------- *)
(* Pool fan-out and aggregation                                      *)
(* ----------------------------------------------------------------- *)

type cell_metrics = {
  ok_rate : float;
  rounds : float;
  messages : float;
  bytes : float;
  ticks : float;
  committed : float;
  wall_s : float;
}

type cell_result = {
  cell : Spec.cell;
  pass : bool;
  metrics : cell_metrics;
}

type t = { spec : Spec.t; cells : cell_result list }

let scaled_seeds ~seeds_scale s =
  max 1 (int_of_float (float_of_int s *. seeds_scale))

let run ?clock ?(seeds_scale = 1.) ~pool spec =
  let cells = Spec.expand spec in
  let jobs =
    (* One job per (cell, seed), flattened in cell order: the merge is
       index-ordered, so regrouping below is deterministic at any
       worker count. *)
    List.concat_map
      (fun cell ->
        let seeds = scaled_seeds ~seeds_scale (cfg_of_cell cell).seeds in
        List.init seeds (fun seed -> (cell, seed)))
      cells
  in
  let job_array = Array.of_list jobs in
  let outcomes =
    Pool.map pool (Array.length job_array) (fun i ->
        let cell, seed = job_array.(i) in
        match clock with
        | None -> (run_seed cell ~seed, 0.)
        | Some now ->
          let t0 = now () in
          let o = run_seed cell ~seed in
          (o, now () -. t0))
  in
  let cursor = ref 0 in
  let results =
    List.map
      (fun cell ->
        let seeds = scaled_seeds ~seeds_scale (cfg_of_cell cell).seeds in
        let mine = Array.sub outcomes !cursor seeds in
        cursor := !cursor + seeds;
        let total = Array.length mine in
        let ok =
          Array.fold_left
            (fun acc (o, _) -> if satisfies cell.Spec.oracle o then acc + 1 else acc)
            0 mine
        in
        let decide_ok =
          Array.fold_left
            (fun acc (o, _) -> if decides o then acc + 1 else acc)
            0 mine
        in
        let meanf field =
          Array.fold_left (fun acc (o, _) -> acc +. float_of_int (field o)) 0. mine
          /. float_of_int total
        in
        let wall =
          Array.fold_left (fun acc (_, w) -> acc +. w) 0. mine
        in
        {
          cell;
          pass = cell_pass cell.Spec.oracle ~ok ~total;
          metrics =
            {
              ok_rate = float_of_int decide_ok /. float_of_int total;
              rounds = meanf (fun o -> o.o_rounds);
              messages = meanf (fun o -> o.o_messages);
              bytes = meanf (fun o -> o.o_bytes);
              ticks = meanf (fun o -> o.o_ticks);
              committed = meanf (fun o -> o.o_committed);
              wall_s = wall;
            };
        })
      cells
  in
  { spec; cells = results }

let passed t = List.for_all (fun c -> c.pass) t.cells

let failures t = List.filter (fun c -> not c.pass) t.cells

(* ----------------------------------------------------------------- *)
(* Rendering                                                         *)
(* ----------------------------------------------------------------- *)

let round2 x = Float.of_string (Printf.sprintf "%.2f" x)

let table t =
  let axes = Spec.axes t.spec in
  let tbl =
    Table.create ~id:(Spec.id t.spec) ~title:(Spec.title t.spec)
      ~columns:
        (axes @ [ "expect"; "verdict"; "ok"; "rounds"; "msgs"; "bytes"; "ticks" ])
      ()
  in
  List.iter
    (fun c ->
      let key = Spec.cell_key c.cell in
      Table.add_row tbl
        (List.map (fun a -> List.assoc a key) axes
        @ [
            Spec.oracle_label c.cell.Spec.oracle;
            (if c.pass then "pass" else "FAIL");
            Table.cell_percent c.metrics.ok_rate;
            Table.cell_float c.metrics.rounds;
            Table.cell_float ~decimals:0 c.metrics.messages;
            Table.cell_float ~decimals:0 c.metrics.bytes;
            Table.cell_float ~decimals:0 c.metrics.ticks;
          ]))
    t.cells;
  tbl

let matrix_schema_version = 1

let to_json ~seeds_scale t =
  let cell_json c =
    Json.Obj
      [
        ( "key",
          Json.Obj
            (List.map (fun (k, v) -> (k, Json.String v)) (Spec.cell_key c.cell))
        );
        ("expect", Json.String (Spec.oracle_label c.cell.Spec.oracle));
        ("pass", Json.Bool c.pass);
        ("ok_rate", Json.Float (round2 c.metrics.ok_rate));
        ("rounds", Json.Float (round2 c.metrics.rounds));
        ("messages", Json.Float (round2 c.metrics.messages));
        ("bytes", Json.Float (round2 c.metrics.bytes));
        ("ticks", Json.Float (round2 c.metrics.ticks));
        ("committed", Json.Float (round2 c.metrics.committed));
        ("wall_s", Json.Float (round2 c.metrics.wall_s));
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "abc.bench.matrix");
      ("version", Json.Int matrix_schema_version);
      ("id", Json.String (Spec.id t.spec));
      ("title", Json.String (Spec.title t.spec));
      ("tier", Json.String (Spec.tier_label (Spec.tier t.spec)));
      ("axes", Json.List (List.map (fun a -> Json.String a) (Spec.axes t.spec)));
      ("cells", Json.List (List.map cell_json t.cells));
      (* Only inputs that change the numbers belong in meta: the worker
         count does not (the export is byte-identical at any --jobs),
         and recording it would break exactly that contract. *)
      ("meta", Json.Obj [ ("seeds_scale", Json.Float seeds_scale) ]);
    ]
