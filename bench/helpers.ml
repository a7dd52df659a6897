(* Shared machinery for the experiment harness: runner cells and the
   samplers every table in main.ml builds on. *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
module Summary = Abc_sim.Summary
module Table = Abc_sim.Table
module Pool = Abc_exec.Pool
module Spec = Abc_matrix.Spec
module Runner = Abc_matrix.Runner
module B = Abc.Bracha_consensus

module BH = Abc.Harness.Make (struct
  include B

  let value_of_input = B.value_of_input
end)

let node = Node_id.of_int

let bracha_max_f n = (n - 1) / 3

let benor_max_f n = (n - 1) / 5

(* Input patterns *)

let unanimous n v = Array.make n v

let split_inputs n =
  Array.init n (fun i -> if i < n / 2 then Abc.Value.Zero else Abc.Value.One)

(* A matrix-runner cell: protocol token, n and f, plus further
   [(axis, value)] pairs.  Axes left out take the runner's defaults
   (uniform scheduler, no faults, split inputs). *)
let cell protocol ~n ~f axes =
  Spec.cell_of
    (("protocol", Spec.Str protocol) :: ("n", Spec.Int n) :: ("f", Spec.Int f)
   :: axes)

(* Sampling helpers *)

(* Run one job per seed on the pool and return the per-seed results in
   seed order.  The job closure must build all engine/PRNG/trace state
   itself (Engine.run allocates everything per call from the seed), so
   nothing is shared across domains and the merged list is
   byte-identical at any worker count. *)
let sweep_seeds pool ~seeds f = Array.to_list (Pool.map pool seeds f)

(* Seeds 0 .. seeds-1 of one runner cell. *)
let outcomes pool ~seeds cell =
  sweep_seeds pool ~seeds (fun seed -> Runner.run_seed cell ~seed)

type sample = {
  ok_rate : float;
  rounds : Summary.t option; (* over successful runs *)
  messages : Summary.t option;
}

let summarize ~ok ~rounds ~messages runs =
  let oks = List.filter ok runs in
  let pick f = Summary.of_list (List.map (fun r -> float_of_int (f r)) oks) in
  {
    ok_rate = float_of_int (List.length oks) /. float_of_int (List.length runs);
    rounds = pick rounds;
    messages = pick messages;
  }

(* Over Harness verdicts, for the tables no runner token covers. *)
let collect verdicts =
  summarize ~ok:Abc.Harness.ok
    ~rounds:(fun v -> v.Abc.Harness.max_round)
    ~messages:(fun v -> v.Abc.Harness.messages)
    verdicts

(* Over runner outcomes. *)
let summarize_outcomes runs =
  summarize ~ok:Runner.decides
    ~rounds:(fun o -> o.Runner.o_rounds)
    ~messages:(fun o -> o.Runner.o_messages)
    runs

let sample pool ~seeds cell = summarize_outcomes (outcomes pool ~seeds cell)

(* E7's ablation runs Bracha with non-default transport and validation
   options, which no runner token covers. *)
let sample_bracha ~options ~faulty ~max_deliveries ~pool ~n ~f ~seeds values =
  collect
    (sweep_seeds pool ~seeds (fun seed ->
         let inputs = B.inputs ~n ~options values in
         snd
           (BH.run
              (BH.E.config ~n ~f ~inputs ~faulty ~adversary:Adversary.uniform
                 ~seed ~max_deliveries ()))))

let mean_or summary default =
  match summary with Some s -> Summary.mean s | None -> default

let p95_or summary default =
  match summary with Some s -> Summary.percentile s 95. | None -> default

let max_or summary default =
  match summary with Some s -> Summary.max_value s | None -> default

(* Log-log slope fit for complexity experiments: least squares on
   (log n, log y). *)
let fitted_exponent points =
  let logs = List.map (fun (n, y) -> (log (float_of_int n), log y)) points in
  let k = float_of_int (List.length logs) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. logs in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. logs in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. logs in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. logs in
  ((k *. sxy) -. (sx *. sy)) /. ((k *. sxx) -. (sx *. sx))
