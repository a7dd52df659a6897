(* Unit tests for the smaller core components: values, coins, the
   consensus message vocabulary, the RBC multiplexer, BA instances and
   payloads. *)

module Node_id = Abc_net.Node_id
module Value = Abc.Value
module Coin = Abc.Coin
module M = Abc.Consensus_msg
module Mux = Abc.Rbc_mux
module Ba = Abc.Ba_instance

let node = Node_id.of_int

let rng ?(seed = 1) () = Abc_prng.Stream.root ~seed

(* ---- Value ---- *)

let test_value_basics () =
  Alcotest.(check int) "zero" 0 (Value.to_int Value.zero);
  Alcotest.(check int) "one" 1 (Value.to_int Value.one);
  Alcotest.(check bool) "negate zero" true (Value.equal (Value.negate Value.Zero) Value.One);
  Alcotest.(check bool) "negate one" true (Value.equal (Value.negate Value.One) Value.Zero);
  Alcotest.(check bool) "of_bool" true (Value.equal (Value.of_bool true) Value.One);
  Alcotest.(check bool) "of_int 7" true (Value.equal (Value.of_int 7) Value.One);
  Alcotest.(check bool) "to_bool" false (Value.to_bool Value.Zero);
  Alcotest.(check int) "compare" (-1) (Value.compare Value.Zero Value.One);
  Alcotest.(check string) "pp" "1" (Fmt.str "%a" Value.pp Value.One)

(* ---- Coin ---- *)

let test_local_coin_uses_rng () =
  (* Same stream, same draws. *)
  let a = rng () and b = rng () in
  for round = 1 to 50 do
    Alcotest.(check bool) "deterministic per stream" true
      (Value.equal
         (Coin.flip Coin.local ~rng:a ~round)
         (Coin.flip Coin.local ~rng:b ~round))
  done

let test_local_coin_roughly_fair () =
  let s = rng ~seed:3 () in
  let ones = ref 0 in
  for round = 1 to 10_000 do
    if Value.equal (Coin.flip Coin.local ~rng:s ~round) Value.One then incr ones
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fair (got %d/10000)" !ones)
    true
    (!ones > 4800 && !ones < 5200)

let test_common_coin_identical_across_nodes () =
  let coin = Coin.common ~seed:9 in
  for round = 1 to 100 do
    let a = Coin.flip coin ~rng:(rng ~seed:1 ()) ~round in
    let b = Coin.flip coin ~rng:(rng ~seed:2 ()) ~round in
    Alcotest.(check bool) "same bit at every node" true (Value.equal a b)
  done

let test_common_coin_varies_with_round () =
  let coin = Coin.common ~seed:9 in
  let bits =
    List.init 64 (fun round -> Value.to_int (Coin.flip coin ~rng:(rng ()) ~round))
  in
  let ones = List.fold_left ( + ) 0 bits in
  Alcotest.(check bool)
    (Printf.sprintf "not constant (%d ones in 64)" ones)
    true
    (ones > 16 && ones < 48)

let test_common_coin_varies_with_seed () =
  let flips seed =
    List.init 64 (fun round ->
        Value.to_int (Coin.flip (Coin.common ~seed) ~rng:(rng ()) ~round))
  in
  Alcotest.(check bool) "seed changes sequence" false (flips 1 = flips 2)

let test_coin_labels () =
  Alcotest.(check string) "local" "local" (Coin.label Coin.local);
  Alcotest.(check string) "common" "common" (Coin.label (Coin.common ~seed:1))

(* ---- Consensus_msg ---- *)

let test_step_order () =
  Alcotest.(check int) "s1" 1 (M.Step.to_int M.Step.S1);
  Alcotest.(check bool) "s1 < s3" true (M.Step.compare M.Step.S1 M.Step.S3 < 0);
  Alcotest.(check bool) "equal" true (M.Step.equal M.Step.S2 M.Step.S2)

let test_key_ordering_and_pp () =
  let k1 = { M.Key.origin = node 0; round = 1; step = M.Step.S1 } in
  let k2 = { M.Key.origin = node 0; round = 2; step = M.Step.S1 } in
  let k3 = { M.Key.origin = node 1; round = 1; step = M.Step.S1 } in
  Alcotest.(check bool) "round orders" true (M.Key.compare k1 k2 < 0);
  Alcotest.(check bool) "origin orders first" true (M.Key.compare k2 k3 < 0);
  Alcotest.(check bool) "equal" true (M.Key.equal k1 k1);
  Alcotest.(check string) "pp" "n0/r1/s1" (Fmt.str "%a" M.Key.pp k1)

let test_vmsg_roundtrip () =
  let key = { M.Key.origin = node 3; round = 2; step = M.Step.S3 } in
  let payload = { M.Payload.value = Value.One; decide = true } in
  let v = M.vmsg_of_delivery key payload in
  Alcotest.(check bool) "key roundtrip" true (M.Key.equal key (M.key_of_vmsg v));
  Alcotest.(check bool) "payload roundtrip" true
    (M.Payload.equal payload (M.payload_of_vmsg v));
  Alcotest.(check string) "pp" "n3/r2/s3=d:1" (Fmt.str "%a" M.pp_vmsg v)

let test_payload_compare () =
  let p1 = { M.Payload.value = Value.Zero; decide = false } in
  let p2 = { M.Payload.value = Value.Zero; decide = true } in
  let p3 = { M.Payload.value = Value.One; decide = false } in
  Alcotest.(check bool) "decide orders" true (M.Payload.compare p1 p2 < 0);
  Alcotest.(check bool) "value orders first" true (M.Payload.compare p2 p3 < 0)

(* ---- Rbc_mux ---- *)

let key ?(origin = 0) ?(round = 1) ?(step = M.Step.S1) () =
  { M.Key.origin = node origin; round; step }

let payload ?(value = Value.One) ?(decide = false) () = { M.Payload.value; decide }

let test_mux_routes_to_instances () =
  let mux = Mux.create ~n:4 ~f:1 in
  let wire = Mux.broadcast_own (key ()) (payload ()) in
  let mux, out, delivery = Mux.handle mux ~src:(node 0) wire in
  Alcotest.(check int) "one instance" 1 (Mux.instances mux);
  Alcotest.(check int) "echo emitted" 1 (List.length out);
  Alcotest.(check bool) "echo in same instance" true
    (M.Key.equal (List.hd out).Mux.key (key ()));
  Alcotest.(check bool) "no delivery yet" true (delivery = None)

let test_mux_separate_instances () =
  let mux = Mux.create ~n:4 ~f:1 in
  let w1 = Mux.broadcast_own (key ~origin:0 ()) (payload ()) in
  let w2 = Mux.broadcast_own (key ~origin:1 ()) (payload ()) in
  let mux, _, _ = Mux.handle mux ~src:(node 0) w1 in
  let mux, _, _ = Mux.handle mux ~src:(node 1) w2 in
  Alcotest.(check int) "two instances" 2 (Mux.instances mux)

let test_mux_delivery () =
  let mux = Mux.create ~n:4 ~f:1 in
  let k = key () in
  let ready src mux =
    let mux, _, d = Mux.handle mux ~src { Mux.key = k; event = Mux.Rbc.Ready (payload ()) } in
    (mux, d)
  in
  let mux, d1 = ready (node 0) mux in
  let mux, d2 = ready (node 1) mux in
  let _, d3 = ready (node 2) mux in
  Alcotest.(check bool) "no early delivery" true (d1 = None && d2 = None);
  match d3 with
  | Some (dk, dp) ->
    Alcotest.(check bool) "delivered key" true (M.Key.equal dk k);
    Alcotest.(check bool) "delivered payload" true (M.Payload.equal dp (payload ()))
  | None -> Alcotest.fail "expected delivery at 2f+1 readies"

let test_mux_initial_from_wrong_origin_ignored () =
  let mux = Mux.create ~n:4 ~f:1 in
  (* node 2 sends an Initial for node 0's instance: dropped by the
     instance's sender check. *)
  let wire = { Mux.key = key ~origin:0 (); event = Mux.Rbc.Initial (payload ()) } in
  let _, out, delivery = Mux.handle mux ~src:(node 2) wire in
  Alcotest.(check int) "no echo" 0 (List.length out);
  Alcotest.(check bool) "no delivery" true (delivery = None)

(* ---- Ba_instance ---- *)

let drive_ba_network ?(n = 4) ?(f = 1) ~seed inputs =
  (* A miniature synchronous-ish executor for BA instances alone:
     deliver wire messages FIFO among n nodes until quiescent. *)
  let rng = Abc_prng.Stream.root ~seed in
  let bas =
    Array.init n (fun i ->
        Ba.create ~n ~f ~me:(node i) ~coin:Abc.Coin.local ~validation:true)
  in
  let queue = Queue.create () in
  let decisions = Array.make n None in
  let broadcast src wires =
    List.iter
      (fun w -> List.iter (fun dst -> Queue.add (src, dst, w) queue) (List.init n (fun d -> d)))
      wires
  in
  Array.iteri
    (fun i input ->
      let ba, wires, events = Ba.start bas.(i) ~rng ~input in
      bas.(i) <- ba;
      List.iter (fun (Ba.Decided d) -> decisions.(i) <- Some d) events;
      broadcast i wires)
    inputs;
  let steps = ref 0 in
  while (not (Queue.is_empty queue)) && !steps < 200_000 do
    incr steps;
    let src, dst, wire = Queue.pop queue in
    let ba, wires, events = Ba.on_wire bas.(dst) ~rng ~src:(node src) wire in
    bas.(dst) <- ba;
    List.iter (fun (Ba.Decided d) -> decisions.(dst) <- Some d) events;
    broadcast dst wires
  done;
  (bas, decisions)

let test_ba_unanimous () =
  let _, decisions = drive_ba_network ~seed:1 (Array.make 4 Value.One) in
  Array.iter
    (fun d ->
      match d with
      | Some d ->
        Alcotest.(check bool) "decided One" true (Value.equal d.Abc.Decision.value Value.One)
      | None -> Alcotest.fail "undecided")
    decisions

let test_ba_mixed_agreement () =
  let inputs = [| Value.Zero; Value.One; Value.Zero; Value.One |] in
  let _, decisions = drive_ba_network ~seed:2 inputs in
  let values =
    Array.to_list decisions
    |> List.map (function
         | Some d -> d.Abc.Decision.value
         | None -> Alcotest.fail "undecided")
  in
  match values with
  | first :: rest ->
    List.iter (fun v -> Alcotest.(check bool) "agreement" true (Value.equal first v)) rest
  | [] -> ()

let test_ba_buffers_before_start () =
  (* Node 3 starts late: wire traffic arriving before its start must be
     buffered and replayed. *)
  let n = 4 and f = 1 in
  let rngs = Abc_prng.Stream.root ~seed:3 in
  let bas =
    Array.init n (fun i ->
        Ba.create ~n ~f ~me:(node i) ~coin:Abc.Coin.local ~validation:true)
  in
  (* starts for 0..2 only *)
  let queue = Queue.create () in
  let broadcast src wires =
    List.iter
      (fun w -> List.iter (fun dst -> Queue.add (src, dst, w) queue) (List.init n (fun d -> d)))
      wires
  in
  for i = 0 to 2 do
    let ba, wires, _ = Ba.start bas.(i) ~rng:rngs ~input:Value.One in
    bas.(i) <- ba;
    broadcast i wires
  done;
  (* run some deliveries; node 3 receives but never sends (no input) *)
  for _ = 1 to 50 do
    if not (Queue.is_empty queue) then begin
      let src, dst, wire = Queue.pop queue in
      let ba, wires, _ = Ba.on_wire bas.(dst) ~rng:rngs ~src:(node src) wire in
      bas.(dst) <- ba;
      broadcast dst wires
    end
  done;
  Alcotest.(check bool) "node 3 not started" false (Ba.started bas.(3));
  let ba, wires, _ = Ba.start bas.(3) ~rng:rngs ~input:Value.One in
  Alcotest.(check bool) "start emits broadcasts" true (List.length wires >= 1);
  Alcotest.(check bool) "now started" true (Ba.started ba)

let test_ba_start_idempotent () =
  let ba = Ba.create ~n:4 ~f:1 ~me:(node 0) ~coin:Abc.Coin.local ~validation:true in
  let ba, wires1, _ = Ba.start ba ~rng:(rng ()) ~input:Value.One in
  let _, wires2, _ = Ba.start ba ~rng:(rng ()) ~input:Value.Zero in
  Alcotest.(check bool) "first start broadcasts" true (List.length wires1 > 0);
  Alcotest.(check int) "second start is a no-op" 0 (List.length wires2)

(* ---- Rbc_core: deliveries that change nothing ---- *)

module R = Abc.Rbc_core.Make (Abc.Payloads.Int_payload)

let feed t events =
  List.fold_left
    (fun t (src, event) ->
      let t, _, _ = R.handle t ~src:(node src) event in
      t)
    t events

(* A delivery that can fire no rule must hand the state back
   physically, so every layer above can skip its own copy. *)
let check_unchanged what t (t', events, delivered) =
  Alcotest.(check bool) (what ^ ": same state") true (t' == t);
  Alcotest.(check int) (what ^ ": no events") 0 (List.length events);
  Alcotest.(check bool) (what ^ ": no delivery") true (Option.is_none delivered)

let test_rbc_late_echo () =
  let t = feed (R.create ~n:4 ~f:1 ~sender:(node 0)) [ (0, R.Echo 7); (1, R.Echo 7); (2, R.Echo 7) ] in
  Alcotest.(check bool) "readied on 3 echoes" true (R.readied t);
  check_unchanged "late echo" t (R.handle t ~src:(node 3) (R.Echo 7));
  check_unchanged "late echo, other value" t (R.handle t ~src:(node 3) (R.Echo 8))

let test_rbc_late_ready () =
  let t = feed (R.create ~n:4 ~f:1 ~sender:(node 0)) [ (0, R.Ready 7); (1, R.Ready 7); (2, R.Ready 7) ] in
  Alcotest.(check (option int)) "delivered on 3 readies" (Some 7) (R.delivered t);
  check_unchanged "late ready" t (R.handle t ~src:(node 3) (R.Ready 7))

let test_rbc_duplicate_sender () =
  let t = feed (R.create ~n:4 ~f:1 ~sender:(node 0)) [ (1, R.Echo 7); (1, R.Ready 7) ] in
  check_unchanged "duplicate echo" t (R.handle t ~src:(node 1) (R.Echo 7));
  check_unchanged "duplicate ready" t (R.handle t ~src:(node 1) (R.Ready 7));
  let t', _, _ = R.handle t ~src:(node 2) (R.Echo 7) in
  Alcotest.(check bool) "a new sender still counts" false (t' == t)

(* Readies from every sender, highest id first and each twice: the
   repeat must change nothing, and delivery must happen exactly at the
   (2f+1)-th distinct sender, across byte boundaries of the sender
   bitset and for node n-1. *)
let test_rbc_bitset_dedup () =
  List.iter
    (fun n ->
      let f = (n - 1) / 3 in
      let rec go t distinct id =
        if id >= 0 then begin
          let t, _, delivered = R.handle t ~src:(node id) (R.Ready 1) in
          let distinct = distinct + 1 in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d: delivers at sender %d iff 2f+1 distinct" n id)
            (Int.equal distinct (R.deliver_threshold ~f))
            (Option.is_some delivered);
          check_unchanged
            (Printf.sprintf "n=%d: repeat of sender %d" n id)
            t
            (R.handle t ~src:(node id) (R.Ready 1));
          go t distinct (id - 1)
        end
      in
      go (R.create ~n ~f ~sender:(node 0)) 0 (n - 1))
    [ 4; 9; 64; 256 ]

let test_node_bitset () =
  let module B = Abc_net.Node_bitset in
  List.iter
    (fun n ->
      let members = List.sort_uniq Int.compare [ 0; min 7 (n - 1); min 8 (n - 1); n - 1 ] in
      let set = List.fold_left (fun set i -> B.add set (node i)) (B.empty ~n) members in
      for i = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "n=%d: mem %d" n i)
          (List.exists (Int.equal i) members)
          (B.mem set (node i))
      done;
      List.iter
        (fun i ->
          Alcotest.(check bool) (Printf.sprintf "n=%d: re-add %d" n i) true
            (B.add set (node i) == set))
        members;
      let empty = B.empty ~n in
      let one = B.add empty (node (n - 1)) in
      Alcotest.(check bool) (Printf.sprintf "n=%d: add leaves its argument" n) false
        (B.mem empty (node (n - 1)));
      Alcotest.(check bool) (Printf.sprintf "n=%d: singleton" n) true
        (B.mem (B.singleton ~n (node (n - 1))) (node (n - 1)) && B.mem one (node (n - 1))))
    [ 4; 9; 64; 256 ]

(* ---- Coded_rbc: deliveries after delivery ---- *)

module Coded = Abc.Coded_rbc

(* Node 1 of an n=4 dispersal by node 0, fed echoes from nodes 0-2 (an
   echo quorum, which validates and sends Ready) and then readies from
   nodes 0-2 (delivery on the third).  Returns the delivered state, the
   context and the messages node 3 would send. *)
let coded_delivered () =
  let n = 4 and f = 1 and len = 40 in
  let payload = String.init len (fun i -> Char.chr ((7 * i) land 0xFF)) in
  let fragments = Abc.Rs.encode ~k:(Coded.data_shards ~n ~f) ~n payload in
  let root, branches = Abc.Rs.Merkle.commit ~len fragments in
  let echo i = Coded.Echo { root; len; branch = branches.(i); fragment = fragments.(i) } in
  let ctx = Capture.context ~n ~f 1 in
  let state, _ = Coded.initial ctx { Coded.sender = node 0; payload = None } in
  let feed (state, _) (src, msg) =
    let state, _, outputs = Coded.on_message ctx state ~src:(node src) msg in
    (state, outputs)
  in
  let state, outputs =
    List.fold_left feed (state, [])
      [
        (0, echo 0);
        (1, echo 1);
        (2, echo 2);
        (0, Coded.Ready { root });
        (1, Coded.Ready { root });
        (2, Coded.Ready { root });
      ]
  in
  Alcotest.(check (list string)) "delivered on the third ready" [ payload ]
    (List.map (fun (Coded.Delivered p) -> p) outputs);
  (state, ctx, echo 3, Coded.Ready { root })

(* A protocol delivery that can fire no rule: the state comes back
   physically, with no actions and no outputs. *)
let check_no_effect what ~state (state', actions, outputs) =
  Alcotest.(check bool) (what ^ ": same state") true (state' == state);
  Alcotest.(check int) (what ^ ": no actions") 0 (List.length actions + List.length outputs)

let test_coded_late_echo () =
  let state, ctx, echo, _ = coded_delivered () in
  check_no_effect "late echo" ~state (Coded.on_message ctx state ~src:(node 3) echo)

let test_coded_late_ready () =
  let ctx = Capture.context ~n:4 ~f:1 1 in
  let fresh, _ = Coded.initial ctx { Coded.sender = node 0; payload = None } in
  let ready = Coded.Ready { root = 1 } in
  let once, _, _ = Coded.on_message ctx fresh ~src:(node 2) ready in
  check_no_effect "duplicate ready" ~state:once (Coded.on_message ctx once ~src:(node 2) ready);
  let state, ctx, _, ready = coded_delivered () in
  check_no_effect "late ready" ~state (Coded.on_message ctx state ~src:(node 3) ready);
  check_no_effect "repeated ready" ~state (Coded.on_message ctx state ~src:(node 0) ready)

(* ---- Acs: one state machine over either dissemination layer ---- *)

module Acs_int = Abc.Acs.Make (Abc.Payloads.Int_payload)

(* An instantiation under test: four proposals, the label its
   [msg_label] must give a dissemination message (the layer's own label
   under "prop."), and the wire vocabulary a run covers. *)
type ('p, 'm) acs = {
  acs : (module Abc.Acs.S with type payload = 'p and type prop = 'm);
  proposals : 'p array;
  prop_label : 'm -> string;
  labels : string list;
}

let bracha =
  {
    acs = (module Acs_int : Abc.Acs.S with type payload = int and type prop = R.event);
    proposals = [| 1; 2; 3; 4 |];
    prop_label = (fun event -> "prop." ^ R.event_label event);
    labels = [ "prop.initial"; "prop.echo"; "prop.ready"; "ba.initial"; "ba.echo"; "ba.ready" ];
  }

let coded =
  {
    acs =
      (module Abc.Acs.Coded : Abc.Acs.S
        with type payload = string
         and type prop = Abc.Coded_rbc.msg);
    proposals = [| "a"; "bb"; "ccc"; "dddd" |];
    prop_label = (fun inner -> "prop." ^ Abc.Coded_rbc.msg_label inner);
    labels = [ "prop.val"; "prop.echo"; "prop.ready"; "ba.initial"; "ba.echo"; "ba.ready" ];
  }

let test_acs_late_ba_wire (type p m) (i : (p, m) acs) () =
  let module A = (val i.acs) in
  let ctx = Capture.context ~n:4 ~f:1 0 in
  let state, _ = A.initial ctx { A.proposal = i.proposals.(0); coin = Coin.local } in
  (* An echo in BA 2's reliable broadcast of node 1's first vote. *)
  let echo = A.Ba { index = 2; wire = { Mux.key = key ~origin:1 (); event = Mux.Rbc.Echo (payload ()) } } in
  let deliver state src =
    let state, _, _ = A.on_message ctx state ~src:(node src) echo in
    state
  in
  let state = deliver state 0 in
  check_no_effect "duplicate" ~state (A.on_message ctx state ~src:(node 0) echo);
  let state = List.fold_left deliver state [ 1; 2 ] in
  check_no_effect "late echo" ~state (A.on_message ctx state ~src:(node 3) echo)

(* Runs [A] on [proposals] to completion at n=4 under [Capture]. *)
module Captured (A : Abc.Acs.S) (P : sig val proposals : A.payload array end) = struct
  module C = Capture.Make (A)
  module E = Abc_net.Engine.Make (C)

  let () =
    let inputs = A.inputs ~n:4 ~coin:Coin.local P.proposals in
    ignore (E.run (E.config ~n:4 ~f:1 ~inputs ~seed:5 ()))

  include C
end

(* Re-delivers the last proposal echo a finished node received.  Both
   dissemination layers hand an unchanged instance back physically once
   it has delivered, so the whole ACS state comes back too. *)
let test_acs_late_prop_echo (type p m) (i : (p, m) acs) () =
  let module A = (val i.acs) in
  let module C = Captured (A) (struct let proposals = i.proposals end) in
  let me, src, echo =
    List.find (fun (_, _, msg) -> String.equal (A.msg_label msg) "prop.echo") !C.received
  in
  let state = C.state_of me in
  let state', actions, outputs =
    A.on_message (Capture.context ~n:4 ~f:1 (Node_id.to_int me)) state ~src echo
  in
  Alcotest.(check bool) "late prop echo: same state" true (state' == state);
  Alcotest.(check int) "late prop echo: no actions" 0 (List.length actions + List.length outputs)

(* Every proposer has its instance from the start; a proposal naming
   any other origin is forged and must leave no trace. *)
let test_acs_forged_origin () =
  let ctx = Capture.context ~n:4 ~f:1 0 in
  let state, _ = Acs_int.initial ctx { Acs_int.proposal = 1; coin = Coin.local } in
  check_no_effect "origin 9" ~state
    (Acs_int.on_message ctx state ~src:(node 3)
       (Acs_int.Prop { origin = node 9; inner = R.Echo 5 }))

(* ---- msg_label: one shared literal per constructor ---- *)

(* Each protocol runs to completion under [Capture]; see
   [Capture.Make.check_labels]. *)
module Cap_tc = Capture.Make (Abc.Turpin_coan.Make (Abc.Payloads.Int_payload))

let test_acs_labels (type p m) (i : (p, m) acs) () =
  let module A = (val i.acs) in
  let module C = Captured (A) (struct let proposals = i.proposals end) in
  C.check_labels ~name:A.name
    ~old:(function
      | A.Prop { inner; _ } -> i.prop_label inner
      | A.Ba { wire; _ } -> "ba." ^ Mux.wire_label wire)
    ~expected:i.labels ()

let test_turpin_coan_labels () =
  let module TC = Abc.Turpin_coan.Make (Abc.Payloads.Int_payload) in
  let module E = Abc_net.Engine.Make (Cap_tc) in
  Cap_tc.reset ();
  let inputs = TC.inputs ~n:5 ~coin:Coin.local [| 1; 1; 1; 2; 3 |] in
  ignore (E.run (E.config ~n:5 ~f:1 ~inputs ~seed:5 ()));
  (* The message type is abstract: the old labels were "step1",
     "step2" and "ba." ^ the RBC event label, so the expected
     vocabulary pins them. *)
  Cap_tc.check_labels ~name:"turpin-coan"
    ~expected:[ "step1"; "step2"; "ba.initial"; "ba.echo"; "ba.ready" ]
    ()

(* ---- Payloads ---- *)

let test_payloads () =
  Alcotest.(check bool) "int equal" true (Abc.Payloads.Int_payload.equal 3 3);
  Alcotest.(check bool) "int compare" true (Abc.Payloads.Int_payload.compare 1 2 < 0);
  Alcotest.(check string) "int pp" "42" (Fmt.str "%a" Abc.Payloads.Int_payload.pp 42);
  Alcotest.(check string) "string pp" "hi"
    (Fmt.str "%a" Abc.Payloads.String_payload.pp "hi");
  Alcotest.(check string) "labels" "int" Abc.Payloads.Int_payload.label

(* ---- Decision ---- *)

let test_decision () =
  let d1 = { Abc.Decision.value = Value.One; round = 3 } in
  let d2 = { Abc.Decision.value = Value.One; round = 3 } in
  let d3 = { Abc.Decision.value = Value.Zero; round = 3 } in
  Alcotest.(check bool) "equal" true (Abc.Decision.equal d1 d2);
  Alcotest.(check bool) "not equal" false (Abc.Decision.equal d1 d3);
  Alcotest.(check string) "pp" "decide(1, round 3)" (Fmt.str "%a" Abc.Decision.pp d1)

let () =
  Alcotest.run "components"
    [
      ("value", [ Alcotest.test_case "basics" `Quick test_value_basics ]);
      ( "coin",
        [
          Alcotest.test_case "local uses rng" `Quick test_local_coin_uses_rng;
          Alcotest.test_case "local fair" `Quick test_local_coin_roughly_fair;
          Alcotest.test_case "common identical across nodes" `Quick
            test_common_coin_identical_across_nodes;
          Alcotest.test_case "common varies with round" `Quick
            test_common_coin_varies_with_round;
          Alcotest.test_case "common varies with seed" `Quick
            test_common_coin_varies_with_seed;
          Alcotest.test_case "labels" `Quick test_coin_labels;
        ] );
      ( "consensus_msg",
        [
          Alcotest.test_case "step order" `Quick test_step_order;
          Alcotest.test_case "key ordering and pp" `Quick test_key_ordering_and_pp;
          Alcotest.test_case "vmsg roundtrip" `Quick test_vmsg_roundtrip;
          Alcotest.test_case "payload compare" `Quick test_payload_compare;
        ] );
      ( "rbc_mux",
        [
          Alcotest.test_case "routes to instances" `Quick test_mux_routes_to_instances;
          Alcotest.test_case "separate instances" `Quick test_mux_separate_instances;
          Alcotest.test_case "delivery" `Quick test_mux_delivery;
          Alcotest.test_case "wrong-origin initial ignored" `Quick
            test_mux_initial_from_wrong_origin_ignored;
        ] );
      ( "ba_instance",
        [
          Alcotest.test_case "unanimous" `Quick test_ba_unanimous;
          Alcotest.test_case "mixed agreement" `Quick test_ba_mixed_agreement;
          Alcotest.test_case "buffers before start" `Quick test_ba_buffers_before_start;
          Alcotest.test_case "start idempotent" `Quick test_ba_start_idempotent;
        ] );
      ( "rbc_core",
        [
          Alcotest.test_case "late echo changes nothing" `Quick test_rbc_late_echo;
          Alcotest.test_case "late ready changes nothing" `Quick test_rbc_late_ready;
          Alcotest.test_case "duplicate sender changes nothing" `Quick
            test_rbc_duplicate_sender;
          Alcotest.test_case "bitset sender dedup" `Quick test_rbc_bitset_dedup;
          Alcotest.test_case "node bitset" `Quick test_node_bitset;
        ] );
      ( "coded_rbc",
        [
          Alcotest.test_case "late echo changes nothing" `Quick test_coded_late_echo;
          Alcotest.test_case "late ready changes nothing" `Quick test_coded_late_ready;
        ] );
      ( "acs",
        [
          Alcotest.test_case "late ba wire changes nothing: bracha" `Quick
            (test_acs_late_ba_wire bracha);
          Alcotest.test_case "late ba wire changes nothing: coded" `Quick
            (test_acs_late_ba_wire coded);
          Alcotest.test_case "late prop echo: bracha" `Quick (test_acs_late_prop_echo bracha);
          Alcotest.test_case "late prop echo: coded" `Quick (test_acs_late_prop_echo coded);
          Alcotest.test_case "forged origin dropped" `Quick test_acs_forged_origin;
        ] );
      ( "msg_label",
        [
          Alcotest.test_case "batch-acs" `Quick (test_acs_labels coded);
          Alcotest.test_case "acs" `Quick (test_acs_labels bracha);
          Alcotest.test_case "turpin-coan" `Quick test_turpin_coan_labels;
        ] );
      ("payloads", [ Alcotest.test_case "basics" `Quick test_payloads ]);
      ("decision", [ Alcotest.test_case "basics" `Quick test_decision ]);
    ]
