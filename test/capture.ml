(* Test helper: wraps a protocol so a run leaves behind every message
   each node received and each node's latest state, for tests that
   re-deliver a message after the fact or check the wire labels.
   Each application of the functor has its own records; the tests run
   single-domain. *)

module Node_id = Abc_net.Node_id
module Int_map = Map.Make (Int)

module Make (P : Abc_net.Protocol.S) = struct
  include P

  (* (receiver, sender, message), newest first *)
  let received : (Node_id.t * Node_id.t * P.msg) list ref = ref []
  let latest : P.state Int_map.t ref = ref Int_map.empty

  let keep (ctx : Abc_net.Protocol.Context.t) state =
    latest := Int_map.add (Node_id.to_int ctx.me) state !latest;
    state

  let initial ctx input =
    let state, actions = P.initial ctx input in
    (keep ctx state, actions)

  let on_message ctx state ~src msg =
    received := (ctx.Abc_net.Protocol.Context.me, src, msg) :: !received;
    let state, actions, outputs = P.on_message ctx state ~src msg in
    (keep ctx state, actions, outputs)

  let reset () =
    received := [];
    latest := Int_map.empty

  let state_of id = Int_map.find (Node_id.to_int id) !latest

  (* Checks every received message's label is one shared string (the
     engine's label memo compares physically), equals [old msg] — the
     label as the protocol used to build it — when given, and that the
     run covered the whole wire vocabulary [expected]. *)
  let check_labels ~name ?old ~expected () =
    List.iter
      (fun (_, _, msg) ->
        Alcotest.(check bool) (name ^ ": label is shared") true
          (P.msg_label msg == P.msg_label msg);
        Option.iter
          (fun old ->
            Alcotest.(check string) (name ^ ": label unchanged") (old msg) (P.msg_label msg))
          old)
      !received;
    Alcotest.(check (list string)) (name ^ ": every constructor seen")
      (List.sort String.compare expected)
      (List.sort_uniq String.compare
         (List.map (fun (_, _, msg) -> P.msg_label msg) !received))
end

(* A context for calling a protocol's handlers directly, with tracing
   off. *)
let context ~n ~f me =
  {
    Abc_net.Protocol.Context.me = Node_id.of_int me;
    n;
    f;
    rng = Abc_prng.Stream.root ~seed:me;
    sink = Abc_sim.Event.null_sink;
  }
