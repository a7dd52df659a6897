module Rbc = Rbc_core.Make (Consensus_msg.Payload)

type wire = { key : Consensus_msg.Key.t; event : Rbc.event }

type t = { n : int; f : int; live : Rbc.t Consensus_msg.Key.Map.t }

let create ~n ~f = { n; f; live = Consensus_msg.Key.Map.empty }

let broadcast_own key payload = { key; event = Rbc.Initial payload }

let handle ?(sink = Abc_sim.Event.null_sink) t ~src wire =
  (* Scope emitted events by the instance key; the label is only built
     when a consumer is attached. *)
  let sink =
    if sink.Abc_sim.Event.enabled then
      Abc_sim.Event.scoped sink
        ~instance:(Fmt.str "%a" Consensus_msg.Key.pp wire.key)
    else sink
  in
  let t, events, delivered =
    match Consensus_msg.Key.Map.find_opt wire.key t.live with
    | Some inst ->
      let inst', events, delivered = Rbc.handle ~sink inst ~src wire.event in
      (* An instance handed back unchanged leaves the mux unchanged. *)
      if inst' == inst then (t, events, delivered)
      else
        ( { t with live = Consensus_msg.Key.Map.add wire.key inst' t.live },
          events,
          delivered )
    | None ->
      let inst = Rbc.create ~n:t.n ~f:t.f ~sender:wire.key.origin in
      let inst, events, delivered = Rbc.handle ~sink inst ~src wire.event in
      ( { t with live = Consensus_msg.Key.Map.add wire.key inst t.live },
        events,
        delivered )
  in
  let outgoing = List.map (fun event -> { key = wire.key; event }) events in
  let delivery = Option.map (fun payload -> (wire.key, payload)) delivered in
  (t, outgoing, delivery)

let instances t = Consensus_msg.Key.Map.cardinal t.live

let pp_wire ppf { key; event } =
  Fmt.pf ppf "%a:%a" Consensus_msg.Key.pp key Rbc.pp_event event

let wire_label { event; _ } = Rbc.event_label event

let wire_bytes { key; event } =
  Consensus_msg.Key.bytes key + Rbc.event_bytes event
