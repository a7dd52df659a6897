[@@@abc.resilience "n>3f"]

open Import

module Int_map = Map.Make (Int)

module type DISSEMINATION = sig
  type payload
  type msg
  type t

  val name : string

  val open_instance :
    Protocol.Context.t -> origin:Node_id.t -> payload option -> t * msg Protocol.action list

  val handle :
    Protocol.Context.t -> t -> src:Node_id.t -> msg -> t * msg Protocol.action list * payload option

  val label : msg -> string
  val msg_bytes : msg -> int
  val pp_msg : msg Fmt.t
  val pp_payload : payload Fmt.t
end

module type S = sig
  type payload
  type prop
  type input = { proposal : payload; coin : Coin.t }
  type output = Accepted of (Node_id.t * payload) list

  type msg =
    | Prop of { origin : Node_id.t; inner : prop }
    | Ba of { index : int; wire : Rbc_mux.wire }

  include
    Protocol.S
      with type input := input
       and type output := output
       and type msg := msg

  val inputs : n:int -> coin:Coin.t -> payload array -> input array
end

module Over (D : DISSEMINATION) = struct
  type payload = D.payload

  type prop = D.msg

  type input = { proposal : payload; coin : Coin.t }

  type output = Accepted of (Node_id.t * payload) list

  type msg =
    | Prop of { origin : Node_id.t; inner : prop }
    | Ba of { index : int; wire : Rbc_mux.wire }

  type state = {
    n : int;
    f : int;
    prop_instances : D.t Node_id.Map.t; (* exactly one per proposer *)
    proposals : payload Node_id.Map.t; (* reliably delivered proposals *)
    bas : Ba_instance.t Int_map.t; (* one BA per proposer index *)
    decisions : Value.t Int_map.t; (* BA results *)
    emitted : bool;
    (* Counts maintained alongside the maps so [settle] never walks them:
       BAs given an input, delivered proposals whose BA has none yet,
       BAs decided, and BAs decided 1. *)
    started : int;
    awaiting : int;
    decided : int;
    ones : int;
  }

  let name = D.name

  let ba_validation = true

  let ba state index = Int_map.find index state.bas

  let wrap_ba index wires =
    List.map (fun wire -> Protocol.Broadcast (Ba { index; wire })) wires

  let wrap_prop origin actions =
    Protocol.map_msgs (fun inner -> Prop { origin; inner }) actions

  (* Events of the BA for proposer [index], scoped under "ba<index>". *)
  let ba_sink (sink : Event.sink) index =
    if sink.Event.enabled then
      Event.scoped sink ~instance:(Printf.sprintf "ba%d" index)
    else sink

  (* The dissemination instance for [origin]'s proposal runs with the
     outer context, its events scoped under "prop@n<origin>". *)
  let prop_ctx (ctx : Protocol.Context.t) origin =
    let sink = ctx.Protocol.Context.sink in
    if sink.Event.enabled then
      {
        ctx with
        Protocol.Context.sink =
          Event.scoped sink ~instance:(Fmt.str "prop@%a" Node_id.pp origin);
      }
    else ctx

  let record_events state index events =
    List.fold_left
      (fun state (Ba_instance.Decided d) ->
        if Int_map.mem index state.decisions then state
        else
          let value = d.Decision.value in
          {
            state with
            decisions = Int_map.add index value state.decisions;
            decided = state.decided + 1;
            ones = (if Value.equal value Value.One then state.ones + 1 else state.ones);
          })
      state events

  (* Start [BA index] with [input], folding any immediate events back
     into the state.  No-op when already started. *)
  let start_ba state ~rng ~sink index input =
    let instance = ba state index in
    if Ba_instance.started instance then (state, [])
    else begin
      let instance, wires, events =
        Ba_instance.start ~sink:(ba_sink sink index) instance ~rng ~input
      in
      let awaiting =
        if Node_id.Map.mem (Node_id.of_int index) state.proposals then
          state.awaiting - 1
        else state.awaiting
      in
      let state =
        {
          state with
          bas = Int_map.add index instance state.bas;
          started = state.started + 1;
          awaiting;
        }
      in
      (record_events state index events, wrap_ba index wires)
    end

  (* Apply the ACS rules to fixpoint: vote 1 for delivered proposals,
     vote 0 everywhere once n-f instances accepted, emit when all
     instances are decided and the accepted proposals have arrived.
     The maintained counts guard each rule, so a call that fires
     nothing costs O(1). *)
  let rec settle state ~rng ~sink actions =
    (* Rule 1: proposals that arrived but whose BA has no input yet. *)
    let pending_one =
      if state.awaiting = 0 then []
      else
        Node_id.Map.fold
          (fun origin _ acc ->
            let index = Node_id.to_int origin in
            if Ba_instance.started (ba state index) then acc else index :: acc)
          state.proposals []
    in
    match pending_one with
    | index :: _ ->
      let state, new_actions = start_ba state ~rng ~sink index Value.One in
      settle state ~rng ~sink (actions @ new_actions)
    | [] ->
      (* Rule 2: enough instances accepted — refuse the rest. *)
      if
        state.ones >= Quorum.completeness ~n:state.n ~f:state.f
        && state.started < state.n
      then begin
        let unstarted =
          List.filter
            (fun i -> not (Ba_instance.started (ba state i)))
            (List.init state.n (fun i -> i))
        in
        let state, new_actions =
          List.fold_left
            (fun (state, acc) index ->
              let state, actions = start_ba state ~rng ~sink index Value.Zero in
              (state, acc @ actions))
            (state, []) unstarted
        in
        settle state ~rng ~sink (actions @ new_actions)
      end
      else if state.emitted || state.decided < state.n then (state, actions, [])
      else begin
        (* Rule 3: emit once everything is decided and every accepted
           proposal has been delivered (RBC totality guarantees it
           will). *)
        let accepted =
          Int_map.fold
            (fun i v acc -> if Value.equal v Value.One then Node_id.of_int i :: acc else acc)
            state.decisions []
          |> List.rev
        in
        if List.for_all (fun id -> Node_id.Map.mem id state.proposals) accepted then
          let subset =
            List.map (fun id -> (id, Node_id.Map.find id state.proposals)) accepted
          in
          ({ state with emitted = true }, actions, [ Accepted subset ])
        else (state, actions, [])
      end

  let initial ctx (input : input) =
    let { Protocol.Context.me; n; f; rng = _; sink = _ } = ctx in
    Quorum.assert_resilience ~n ~f;
    let bas =
      List.fold_left
        (fun bas i ->
          Int_map.add i
            (Ba_instance.create ~n ~f ~me ~coin:input.coin ~validation:ba_validation)
            bas)
        Int_map.empty
        (List.init n (fun i -> i))
    in
    (* One dissemination instance per proposer, all opened up front:
       mine broadcasts my proposal, the others sit ready to receive.
       A message naming any other origin is forged and dropped. *)
    let prop_instances, actions =
      List.fold_left
        (fun (instances, acc) i ->
          let origin = Node_id.of_int i in
          let payload = if Node_id.equal origin me then Some input.proposal else None in
          let inst, inst_actions = D.open_instance (prop_ctx ctx origin) ~origin payload in
          (Node_id.Map.add origin inst instances, acc @ wrap_prop origin inst_actions))
        (Node_id.Map.empty, [])
        (List.init n (fun i -> i))
    in
    let state =
      {
        n;
        f;
        prop_instances;
        proposals = Node_id.Map.empty;
        bas;
        decisions = Int_map.empty;
        emitted = false;
        started = 0;
        awaiting = 0;
        decided = 0;
        ones = 0;
      }
    in
    (state, actions)

  (* Every handler returns a settled state, and [settle]'s rules read
     only the proposals, the BA starts and the decisions.  So a delivery
     that moves none of them skips [settle], and one that changes no
     instance hands [state] back physically for the caller to skip its
     own copy too. *)
  let on_message ctx state ~src msg =
    let rng = ctx.Protocol.Context.rng in
    let sink = ctx.Protocol.Context.sink in
    match msg with
    | Prop { origin; inner } -> (
      match Node_id.Map.find_opt origin state.prop_instances with
      | None -> (state, [], []) (* origin out of range: forged wrapper *)
      | Some inst -> (
        let inst', inst_actions, delivered =
          D.handle (prop_ctx ctx origin) inst ~src inner
        in
        let state =
          if inst' == inst then state
          else
            { state with prop_instances = Node_id.Map.add origin inst' state.prop_instances }
        in
        let actions = wrap_prop origin inst_actions in
        match delivered with
        | None -> (state, actions, [])
        | Some _ when Node_id.Map.mem origin state.proposals -> (state, actions, [])
        | Some payload ->
          let awaiting =
            if Ba_instance.started (ba state (Node_id.to_int origin)) then state.awaiting
            else state.awaiting + 1
          in
          let state =
            { state with proposals = Node_id.Map.add origin payload state.proposals; awaiting }
          in
          settle state ~rng ~sink actions))
    | Ba { index; wire } -> (
      if index < 0 || index >= state.n then (state, [], [])
      else
        let instance = ba state index in
        let instance', wires, events =
          Ba_instance.on_wire ~sink:(ba_sink sink index) instance ~rng ~src wire
        in
        let state =
          if instance' == instance then state
          else { state with bas = Int_map.add index instance' state.bas }
        in
        let actions = wrap_ba index wires in
        match events with
        | [] -> (state, actions, [])
        | _ :: _ -> settle (record_events state index events) ~rng ~sink actions)

  let is_terminal (Accepted _) = true
  let on_timeout = Protocol.no_timeout

  (* One shared literal per constructor, so the engine's label memo hits
     on physical equality. *)
  let msg_label = function
    | Prop { inner; _ } -> D.label inner
    | Ba { wire; _ } -> (
      match wire.Rbc_mux.event with
      | Rbc_mux.Rbc.Initial _ -> "ba.initial"
      | Rbc_mux.Rbc.Echo _ -> "ba.echo"
      | Rbc_mux.Rbc.Ready _ -> "ba.ready")

  let msg_bytes =
    let open Protocol.Wire_size in
    function
    | Prop { origin = _; inner } -> tag + node_id + D.msg_bytes inner
    | Ba { index = _; wire } -> tag + int + Rbc_mux.wire_bytes wire

  let pp_msg ppf = function
    | Prop { origin; inner } -> Fmt.pf ppf "prop[%a]:%a" Node_id.pp origin D.pp_msg inner
    | Ba { index; wire } -> Fmt.pf ppf "ba[%d]:%a" index Rbc_mux.pp_wire wire

  let pp_output ppf (Accepted subset) =
    Fmt.pf ppf "accepted{%a}"
      (Fmt.list ~sep:Fmt.comma (fun ppf (id, p) ->
           Fmt.pf ppf "%a=%a" Node_id.pp id D.pp_payload p))
      subset

  let inputs ~n ~coin proposals =
    if Array.length proposals <> n then
      invalid_arg "Acs.inputs: proposals length must equal n";
    Array.map (fun proposal -> { proposal; coin }) proposals
end

module Make (V : Value.PAYLOAD) = struct
  module Rbc = Bracha_rbc.Make (V)

  include Over (struct
    type payload = V.t
    type msg = Rbc.msg
    type t = Rbc.state

    let name = "acs"

    let open_instance ctx ~origin payload = Rbc.initial ctx { Rbc.sender = origin; payload }

    let handle ctx t ~src msg =
      match Rbc.on_message ctx t ~src msg with
      | t, actions, Rbc.Delivered v :: _ -> (t, actions, Some v)
      | t, actions, [] -> (t, actions, None)

    let label = function
      | Rbc.Core.Initial _ -> "prop.initial"
      | Rbc.Core.Echo _ -> "prop.echo"
      | Rbc.Core.Ready _ -> "prop.ready"

    let msg_bytes = Rbc.msg_bytes
    let pp_msg = Rbc.pp_msg
    let pp_payload = V.pp
  end)

  let decide_value (Accepted subset) =
    match subset with
    | [] -> invalid_arg "Acs.decide_value: empty common subset"
    | (_, first) :: rest ->
      List.fold_left
        (fun best (_, p) -> if V.compare p best < 0 then p else best)
        first rest
end

module Coded = Over (struct
  type payload = string
  type msg = Coded_rbc.msg
  type t = Coded_rbc.state

  let name = "batch-acs"

  let open_instance ctx ~origin payload =
    Coded_rbc.initial ctx { Coded_rbc.sender = origin; payload }

  let handle ctx t ~src msg =
    match Coded_rbc.on_message ctx t ~src msg with
    | t, actions, Coded_rbc.Delivered p :: _ -> (t, actions, Some p)
    | t, actions, [] -> (t, actions, None)

  let label = function
    | Coded_rbc.Val _ -> "prop.val"
    | Coded_rbc.Echo _ -> "prop.echo"
    | Coded_rbc.Ready _ -> "prop.ready"

  let msg_bytes = Coded_rbc.msg_bytes
  let pp_msg = Coded_rbc.pp_msg
  let pp_payload ppf p = Fmt.pf ppf "%dB" (String.length p)
end)
