open Import

(** Asynchronous Common Subset — multivalued agreement from Bracha's
    primitives.

    {b Paper source:} the ACS of Ben-Or, Kelmer & Rabin (1994) as
    deployed by HoneyBadgerBFT (Miller et al. 2016, §4.2), built from
    exactly the two tools of the 1984 paper: every node disseminates
    its proposal by reliable broadcast, and [n] binary-agreement
    instances decide {e whose} proposals count:

    + on delivering node [j]'s proposal, input 1 into [BA_j];
    + once [n - f] instances have decided 1, input 0 into every
      instance not yet started;
    + when all [n] instances have decided, output the proposals of
      every index that decided 1 (reliable-broadcast totality
      guarantees the accepted payloads arrive everywhere).

    All honest nodes output the {e same} set of (node, proposal) pairs
    containing at least [n - 2f] honest proposals.

    {b Resilience:} [n > 3f] ([assert_resilience] at input time).

    The rules never look at how a proposal travels, so the state
    machine is written once, {!Over} a {!DISSEMINATION} layer, and
    instantiated twice: {!Make} over Bracha's full-payload broadcast
    ({!Bracha_rbc}), and {!Coded} over the Cachin–Tessaro AVID-style
    coded broadcast ({!Coded_rbc}), under which a batch of [B] bytes
    costs each link [O(B/n + lambda log n)] instead of [O(B)]. *)

(** The proposal transport: one reliable-broadcast instance per
    proposer. *)
module type DISSEMINATION = sig
  type payload

  type msg

  type t
  (** One instance's state.  [handle] returns it physically unchanged
      when a message changes nothing. *)

  val name : string
  (** Protocol name of the ACS built over this layer. *)

  val open_instance :
    Protocol.Context.t -> origin:Node_id.t -> payload option -> t * msg Protocol.action list
  (** The instance disseminating [origin]'s proposal; [Some] payload
      exactly when [origin] is this node. *)

  val handle :
    Protocol.Context.t -> t -> src:Node_id.t -> msg -> t * msg Protocol.action list * payload option
  (** One delivery; [Some p] when it delivers the proposal. *)

  val label : msg -> string
  (** The literal ["prop.<kind>"] wire label, one shared string per
      constructor. *)

  val msg_bytes : msg -> int
  val pp_msg : msg Fmt.t
  val pp_payload : payload Fmt.t
end

module type S = sig
  type payload

  type prop
  (** The dissemination layer's message. *)

  type input = { proposal : payload; coin : Coin.t }

  type output = Accepted of (Node_id.t * payload) list
      (** the common subset, sorted by node id — identical at every
          honest node *)

  type msg =
    | Prop of { origin : Node_id.t; inner : prop }
        (** dissemination of [origin]'s proposal *)
    | Ba of { index : int; wire : Rbc_mux.wire }
        (** agreement on whether proposal [index] is in the subset *)

  include
    Protocol.S
      with type input := input
       and type output := output
       and type msg := msg

  val inputs : n:int -> coin:Coin.t -> payload array -> input array
  (** One proposal per node, shared coin configuration.  Raises
      [Invalid_argument] when the array length differs from [n]. *)
end

module Over (D : DISSEMINATION) : S with type payload = D.payload and type prop = D.msg

(** ACS over Bracha RBC: multivalued consensus for {!Multivalued} and
    the replicated log's slots. *)
module Make (V : Value.PAYLOAD) : sig
  include S with type payload = V.t and type prop = Rbc_core.Make(V).event

  val decide_value : output -> V.t
  (** Deterministic collapse of the common subset to a single value
      (the smallest payload in the set).  Requires a non-empty subset,
      which the protocol guarantees. *)
end

(** ACS over coded RBC: the batch-agreement core of the
    atomic-broadcast pipeline.  Payloads are opaque strings — the
    atomic broadcast layer encodes transaction batches into them
    ({!Abc_smr.Atomic_broadcast}). *)
module Coded : S with type payload = string and type prop = Coded_rbc.msg
