open Import

(** Bracha reliable broadcast as a runnable network protocol.

    Paper source: Bracha, "An asynchronous [(n-1)/3]-resilient
    consensus protocol" (PODC 1984), the broadcast primitive.
    Resilience [f <= (n-1)/3]; three message types
    ([Initial]/[Echo]/[Ready], see {!Rbc_core.Make.event}) over three
    phases, [2n^2 + n] messages per broadcast, each carrying the full
    payload — the [O(n |m|)] per-node bandwidth that {!Coded_rbc}
    attacks with erasure coding.

    [Make (V)] wraps one {!Rbc_core} instance into an
    {!Abc_net.Protocol.S} so the engine can execute it: node inputs
    name the designated sender (the same one at every node) and carry
    the payload at the sender.  Every honest node emits a terminal
    [Delivered] output; the experiments check validity, agreement and
    totality over these outputs.

    The [Fault] submodule forges well-typed corrupted messages for the
    Byzantine behaviours. *)

module Make (V : Value.PAYLOAD) : sig
  module Core : module type of struct include Rbc_core.Make (V) end

  type input = { sender : Node_id.t; payload : V.t option }
  (** [payload] is [Some v] at the designated sender, [None]
      elsewhere.  All nodes must agree on [sender]. *)

  type output = Delivered of V.t

  include
    Protocol.S
      with type input := input
       and type output := output
       and type msg = Core.event

  (** Forged messages for Byzantine senders and relays. *)
  module Fault : sig
    val substitute : (Stream.t -> V.t -> V.t) -> Stream.t -> msg -> msg
    (** [substitute forge] rewrites the payload of every outgoing
        message with [forge]: a lying sender or relay. *)

    val equivocate :
      (Stream.t -> dst:Node_id.t -> V.t -> V.t) ->
      Stream.t ->
      dst:Node_id.t ->
      msg ->
      msg
    (** Per-recipient payload substitution: the two-faced sender that
        reliable broadcast is designed to defeat. *)
  end

  val inputs : n:int -> sender:Node_id.t -> V.t -> input array
  (** [inputs ~n ~sender v] is the standard input vector: [v] at
      [sender], [None] elsewhere. *)
end

(** Ready-made instance broadcasting a single bit. *)
module Binary : sig
  include module type of Make (Value)
end
