open Import

(** Asynchronous Common Subset — multivalued agreement from Bracha's
    primitives.

    The construction that modern asynchronous BFT systems
    (HoneyBadgerBFT's core) build from exactly the two tools of the
    1984 paper: every node reliable-broadcasts its proposal, and [n]
    binary-agreement instances decide {e whose} proposals count:

    + on delivering node [j]'s proposal, input 1 into [BA_j];
    + once [n - f] instances have decided 1, input 0 into every
      instance not yet started;
    + when all [n] instances have decided, output the proposals of
      every index that decided 1 (reliable-broadcast totality
      guarantees the accepted payloads arrive everywhere).

    All honest nodes output the {e same} set of (node, proposal) pairs
    containing at least [n - 2f] honest proposals.  {!decide_value}
    collapses the set deterministically, yielding multivalued
    consensus. *)

module Make (V : Value.PAYLOAD) : sig
  type input = { proposal : V.t; coin : Coin.t }

  type output = Accepted of (Node_id.t * V.t) list
      (** the common subset, sorted by node id — identical at every
          honest node *)

  type msg =
    | Prop of { origin : Node_id.t; event : Rbc_core.Make(V).event }
        (** Bracha RBC of [origin]'s proposal *)
    | Ba of { index : int; wire : Rbc_mux.wire }
        (** agreement on whether proposal [index] is in the subset *)

  include
    Protocol.S
      with type input := input
       and type output := output
       and type msg := msg

  val inputs : n:int -> coin:Coin.t -> V.t array -> input array
  (** One proposal per node, shared coin configuration. *)

  val decide_value : output -> V.t
  (** Deterministic collapse of the common subset to a single value
      (the smallest payload in the set).  Requires a non-empty subset,
      which the protocol guarantees. *)
end
