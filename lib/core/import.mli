(** Short aliases for the substrate modules used throughout the
    consensus library.  Files open this module instead of repeating
    [Abc_net.]-qualified paths. *)

module Node_id = Abc_net.Node_id
module Node_bitset = Abc_net.Node_bitset
module Protocol = Abc_net.Protocol
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
module Engine = Abc_net.Engine
module Stream = Abc_prng.Stream
module Metrics = Abc_sim.Metrics
module Summary = Abc_sim.Summary
module Trace = Abc_sim.Trace
module Event = Abc_sim.Event
