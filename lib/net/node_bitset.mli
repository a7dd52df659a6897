(** Persistent sets of node identifiers, sized from [n].

    A set over nodes [0 .. n-1] is a [⌈n/8⌉]-byte bitmap: membership is
    one byte read, and {!add} copies the bitmap (never mutating its
    argument), so a value can be shared between protocol states the way
    a [Node_id.Set.t] can.  Unlike a balanced tree, equal sets have
    equal representations. *)

type t

val empty : n:int -> t
(** [empty ~n] holds no node of a run of [n]. *)

val singleton : n:int -> Node_id.t -> t
(** [singleton ~n id] holds only [id].  Requires [id < n]. *)

val mem : t -> Node_id.t -> bool
(** [mem t id] is whether [id] is in [t]. *)

val add : t -> Node_id.t -> t
(** [add t id] is [t] with [id] added, and [t] itself (physically) when
    [id] is already a member.  Requires [id < n]. *)
