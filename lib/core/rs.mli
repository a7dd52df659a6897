(** Reed–Solomon erasure coding over GF(2³¹ − 1).

    Paper source: the dispersal layer of AVID (Cachin–Tessaro, DSN
    2005) as used by HoneyBadgerBFT (Miller et al., CCS 2016): an
    [(n, k)] maximum-distance-separable code lets a broadcast sender
    ship each node an [O(|m|/k)]-sized fragment instead of the whole
    payload, and any [k] fragments reconstruct it.  {!Coded_rbc}
    instantiates this with [k = n − 2f].

    The code is systematic (fragments [0 .. k−1] carry the payload
    verbatim) and works over the repo's existing {!Gf} field: payload
    bytes are packed 3 per symbol, each block of [k] symbols defines a
    degree < [k] polynomial, and fragment [i] holds the evaluations at
    [x = i + 1].  Decoding is Lagrange interpolation with per-target
    weight vectors precomputed once and shared across blocks; a data
    position whose own fragment is among those given is copied
    verbatim instead (its weight vector would be the unit vector).
    Encoding, decoding and packing are closure-free loops over the
    symbol arrays.

    The {!Merkle} submodule provides the commitment binding a
    fragment set to a single root, so receivers can verify a relayed
    fragment without seeing the rest.  Hashes are modeled: a cheap
    deterministic integer mix stands in for a 256-bit hash, but wire
    accounting charges the full {!Merkle.hash_bytes} per digest.
    {!commitment} is the root alone, computed without building the
    fragments: it is what a receiver re-derives when it checks a
    decoded payload against the root it was sent. *)

type fragment = { index : int; data : Gf.t array }
(** Fragment [index] of an encoding: one {!Gf} symbol per block. *)

val symbol_bytes : int
(** Payload bytes packed per field symbol (3, since 2²⁴ < 2³¹ − 1). *)

val symbol_wire_bytes : int
(** Modeled wire bytes per symbol (4: a 31-bit element travels as a
    word, giving the code a 4/3 expansion over raw payload bytes). *)

val encode : k:int -> n:int -> string -> fragment array
(** [encode ~k ~n payload] is the [n] fragments of the [(n, k)]
    encoding of [payload].  Any [k] of them reconstruct the payload.
    Raises [Invalid_argument] unless [1 <= k <= n < Gf.prime]. *)

val decode : k:int -> len:int -> fragment list -> string
(** [decode ~k ~len fragments] reconstructs the original payload of
    byte length [len] from any [k] fragments with distinct indices
    (duplicates are dropped; extras beyond [k] are ignored).  Raises
    [Invalid_argument] when fewer than [k] distinct indices are given,
    when fragments disagree on length, or when they are too short to
    hold [len] bytes. *)

val fragment_wire_bytes : fragment -> int
(** Modeled wire size of a bare fragment: its index plus
    {!symbol_wire_bytes} per symbol (Merkle proof charged separately,
    see {!Merkle.branch_wire_bytes}). *)

(** Merkle commitment over a fragment set.

    The leaf for fragment [i] hashes [(index, payload length,
    symbols)]; leaves are padded to a power of two so every
    authentication branch has the same [⌈log₂ n⌉] depth — this is the
    [λ log n] term in coded RBC's per-link bit complexity. *)
module Merkle : sig
  type root = int
  (** Modeled digest (see [hash_bytes] for the charged wire size). *)

  type branch = int list
  (** Authentication path, leaf-sibling first. *)

  val hash_bytes : int
  (** Wire bytes charged per digest (32, modeling a 256-bit hash). *)

  val commit : len:int -> fragment array -> root * branch array
  (** [commit ~len fragments] is the root committing to the fragment
      array (in index order) for a payload of [len] bytes, plus one
      authentication branch per fragment.  Raises [Invalid_argument]
      on an empty array. *)

  val verify : root:root -> len:int -> index:int -> branch -> fragment -> bool
  (** [verify ~root ~len ~index branch fragment] checks that
      [fragment] is leaf [index] of the set committed to by [root] for
      a [len]-byte payload. *)

  val root_wire_bytes : int
  (** Modeled wire size of a root ([hash_bytes]). *)

  val branch_wire_bytes : branch -> int
  (** Modeled wire size of a branch ([hash_bytes] per level). *)
end

val commitment : k:int -> n:int -> string -> Merkle.root
(** [commitment ~k ~n payload] is
    [fst (Merkle.commit ~len (encode ~k ~n payload))] with [len] the
    byte length of [payload].  The payload is read one block at a
    time and each leaf is hashed as its fragment's symbols are
    computed, so neither the [n] fragments nor the authentication
    branches are allocated: a call allocates O([n] * [k]) words
    whatever the payload's size.  Raises
    [Invalid_argument] under the same conditions as {!encode}. *)
