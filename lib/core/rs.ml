(* Reed-Solomon erasure coding over GF(2^31 - 1), plus the Merkle
   commitment the coded broadcast uses to bind fragments together.

   Layout: the payload string is packed into field symbols at
   [symbol_bytes] payload bytes per symbol (3 bytes < 2^31 - 1, so
   packing never overflows the field), then striped into blocks of [k]
   symbols.  Each block defines the unique degree < k polynomial
   passing through (1, s_1) ... (k, s_k); fragment [i] carries the
   evaluations of every block's polynomial at x = i + 1.  Fragments
   0 .. k-1 therefore reproduce the data symbols verbatim (the code is
   systematic) and any k distinct fragments reconstruct every block by
   Lagrange interpolation.

   Every per-symbol loop below is a plain [for] loop: this is the
   coded broadcast's hot path.  Encoding and the root-only commitment
   read the payload in place, one block of [k] symbols at a time into
   a [k]-slot buffer, so they allocate only what they return (the
   fragments, or nothing payload-sized at all); decoding allocates the
   payload it returns.  Nothing is allocated per block or per symbol. *)

open Import

let symbol_bytes = 3

(* Wire cost of one symbol: field elements are 31-bit, so they travel
   as 4-byte words even though each carries only 3 payload bytes. *)
let symbol_wire_bytes = 4

type fragment = { index : int; data : Gf.t array }

let fragment_wire_bytes fragment =
  Protocol.Wire_size.int + (symbol_wire_bytes * Array.length fragment.data)

(* ----------------------------------------------------------------- *)
(* Packing                                                           *)
(* ----------------------------------------------------------------- *)

(* Symbol [s] of [payload], read in place: bytes at or past the end
   of the payload count as zero, so a symbol wholly past it is zero. *)
let symbol_at payload s =
  let len = String.length payload in
  let acc = ref 0 in
  for pos = s * symbol_bytes to ((s + 1) * symbol_bytes) - 1 do
    let byte = if pos < len then Char.code (String.unsafe_get payload pos) else 0 in
    acc := (!acc lsl 8) lor byte
  done;
  Gf.of_int !acc

(* Fills [block] with block [b]'s data symbols, [symbol_at payload
   (b * k + i)] for [i < k = Array.length block]; slots past the
   payload's last symbol read as zero. *)
let read_block payload b block =
  let k = Array.length block in
  for i = 0 to k - 1 do
    block.(i) <- symbol_at payload ((b * k) + i)
  done

(* Writes symbol [s]'s [symbol_bytes] bytes into [bytes], dropping
   those at or past [len].  Only the low [8 * symbol_bytes] bits survive,
   so a symbol >= 2^24 or a non-zero padding symbol does not come back
   out of a string: that is what lets a re-encode tell such a codeword
   apart from the one its payload defines. *)
let put_symbol bytes ~len s symbol =
  let v = Gf.to_int symbol in
  let pos = s * symbol_bytes in
  for b = 0 to symbol_bytes - 1 do
    if pos + b < len then
      Bytes.set bytes (pos + b)
        (Char.unsafe_chr ((v lsr (8 * (symbol_bytes - 1 - b))) land 0xFF))
  done

(* ----------------------------------------------------------------- *)
(* Interpolation                                                     *)
(* ----------------------------------------------------------------- *)

(* Lagrange weights for evaluating at [x] the unique degree < k
   polynomial through the points with abscissae [xs]:
   w_i = prod_{j <> i} (x - x_j) / (x_i - x_j).  The weights depend
   only on the abscissae, so they are computed once per (fragment-set,
   target) pair and shared across every block — evaluation is then a
   dot product per block.  When [x] is one of the [xs] the weights are
   a unit vector. *)
let lagrange_weights ~xs ~x =
  let k = Array.length xs in
  let xg = Gf.of_int x in
  Array.init k (fun i ->
      let xi = Gf.of_int xs.(i) in
      let w = ref Gf.one in
      for j = 0 to k - 1 do
        if j <> i then begin
          let xj = Gf.of_int xs.(j) in
          w := Gf.mul !w (Gf.div (Gf.sub xg xj) (Gf.sub xi xj))
        end
      done;
      !w)

(* ----------------------------------------------------------------- *)
(* Encode / decode                                                   *)
(* ----------------------------------------------------------------- *)

let check_params ~k ~n =
  if k < 1 then invalid_arg "Rs: need k >= 1";
  if n < k then invalid_arg "Rs: need n >= k";
  (* Abscissae 1..n must be distinct non-zero field elements. *)
  if n >= Gf.prime then invalid_arg "Rs: n too large for the field"

let block_count ~k payload =
  let symbols = (String.length payload + symbol_bytes - 1) / symbol_bytes in
  (symbols + k - 1) / k

(* Weights that evaluate a block at fragment [fi]'s abscissa from the
   block's data symbols (at x = 1 .. k); unused by the systematic
   fragments, which read the data symbol itself. *)
let encoding_weights ~k fi =
  if fi < k then [||] else lagrange_weights ~xs:(Array.init k (fun i -> i + 1)) ~x:(fi + 1)

(* Fragment [fi]'s symbol of the block whose [k] data symbols are in
   [block]: the block's polynomial at x = fi + 1.  The zero slots of a
   final partial block add nothing to the dot product. *)
let fragment_symbol block ~weights ~fi =
  let k = Array.length block in
  if fi < k then block.(fi)
  else begin
    let acc = ref Gf.zero in
    for i = 0 to k - 1 do
      acc := Gf.add !acc (Gf.mul weights.(i) block.(i))
    done;
    !acc
  end

let encode ~k ~n payload =
  check_params ~k ~n;
  let blocks = block_count ~k payload in
  let weights = Array.init n (encoding_weights ~k) in
  let fragments = Array.init n (fun fi -> { index = fi; data = Array.make blocks Gf.zero }) in
  let block = Array.make k Gf.zero in
  for b = 0 to blocks - 1 do
    read_block payload b block;
    for fi = 0 to Array.length fragments - 1 do
      fragments.(fi).data.(b) <- fragment_symbol block ~weights:weights.(fi) ~fi
    done
  done;
  fragments

let decode ~k ~len fragments =
  check_params ~k ~n:k;
  let fragments =
    List.sort_uniq (fun a b -> Int.compare a.index b.index) fragments
  in
  if List.length fragments < k then
    invalid_arg "Rs.decode: not enough distinct fragments";
  let chosen = Array.of_list (List.filteri (fun i _ -> i < k) fragments) in
  let blocks = Array.length chosen.(0).data in
  Array.iter
    (fun fragment ->
      if Array.length fragment.data <> blocks then
        invalid_arg "Rs.decode: fragments of unequal length")
    chosen;
  if blocks * k * symbol_bytes < len then
    invalid_arg "Rs.decode: fragments too short for the claimed length";
  let xs = Array.map (fun fragment -> fragment.index + 1) chosen in
  let bytes = Bytes.make len '\000' in
  for i = 0 to k - 1 do
    (* Data position [i] is every block's value at x = i + 1.  A chosen
       fragment with index [i] holds exactly that, so it is copied: its
       weight vector would be the unit vector.  Otherwise one weight
       vector serves every block. *)
    match Array.find_opt (fun fragment -> fragment.index = i) chosen with
    | Some fragment ->
      for b = 0 to blocks - 1 do
        put_symbol bytes ~len ((b * k) + i) fragment.data.(b)
      done
    | None ->
      let weights = lagrange_weights ~xs ~x:(i + 1) in
      for b = 0 to blocks - 1 do
        let acc = ref Gf.zero in
        for j = 0 to k - 1 do
          acc := Gf.add !acc (Gf.mul weights.(j) chosen.(j).data.(b))
        done;
        put_symbol bytes ~len ((b * k) + i) !acc
      done
  done;
  Bytes.unsafe_to_string bytes

(* ----------------------------------------------------------------- *)
(* Merkle commitment                                                 *)
(* ----------------------------------------------------------------- *)

module Merkle = struct
  type root = int

  type branch = int list

  (* Modeled digest width: a production system would use a 256-bit
     hash; the simulator charges that size on the wire while computing
     a cheap 62-bit mix internally.  [hash_bytes] is the lambda in the
     O(|m|/n + lambda log n) per-link bound. *)
  let hash_bytes = 32

  (* splitmix-style finalizer with multipliers that fit OCaml's 63-bit
     native int, so hashing is deterministic across runs and
     platforms. *)
  let mix h x =
    let h = (h lxor x) * 0x2545F4914F6CDD1D in
    let h = (h lxor (h lsr 30)) * 0x369DEA0F31A53F85 in
    let h = (h lxor (h lsr 27)) * 0x27D4EB2F165667C5 in
    h lxor (h lsr 31)

  (* A leaf hashes (symbol count, payload length, index), then each
     symbol in order. *)
  let leaf_start ~len ~blocks ~index = mix (mix (mix 0x1EAF blocks) len) index

  let leaf_hash ~len fragment =
    let data = fragment.data in
    let h = ref (leaf_start ~len ~blocks:(Array.length data) ~index:fragment.index) in
    for b = 0 to Array.length data - 1 do
      h := mix !h (Gf.to_int data.(b))
    done;
    !h

  let node_hash left right = mix (mix 0x0DDE left) right

  (* Leaves are padded to the next power of two with a fixed empty
     hash so every branch has the same depth. *)
  let empty_leaf = mix 0xE117 0

  let rec pow2_at_least x = if x <= 1 then 1 else 2 * pow2_at_least ((x + 1) / 2)

  let padded leaves =
    let nleaves = Array.length leaves in
    Array.init (pow2_at_least nleaves) (fun i ->
        if i < nleaves then leaves.(i) else empty_leaf)

  (* One level up: node [i] hashes children [2i] and [2i + 1]. *)
  let parent level =
    Array.init (Array.length level / 2) (fun i ->
        node_hash level.(2 * i) level.((2 * i) + 1))

  let rec root_of level =
    if Array.length level > 1 then root_of (parent level) else level.(0)

  let commit ~len fragments =
    if Array.length fragments = 0 then invalid_arg "Rs.Merkle.commit: no fragments";
    let level = padded (Array.map (leaf_hash ~len) fragments) in
    (* levels.(0) = leaves, last = [| root |]; branches read one
       sibling per level. *)
    let levels = ref [ level ] in
    let current = ref level in
    while Array.length !current > 1 do
      let next = parent !current in
      levels := next :: !levels;
      current := next
    done;
    let root = !current.(0) in
    let levels = List.rev !levels in
    let branch_of index =
      let rec collect levels index acc =
        match levels with
        | [] | [ _ ] -> List.rev acc
        | level :: rest ->
          let sibling = level.(index lxor 1) in
          collect rest (index / 2) (sibling :: acc)
      in
      collect levels index []
    in
    (root, Array.init (Array.length fragments) branch_of)

  let verify ~root ~len ~index branch fragment =
    fragment.index = index
    && begin
         let h = ref (leaf_hash ~len fragment) in
         let pos = ref index in
         List.iter
           (fun sibling ->
             h :=
               (if !pos land 1 = 0 then node_hash !h sibling
                else node_hash sibling !h);
             pos := !pos / 2)
           branch;
         !h = root
       end

  let root_wire_bytes = hash_bytes

  let branch_wire_bytes branch = hash_bytes * List.length branch
end

(* [fst (Merkle.commit ~len (encode ~k ~n payload))]: the loop of
   [encode], folding each fragment's symbol into that fragment's
   running leaf hash instead of storing it.  Neither the fragments nor
   the branches are built, so a call allocates O(n * k) words whatever
   the payload's size. *)
let commitment ~k ~n payload =
  check_params ~k ~n;
  let len = String.length payload in
  let blocks = block_count ~k payload in
  let weights = Array.init n (encoding_weights ~k) in
  let leaves = Array.init n (fun fi -> Merkle.leaf_start ~len ~blocks ~index:fi) in
  let block = Array.make k Gf.zero in
  for b = 0 to blocks - 1 do
    read_block payload b block;
    for fi = 0 to Array.length leaves - 1 do
      let symbol = fragment_symbol block ~weights:weights.(fi) ~fi in
      leaves.(fi) <- Merkle.mix leaves.(fi) (Gf.to_int symbol)
    done
  done;
  Merkle.root_of (Merkle.padded leaves)
