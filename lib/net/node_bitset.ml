(* Bit [i land 7] of byte [i lsr 3] is set iff node [i] is a member.
   The bytes are never mutated once a set has been handed out. *)
type t = Bytes.t

let empty ~n = Bytes.make ((n + 7) lsr 3) '\000'

let mem t id =
  let i = Node_id.to_int id in
  Char.code (Bytes.get t (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit t id =
  let i = Node_id.to_int id in
  let byte = i lsr 3 in
  Bytes.set t byte
    (Char.unsafe_chr (Char.code (Bytes.get t byte) lor (1 lsl (i land 7))))

let singleton ~n id =
  let t = empty ~n in
  set_bit t id;
  t

let add t id =
  if mem t id then t
  else begin
    let t = Bytes.copy t in
    set_bit t id;
    t
  end
