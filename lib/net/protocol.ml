type 'msg action =
  | Broadcast of 'msg
  | Send of Node_id.t * 'msg
  | Set_timer of { id : int; after : int }

module Context = struct
  type t = {
    me : Node_id.t;
    n : int;
    f : int;
    rng : Abc_prng.Stream.t;
    sink : Abc_sim.Event.sink;
  }

  let quorum ctx = ctx.n - ctx.f
end

module type S = sig
  type input
  type msg
  type output
  type state

  val name : string
  val initial : Context.t -> input -> state * msg action list

  val on_message :
    Context.t -> state -> src:Node_id.t -> msg -> state * msg action list * output list

  val on_timeout :
    Context.t -> state -> id:int -> state * msg action list * output list

  val is_terminal : output -> bool
  val msg_label : msg -> string
  val msg_bytes : msg -> int
  val pp_msg : msg Fmt.t
  val pp_output : output Fmt.t
end

let no_timeout _ctx state ~id:_ = (state, [], [])

(* Direct recursion rather than [List.map] over a [function]: the
   wrappers run on every delivery, and this allocates no closure. *)
let rec map_msgs f = function
  | [] -> []
  | action :: rest ->
    let action =
      match action with
      | Broadcast msg -> Broadcast (f msg)
      | Send (dst, msg) -> Send (dst, f msg)
      | Set_timer _ as a -> a
    in
    action :: map_msgs f rest

module Wire_size = struct
  let tag = 1

  let int = 4

  let node_id = 4

  let option inner = function None -> tag | Some v -> tag + inner v
end
