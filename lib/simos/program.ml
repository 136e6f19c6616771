(* Simulated programs.

   A program is an explicit transition system: [step state outcome] consumes
   the result of the previous action and produces the next.  The whole
   execution context — including the control point — lives in [state], which
   must round-trip through Value.  This is what makes processes
   transparently checkpointable in the simulation: the kernel can save
   (program name, encoded state, pending syscall) at any instant, exactly as
   a real kernel-level checkpointer saves the address space and task state.

   Programs are looked up by name in a global registry at spawn and restart
   time, the analogue of re-executing the binary from (shared) storage. *)

module Value = Zapc_codec.Value
module Simtime = Zapc_sim.Simtime

type action =
  | Compute of Simtime.t  (* occupy a CPU for this much virtual time *)
  | Sys of Syscall.t
  | Exit of int

module type S = sig
  type state

  val name : string
  val start : Value.t -> state
  val step : state -> Syscall.outcome -> state * action
  val to_value : state -> Value.t
  val of_value : Value.t -> state
end

(* A program with the type id of its state, if it registered one. *)
type entry = Entry : (module S with type state = 's) * 's Type.Id.t option -> entry

type instance =
  | Inst : (module S with type state = 's) * 's ref * 's Type.Id.t option -> instance

let registry : (string, entry) Hashtbl.t = Hashtbl.create 32

let register (type s) ?id (module P : S with type state = s) =
  if Hashtbl.mem registry P.name then
    invalid_arg ("Program.register: duplicate program " ^ P.name);
  Hashtbl.replace registry P.name (Entry ((module P), id))

let register_if_absent (type s) ?id (module P : S with type state = s) =
  if not (Hashtbl.mem registry P.name) then
    Hashtbl.replace registry P.name (Entry ((module P), id))

let lookup name : (module S) option =
  match Hashtbl.find_opt registry name with
  | Some (Entry ((module P), _)) -> Some (module P : S)
  | None -> None

let spawn name args : instance =
  match Hashtbl.find_opt registry name with
  | None -> invalid_arg ("Program.spawn: unknown program " ^ name)
  | Some (Entry ((module P), id)) -> Inst ((module P), ref (P.start args), id)

let restore name state_v : instance =
  match Hashtbl.find_opt registry name with
  | None -> invalid_arg ("Program.restore: unknown program " ^ name)
  | Some (Entry ((module P), id)) -> Inst ((module P), ref (P.of_value state_v), id)

let step_instance (Inst ((module P), st, _)) outcome : action =
  let state', action = P.step !st outcome in
  st := state';
  action

let snapshot (Inst ((module P), st, _)) : string * Value.t = (P.name, P.to_value !st)

let inspect (type a) (Inst (_, st, id)) (want : a Type.Id.t) : a option =
  match id with
  | None -> None
  | Some id ->
    (match Type.Id.provably_equal id want with Some Type.Equal -> Some !st | None -> None)

let name_of (Inst ((module P), _, _)) = P.name
