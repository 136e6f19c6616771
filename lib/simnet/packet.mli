(** On-the-wire units carried by the fabric.  TCP segments expose the fields
    the protocol engine needs (sequence/ack numbers, flags, window, urgent
    pointer); UDP and raw IP are opaque payloads. *)

type tcp_flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  urg : bool;
}

val no_flags : tcp_flags

type tcp_seg = {
  seq : int;
  ack_no : int;
  flags : tcp_flags;
  window : int;
  urg_ptr : int;  (** offset just past the urgent byte, relative to [seq] *)
  payload : string;
}

type body =
  | Tcp_seg of tcp_seg
  | Udp_dgram of string
  | Raw_ip of int * string  (** protocol number, payload *)

type t = { src : Addr.t; dst : Addr.t; body : body }

val header_bytes : body -> int
val size : t -> int
(** Wire size including modelled IP/transport headers. *)

val pp : Format.formatter -> t -> unit
