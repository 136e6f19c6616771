(* POV-Ray-style distributed ray tracing (the paper's PVM workload): rank 0
   is the master holding the framebuffer and the work queue of pixel-row
   blocks; workers request blocks, trace them for real (Scene), and return
   pixels.  CPU-intensive with small, frequent messages; memory footprint
   is roughly constant per endpoint regardless of cluster size — which is
   why the paper's POV-Ray checkpoint image does not shrink with more
   nodes. *)

module Value = Zapc_codec.Value
module Simtime = Zapc_sim.Simtime
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Mpi = Zapc_msg.Mpi

let tag_req = 11
let tag_work = 12
let tag_res = 13
let tag_done = 14

type params = {
  width : int;
  height : int;
  block_rows : int;
  ns_per_pixel : int;
  mem_each : int;
}

let default_params =
  { width = 320; height = 200; block_rows = 8; ns_per_pixel = 1_400; mem_each = 10_000_000 }

let params_to_value p =
  Value.assoc
    [ ("width", Value.int p.width); ("height", Value.int p.height);
      ("block_rows", Value.int p.block_rows); ("ns_per_pixel", Value.int p.ns_per_pixel);
      ("mem_each", Value.int p.mem_each) ]

let params_of_value v =
  {
    width = Value.to_int (Value.field "width" v);
    height = Value.to_int (Value.field "height" v);
    block_rows = Value.to_int (Value.field "block_rows" v);
    ns_per_pixel = Value.to_int (Value.field "ns_per_pixel" v);
    mem_each = Value.to_int (Value.field "mem_each" v);
  }

let u32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

let read_u32 s = Int32.to_int (String.get_int32_le s 0)

type phase =
  (* master *)
  | M_boot
  | M_initing
  | M_recv
  | M_reply of int  (* after sending WORK/DONE to a worker *)
  | M_self of int  (* single-rank mode: compute block ourselves *)
  (* worker *)
  | W_boot
  | W_initing
  | W_request
  | W_await
  | W_compute of int
  | W_send_res of int
  | Fin_write  (* master: writing the output image to the pod fs *)
  | Fin_phase

module P = struct
  type state = {
    comm : Mpi.comm;
    params : params;
    mutable phase : phase;
    mutable mpi : Mpi.pending option;
    fb : Bytes.t;  (* master framebuffer, width*height grayscale, written in place *)
    mutable next_block : int;
    mutable results : int;
    mutable dones_sent : int;
    mutable block_buf : string;  (* worker's last rendered block *)
  }

  let name = "povray"

  let start args =
    let rank, size, vips, port, app = Mpi.parse_args args in
    let comm = Mpi.make ~rank ~size ~vips ~port in
    let params = params_of_value app in
    {
      comm;
      params;
      phase = (if rank = 0 then M_boot else W_boot);
      mpi = None;
      fb = (if rank = 0 then Bytes.make (params.width * params.height) '\000' else Bytes.empty);
      next_block = 0;
      results = 0;
      dones_sent = 0;
      block_buf = "";
    }

  let blocks s =
    (s.params.height + s.params.block_rows - 1) / s.params.block_rows

  let block_rows s b =
    let y0 = b * s.params.block_rows in
    Stdlib.min s.params.block_rows (s.params.height - y0)

  let render s b =
    let y0 = b * s.params.block_rows in
    let rows = block_rows s b in
    s.block_buf <- Scene.render_block Scene.default ~width:s.params.width
        ~height:s.params.height ~y0 ~rows;
    Program.Compute
      (Simtime.ns (Stdlib.max 1 (s.params.width * rows * s.params.ns_per_pixel)))

  (* copy a block's pixels into the framebuffer at its first row *)
  let blit_block s b pixels ~off =
    Bytes.blit_string pixels off s.fb (b * s.params.block_rows * s.params.width)
      (String.length pixels - off)

  (* a RES message is the block number, then the block's pixels *)
  let blit_result s data =
    blit_block s (read_u32 data) data ~off:4;
    s.results <- s.results + 1

  let enter_mpi s (pending, act) =
    s.mpi <- Some pending;
    act

  let checksum s =
    let acc = ref 0 in
    Bytes.iter (fun c -> acc := (!acc + Char.code c) land 0xFFFFFF) s.fb;
    !acc

  let master_finished s =
    s.results >= blocks s && s.dones_sent >= s.comm.size - 1

  (* the master writes the finished image (a real PGM) into its pod's file
     namespace on the shared store, then logs the checksum *)
  let pgm s =
    (* [^] copies the framebuffer at once *)
    Printf.sprintf "P5\n%d %d\n255\n" s.params.width s.params.height
    ^ Bytes.unsafe_to_string s.fb

  let master_finish_action s =
    s.phase <- Fin_write;
    Program.Sys (Syscall.Fs_put ("/out.pgm", pgm s))

  let master_log_action s =
    s.phase <- Fin_phase;
    Program.Sys
      (Syscall.Log
         (Printf.sprintf "povray: rendered %dx%d in %d blocks, checksum %06x"
            s.params.width s.params.height (blocks s) (checksum s)))

  let master_recv s =
    s.phase <- M_recv;
    enter_mpi s (Mpi.recv s.comm ~src:Mpi.any_src ~tag:Mpi.any_tag)

  let rec continue s (r : Mpi.result) : Program.action =
    match (s.phase, r) with
    | _, Mpi.R_fail msg ->
      s.phase <- Fin_phase;
      Program.Sys (Syscall.Log (name ^ ": MPI failure: " ^ msg))
    (* --- master --- *)
    | M_initing, _ ->
      if s.comm.size = 1 then begin
        s.phase <- M_self 0;
        render s 0
      end
      else master_recv s
    | M_recv, Mpi.R_msg { src; tag; data } ->
      if tag = tag_req then begin
        if s.next_block < blocks s then begin
          let b = s.next_block in
          s.next_block <- b + 1;
          s.phase <- M_reply src;
          enter_mpi s (Mpi.send s.comm ~peer:src ~tag:tag_work (u32 b))
        end
        else begin
          s.dones_sent <- s.dones_sent + 1;
          s.phase <- M_reply src;
          enter_mpi s (Mpi.send s.comm ~peer:src ~tag:tag_done "")
        end
      end
      else if tag = tag_res then begin
        blit_result s data;
        if master_finished s then master_finish_action s else master_recv s
      end
      else continue s (Mpi.R_fail (Printf.sprintf "master: unexpected tag %d" tag))
    | M_reply _, _ ->
      if master_finished s then master_finish_action s else master_recv s
    (* --- worker --- *)
    | W_initing, _ ->
      s.phase <- W_request;
      enter_mpi s (Mpi.send s.comm ~peer:0 ~tag:tag_req "")
    | W_request, _ ->
      s.phase <- W_await;
      enter_mpi s (Mpi.recv s.comm ~src:0 ~tag:Mpi.any_tag)
    | W_await, Mpi.R_msg { tag; data; _ } ->
      if tag = tag_work then begin
        let b = read_u32 data in
        s.phase <- W_compute b;
        render s b
      end
      else begin
        s.phase <- Fin_phase;
        Program.Exit 0
      end
    | W_send_res _, _ ->
      s.phase <- W_request;
      enter_mpi s (Mpi.send s.comm ~peer:0 ~tag:tag_req "")
    | (M_boot | W_boot | M_self _ | W_compute _ | Fin_write | Fin_phase), _
    | (M_recv | W_await), (Mpi.R_ok | Mpi.R_floats _ | Mpi.R_gather _) ->
      continue s (Mpi.R_fail "unexpected MPI result")

  let step s (outcome : Syscall.outcome) =
    match s.mpi with
    | Some pending ->
      (match Mpi.step s.comm pending outcome with
       | `Again (p, act) ->
         s.mpi <- Some p;
         (s, act)
       | `Done r ->
         s.mpi <- None;
         (s, continue s r))
    | None ->
      (match s.phase with
       | M_boot | W_boot ->
         (match outcome with
          | Syscall.Started ->
            (s, Program.Sys (Syscall.Mem_alloc ("povray.rss", s.params.mem_each)))
          | _ ->
            s.phase <- (if s.comm.rank = 0 then M_initing else W_initing);
            (s, enter_mpi s (Mpi.init s.comm)))
       | M_self b ->
         (* single-rank: block rendered; keep going *)
         blit_block s b s.block_buf ~off:0;
         s.results <- s.results + 1;
         let b' = b + 1 in
         if b' < blocks s then begin
           s.phase <- M_self b';
           (s, render s b')
         end
         else (s, master_finish_action s)
       | W_compute b ->
         (* block rendered: ship it *)
         s.phase <- W_send_res b;
         (s, enter_mpi s (Mpi.send s.comm ~peer:0 ~tag:tag_res (u32 b ^ s.block_buf)))
       | Fin_write -> (s, master_log_action s)
       | Fin_phase -> (s, Program.Exit 0)
       | M_initing | M_recv | M_reply _ | W_initing | W_request | W_await
       | W_send_res _ -> (s, Program.Exit 1))

  let phase_to_value p =
    let t n v = Value.Tag (n, v) in
    match p with
    | M_boot -> t "m_boot" Value.Unit
    | M_initing -> t "m_initing" Value.Unit
    | M_recv -> t "m_recv" Value.Unit
    | M_reply w -> t "m_reply" (Value.Int w)
    | M_self b -> t "m_self" (Value.Int b)
    | W_boot -> t "w_boot" Value.Unit
    | W_initing -> t "w_initing" Value.Unit
    | W_request -> t "w_request" Value.Unit
    | W_await -> t "w_await" Value.Unit
    | W_compute b -> t "w_compute" (Value.Int b)
    | W_send_res b -> t "w_send_res" (Value.Int b)
    | Fin_write -> t "fin_write" Value.Unit
    | Fin_phase -> t "fin" Value.Unit

  let phase_of_value v =
    match Value.to_tag v with
    | "m_boot", _ -> M_boot
    | "m_initing", _ -> M_initing
    | "m_recv", _ -> M_recv
    | "m_reply", w -> M_reply (Value.to_int w)
    | "m_self", b -> M_self (Value.to_int b)
    | "w_boot", _ -> W_boot
    | "w_initing", _ -> W_initing
    | "w_request", _ -> W_request
    | "w_await", _ -> W_await
    | "w_compute", b -> W_compute (Value.to_int b)
    | "w_send_res", b -> W_send_res (Value.to_int b)
    | "fin_write", _ -> Fin_write
    | "fin", _ -> Fin_phase
    | t, _ -> Value.decode_error "povray phase %s" t

  let to_value s =
    Value.assoc
      [ ("comm", Mpi.comm_to_value s.comm);
        ("params", params_to_value s.params);
        ("phase", phase_to_value s.phase);
        ("mpi", Value.option Mpi.pending_to_value s.mpi);
        ("fb", Value.str (Bytes.to_string s.fb));
        ("next_block", Value.int s.next_block);
        ("results", Value.int s.results);
        ("dones_sent", Value.int s.dones_sent);
        ("block_buf", Value.str s.block_buf) ]

  let of_value v =
    {
      comm = Mpi.comm_of_value (Value.field "comm" v);
      params = params_of_value (Value.field "params" v);
      phase = phase_of_value (Value.field "phase" v);
      mpi = Value.to_option Mpi.pending_of_value (Value.field "mpi" v);
      fb = Bytes.of_string (Value.to_str (Value.field "fb" v));
      next_block = Value.to_int (Value.field "next_block" v);
      results = Value.to_int (Value.field "results" v);
      dones_sent = Value.to_int (Value.field "dones_sent" v);
      block_buf = Value.to_str (Value.field "block_buf" v);
    }
end

let register () = Program.register_if_absent (module P : Program.S)
