(* A shell-style pipeline inside one pod: producer | filter | consumer.

   The paper's Zap foundation checkpoints whole process groups including
   their interprocess communication; this workload exercises exactly that —
   three processes connected by two in-kernel pipes, spawned with inherited
   descriptors, checkpointed mid-stream (pipe buffers, blocked readers and
   writers included) and restarted transparently.

   producer: emits [lines] numbered records into pipe A, then closes it.
   filter:   reads records from pipe A, uppercases the payload and keeps
             every [keep]-th record, writes to pipe B, closes on EOF.
   consumer: reads pipe B, accumulates a checksum, logs it at EOF.

   The driver program ("pipeline") builds the pipes, spawns the three
   stages, waits for the consumer and exits with its status. *)

module Value = Zapc_codec.Value
module Simtime = Zapc_sim.Simtime
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall

type params = { lines : int; keep : int; ns_per_line : int }

let default_params = { lines = 2_000; keep = 3; ns_per_line = 20_000 }

let params_to_value p =
  Value.assoc
    [ ("lines", Value.int p.lines); ("keep", Value.int p.keep);
      ("ns_per_line", Value.int p.ns_per_line) ]

let params_of_value v =
  {
    lines = Value.to_int (Value.field "lines" v);
    keep = Value.to_int (Value.field "keep" v);
    ns_per_line = Value.to_int (Value.field "ns_per_line" v);
  }

(* --- producer --- *)

module Producer = struct
  type state = {
    wfd : int;
    lines : int;
    ns : int;
    mutable unused : int list;  (* inherited fds to close first *)
    mutable next : int;
    mutable rem : string;  (* unwritten tail of the current record *)
    mutable ph : int;  (* 0 compute, 1 write, 2 close, 3 exit *)
  }

  let name = "pipeline.producer"

  let start args =
    { wfd = Value.to_int (Value.field "wfd" args);
      lines = Value.to_int (Value.field "lines" args);
      ns = Value.to_int (Value.field "ns" args);
      unused = Value.to_list Value.to_int (Value.field "unused" args);
      next = 0; rem = ""; ph = 0 }

  let record n = Printf.sprintf "record-%06d:payload-%d\n" n (n * n mod 9973)

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | 0, _ when s.unused <> [] ->
      (* close inherited copies of the other pipe ends so EOF propagates *)
      let fd = List.hd s.unused in
      s.unused <- List.tl s.unused;
      (s, Program.Sys (Syscall.Close fd))
    | 0, _ ->
      if s.next >= s.lines then begin
        s.ph <- 2;
        (s, Program.Sys (Syscall.Close s.wfd))
      end
      else begin
        s.rem <- record s.next;
        s.next <- s.next + 1;
        s.ph <- 1;
        (s, Program.Compute (Stdlib.max 1 s.ns))
      end
    | 1, Syscall.Ret (Syscall.Rint n) ->
      s.rem <- String.sub s.rem n (String.length s.rem - n);
      if String.length s.rem = 0 then begin
        s.ph <- 0;
        (s, Program.Compute 1)
      end
      else (s, Program.Sys (Syscall.Write (s.wfd, s.rem)))
    | 1, _ -> (s, Program.Sys (Syscall.Write (s.wfd, s.rem)))
    | 2, _ -> (s, Program.Exit 0)
    | _, _ -> (s, Program.Exit 1)

  let to_value s =
    Value.assoc
      [ ("wfd", Value.int s.wfd); ("lines", Value.int s.lines); ("ns", Value.int s.ns);
        ("unused", Value.list Value.int s.unused);
        ("next", Value.int s.next); ("rem", Value.str s.rem); ("ph", Value.int s.ph) ]

  let of_value v =
    { wfd = Value.to_int (Value.field "wfd" v);
      lines = Value.to_int (Value.field "lines" v);
      ns = Value.to_int (Value.field "ns" v);
      unused = Value.to_list Value.to_int (Value.field "unused" v);
      next = Value.to_int (Value.field "next" v);
      rem = Value.to_str (Value.field "rem" v);
      ph = Value.to_int (Value.field "ph" v) }
end

(* --- filter --- *)

module Filter = struct
  type state = {
    rfd : int;
    wfd : int;
    keep : int;
    mutable unused : int list;
    mutable buf : string;  (* partial input line *)
    mutable seen : int;
    mutable out : string;  (* unwritten output *)
    mutable ph : int;  (* 0 read, 1 write, 2 close, 3 exit *)
    mutable eof : bool;
  }

  let name = "pipeline.filter"

  let start args =
    { rfd = Value.to_int (Value.field "rfd" args);
      wfd = Value.to_int (Value.field "wfd" args);
      keep = Value.to_int (Value.field "keep" args);
      unused = Value.to_list Value.to_int (Value.field "unused" args);
      buf = ""; seen = 0; out = ""; ph = 0; eof = false }

  (* consume complete lines from [buf]; keep every [keep]-th, uppercased *)
  let process s =
    let rec go () =
      match String.index_opt s.buf '\n' with
      | None -> ()
      | Some i ->
        let line = String.sub s.buf 0 i in
        s.buf <- String.sub s.buf (i + 1) (String.length s.buf - i - 1);
        s.seen <- s.seen + 1;
        if s.seen mod s.keep = 0 then
          s.out <- s.out ^ String.uppercase_ascii line ^ "\n";
        go ()
    in
    go ()

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | 0, _ when s.unused <> [] ->
      let fd = List.hd s.unused in
      s.unused <- List.tl s.unused;
      (s, Program.Sys (Syscall.Close fd))
    | 0, Syscall.Ret (Syscall.Rdata "") ->
      s.eof <- true;
      if String.length s.out > 0 then begin
        s.ph <- 1;
        (s, Program.Sys (Syscall.Write (s.wfd, s.out)))
      end
      else begin
        s.ph <- 2;
        (s, Program.Sys (Syscall.Close s.wfd))
      end
    | 0, Syscall.Ret (Syscall.Rdata d) ->
      s.buf <- s.buf ^ d;
      process s;
      if String.length s.out > 0 then begin
        s.ph <- 1;
        (s, Program.Sys (Syscall.Write (s.wfd, s.out)))
      end
      else (s, Program.Sys (Syscall.Read (s.rfd, 4096)))
    | 0, _ -> (s, Program.Sys (Syscall.Read (s.rfd, 4096)))
    | 1, Syscall.Ret (Syscall.Rint n) ->
      s.out <- String.sub s.out n (String.length s.out - n);
      if String.length s.out > 0 then (s, Program.Sys (Syscall.Write (s.wfd, s.out)))
      else if s.eof then begin
        s.ph <- 2;
        (s, Program.Sys (Syscall.Close s.wfd))
      end
      else begin
        s.ph <- 0;
        (s, Program.Sys (Syscall.Read (s.rfd, 4096)))
      end
    | 1, _ -> (s, Program.Sys (Syscall.Write (s.wfd, s.out)))
    | 2, _ -> (s, Program.Exit 0)
    | _, _ -> (s, Program.Exit 1)

  let to_value s =
    Value.assoc
      [ ("rfd", Value.int s.rfd); ("wfd", Value.int s.wfd); ("keep", Value.int s.keep);
        ("unused", Value.list Value.int s.unused);
        ("buf", Value.str s.buf); ("seen", Value.int s.seen); ("out", Value.str s.out);
        ("ph", Value.int s.ph); ("eof", Value.bool s.eof) ]

  let of_value v =
    { rfd = Value.to_int (Value.field "rfd" v);
      wfd = Value.to_int (Value.field "wfd" v);
      keep = Value.to_int (Value.field "keep" v);
      unused = Value.to_list Value.to_int (Value.field "unused" v);
      buf = Value.to_str (Value.field "buf" v);
      seen = Value.to_int (Value.field "seen" v);
      out = Value.to_str (Value.field "out" v);
      ph = Value.to_int (Value.field "ph" v);
      eof = Value.to_bool (Value.field "eof" v) }
end

(* --- consumer --- *)

module Consumer = struct
  type state = {
    rfd : int;
    mutable unused : int list;
    mutable records : int;
    mutable digest : int;
    mutable buf : string;
    mutable ph : int;
  }

  let name = "pipeline.consumer"

  let start args =
    { rfd = Value.to_int (Value.field "rfd" args);
      unused = Value.to_list Value.to_int (Value.field "unused" args);
      records = 0; digest = 0; buf = ""; ph = 0 }

  let absorb s d =
    s.buf <- s.buf ^ d;
    let rec go () =
      match String.index_opt s.buf '\n' with
      | None -> ()
      | Some i ->
        let line = String.sub s.buf 0 i in
        s.buf <- String.sub s.buf (i + 1) (String.length s.buf - i - 1);
        s.records <- s.records + 1;
        String.iter (fun c -> s.digest <- ((s.digest * 31) + Char.code c) land 0xFFFFFF) line;
        go ()
    in
    go ()

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | 0, _ when s.unused <> [] ->
      let fd = List.hd s.unused in
      s.unused <- List.tl s.unused;
      (s, Program.Sys (Syscall.Close fd))
    | 0, Syscall.Ret (Syscall.Rdata "") ->
      s.ph <- 1;
      ( s,
        Program.Sys
          (Syscall.Log (Printf.sprintf "pipeline: %d records digest %06x" s.records s.digest)) )
    | 0, Syscall.Ret (Syscall.Rdata d) ->
      absorb s d;
      (s, Program.Sys (Syscall.Read (s.rfd, 4096)))
    | 0, _ -> (s, Program.Sys (Syscall.Read (s.rfd, 4096)))
    | 1, _ -> (s, Program.Exit 0)
    | _, _ -> (s, Program.Exit 1)

  let to_value s =
    Value.assoc
      [ ("rfd", Value.int s.rfd); ("unused", Value.list Value.int s.unused);
        ("records", Value.int s.records);
        ("digest", Value.int s.digest); ("buf", Value.str s.buf); ("ph", Value.int s.ph) ]

  let of_value v =
    { rfd = Value.to_int (Value.field "rfd" v);
      unused = Value.to_list Value.to_int (Value.field "unused" v);
      records = Value.to_int (Value.field "records" v);
      digest = Value.to_int (Value.field "digest" v);
      buf = Value.to_str (Value.field "buf" v);
      ph = Value.to_int (Value.field "ph" v) }
end

(* --- driver: builds pipes, spawns the stages, waits for the consumer --- *)

module P = struct
  type state = {
    params : params;
    mutable ph : int;  (* 0 pipeA, 1 pipeB, 2..4 spawns, 5..8 closes, 9 wait, 10 done *)
    mutable a_r : int;
    mutable a_w : int;
    mutable b_r : int;
    mutable b_w : int;
    mutable consumer : int;
  }

  let name = "pipeline"

  let start args =
    { params = params_of_value args; ph = 0; a_r = -1; a_w = -1; b_r = -1; b_w = -1;
      consumer = -1 }

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | 0, _ ->
      s.ph <- 1;
      (s, Program.Sys Syscall.Pipe)
    | 1, Syscall.Ret (Syscall.Rpair (r, w)) ->
      s.a_r <- r;
      s.a_w <- w;
      s.ph <- 2;
      (s, Program.Sys Syscall.Pipe)
    | 2, Syscall.Ret (Syscall.Rpair (r, w)) ->
      s.b_r <- r;
      s.b_w <- w;
      s.ph <- 3;
      ( s,
        Program.Sys
          (Syscall.Spawn
             ( "pipeline.producer",
               Value.assoc
                 [ ("wfd", Value.int s.a_w); ("lines", Value.int s.params.lines);
                   ("ns", Value.int s.params.ns_per_line);
                   ("unused", Value.list Value.int [ s.a_r; s.b_r; s.b_w ]) ] )) )
    | 3, Syscall.Ret (Syscall.Rint _) ->
      s.ph <- 4;
      ( s,
        Program.Sys
          (Syscall.Spawn
             ( "pipeline.filter",
               Value.assoc
                 [ ("rfd", Value.int s.a_r); ("wfd", Value.int s.b_w);
                   ("keep", Value.int s.params.keep);
                   ("unused", Value.list Value.int [ s.a_w; s.b_r ]) ] )) )
    | 4, Syscall.Ret (Syscall.Rint _) ->
      s.ph <- 5;
      ( s,
        Program.Sys
          (Syscall.Spawn
             ( "pipeline.consumer",
               Value.assoc
                 [ ("rfd", Value.int s.b_r);
                   ("unused", Value.list Value.int [ s.a_r; s.a_w; s.b_w ]) ] )) )
    | 5, Syscall.Ret (Syscall.Rint pid) ->
      (* close the driver's copies so EOF propagates stage to stage *)
      s.consumer <- pid;
      s.ph <- 6;
      (s, Program.Sys (Syscall.Close s.a_r))
    | 6, _ ->
      s.ph <- 7;
      (s, Program.Sys (Syscall.Close s.a_w))
    | 7, _ ->
      s.ph <- 8;
      (s, Program.Sys (Syscall.Close s.b_r))
    | 8, _ ->
      s.ph <- 9;
      (s, Program.Sys (Syscall.Close s.b_w))
    | 9, _ ->
      s.ph <- 10;
      (s, Program.Sys (Syscall.Waitpid s.consumer))
    | 10, Syscall.Ret (Syscall.Rint code) -> (s, Program.Exit code)
    | _, _ -> (s, Program.Exit 1)

  let to_value s =
    Value.assoc
      [ ("params", params_to_value s.params); ("ph", Value.int s.ph);
        ("a_r", Value.int s.a_r); ("a_w", Value.int s.a_w); ("b_r", Value.int s.b_r);
        ("b_w", Value.int s.b_w); ("consumer", Value.int s.consumer) ]

  let of_value v =
    { params = params_of_value (Value.field "params" v);
      ph = Value.to_int (Value.field "ph" v);
      a_r = Value.to_int (Value.field "a_r" v);
      a_w = Value.to_int (Value.field "a_w" v);
      b_r = Value.to_int (Value.field "b_r" v);
      b_w = Value.to_int (Value.field "b_w" v);
      consumer = Value.to_int (Value.field "consumer" v) }
end

let register () =
  Program.register_if_absent (module Producer);
  Program.register_if_absent (module Filter);
  Program.register_if_absent (module Consumer);
  Program.register_if_absent (module P)
