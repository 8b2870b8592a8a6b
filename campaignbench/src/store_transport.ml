(* The two fabric layers the campaign's own accounting does not time: the
   frame transport and the artifact store. *)

module Transport = Gcr_sched.Transport

(* Median round trip of one frame over a socketpair, in microseconds:
   one end sends a 256-byte payload, the other receives and echoes it,
   the first receives.  The median is over 7 batches of 500 round trips.
   Both ends live in this process, so it times framing, checksums and
   the system calls, not scheduling between processes. *)
let frame_rtt_us () =
  let payload_bytes = 256 and batches = 7 and per_batch = 500 in
  let a_fd, b_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let a = Transport.of_socket a_fd and b = Transport.of_socket b_fd in
  let payload = String.make payload_bytes 'x' in
  let scratch = Buffer.create 1024 in
  let round_trip () =
    Transport.send ~scratch a ~tag:'P' payload;
    match Transport.recv b with
    | Some (tag, body) -> (
        Transport.send ~scratch b ~tag body;
        match Transport.recv a with
        | Some (_, echoed) when echoed = payload -> ()
        | _ -> failwith "frame_rtt_us: echo lost or changed")
    | None -> failwith "frame_rtt_us: peer closed"
  in
  Fun.protect
    ~finally:(fun () ->
      Transport.close a;
      Transport.close b)
    (fun () ->
      round_trip ();
      let times =
        List.init batches (fun _ ->
            let started = Unix.gettimeofday () in
            for _ = 1 to per_batch do
              round_trip ()
            done;
            (Unix.gettimeofday () -. started) /. float_of_int per_batch *. 1e6)
      in
      Stats.median times)

let rec dir_bytes path =
  match Sys.is_directory path with
  | true -> Array.fold_left (fun acc e -> acc + dir_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
