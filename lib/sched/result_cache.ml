module Measurement = Gcr_runtime.Measurement
module Run = Gcr_runtime.Run

type t = { dir : string }

(* v3: magic, then a digest of every byte that follows, then the
   marshalled (rendering, measurement).  The digest is checked before
   [Marshal.from_string] ever sees the bytes — Marshal on corrupted input
   is not merely exception-unsafe, it can segfault — so any corruption
   anywhere in the entry reads as a miss and re-executes.  v1/v2 entries
   fail the magic check and simply miss. *)
let magic = "GCR-RESULT-CACHE-3\n"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let create ~dir =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  { dir }

let env_dir () =
  match Sys.getenv_opt "GCR_CACHE_DIR" with Some "" | None -> None | Some dir -> Some dir

let of_env () =
  match env_dir () with
  | None -> None
  | Some dir -> ( try Some (create ~dir) with Sys_error _ -> None)

let dir t = t.dir

let path t ~digest = Filename.concat t.dir (digest ^ ".run")

(* Distinguishes temp files of concurrent writers.  Same-process domains
   get distinct stamps; cross-process collisions on one key are resolved
   by the atomic rename (last writer wins, both wrote equal content). *)
let stamp = Atomic.make 0

let read_entry path : (string * Measurement.t) option =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let entry =
        match
          let len = in_channel_length ic in
          really_input_string ic len
        with
        | exception _ -> None
        | raw ->
            let m = String.length magic and d = 16 (* MD5 bytes *) in
            if
              String.length raw >= m + d
              && String.equal (String.sub raw 0 m) magic
              && String.equal (String.sub raw m d)
                   (Digest.substring raw (m + d) (String.length raw - m - d))
            then
              (* the digest vouches for every byte Marshal will touch *)
              match
                (Marshal.from_string raw (m + d) : string * Measurement.t)
              with
              | exception _ -> None
              | rendering, measurement -> Some (rendering, measurement)
            else None
      in
      close_in_noerr ic;
      entry

let find t (config : Run.config) =
  match Cache_key.render config with
  | None -> None
  | Some rendering -> (
      let path = path t ~digest:(Digest.to_hex (Digest.string rendering)) in
      match read_entry path with
      | Some (stored, measurement) when String.equal stored rendering -> Some measurement
      | Some _ | None ->
          if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
          None)

let store t (config : Run.config) measurement =
  match Cache_key.render config with
  | None -> ()
  | Some rendering -> (
      let digest = Digest.to_hex (Digest.string rendering) in
      let final = path t ~digest in
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" final
          (Domain.self () :> int)
          (Atomic.fetch_and_add stamp 1)
      in
      try
        let oc = open_out_bin tmp in
        let body = Marshal.to_string ((rendering, measurement) : string * Measurement.t) [] in
        output_string oc magic;
        output_string oc (Digest.string body);
        output_string oc body;
        close_out oc;
        Sys.rename tmp final
      with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))
