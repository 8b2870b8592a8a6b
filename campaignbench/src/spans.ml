(* In-memory span recorder for the traced run.

   A span is a named interval of host time with the span that caused it
   as its parent.  Spans stay in a list while the run executes and are
   written out once, as Chrome trace-event JSON (Perfetto opens it), when
   the run ends. *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

type t = { mutable spans : span list; mutable next : int; mutable stack : int list }

let now = Unix.gettimeofday

let create () = { spans = []; next = 0; stack = [] }

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; name; start; stop } :: t.spans)
    f

let spans t = List.rev t.spans

let duration s = s.stop -. s.start

let total t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0.0 t.spans

let count t name = List.length (List.filter (fun s -> s.name = name) t.spans)

(* The share of the root spans' time that none of their children covers —
   host time spent in the traced run outside every layer boundary. *)
let unattributed_frac t =
  let roots = List.filter (fun s -> s.parent = -1) t.spans in
  let root_ids = List.map (fun s -> s.id) roots in
  let covered =
    List.fold_left
      (fun acc s -> if List.mem s.parent root_ids then acc +. duration s else acc)
      0.0 t.spans
  in
  let wall = List.fold_left (fun acc s -> acc +. duration s) 0.0 roots in
  if wall <= 0.0 then 0.0 else Float.max 0.0 (1.0 -. (covered /. wall))

let write_chrome t path =
  let spans = spans t in
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) t0 spans in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
            (if i = 0 then "" else ",")
            s.name
            ((s.start -. t0) *. 1e6)
            (duration s *. 1e6) s.id s.parent)
        spans;
      output_string oc "\n]}\n")
