(* One untraced sample: the workload's campaigns, each timed as one
   region from [Harness.run_campaign] until [Report.all] has rendered
   its report into a buffer, then checked cell by cell outside the timed
   region. *)

module Harness = Gcr_core.Harness

type t = {
  campaign_s : float;  (** per campaign: from the run_campaign call to the rendered report *)
  render_s : float;  (** per campaign *)
  outcome : ((Harness.campaign * string) list, string) result;
      (** each campaign and its report, or why one is missing *)
}

let now = Unix.gettimeofday

(* [Report.all] prints to stdout; point fd 1 at a file for the call and
   read it back, so the report stays out of the benchmark's output. *)
let render_to_string campaign ~path =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    (fun () -> Gcr_core.Report.all campaign);
  In_channel.with_open_bin path In_channel.input_all

(* Every campaign starts from a compacted OCaml heap, so the collector's
   work (and the peak resident set) does not depend on what earlier
   samples left behind; a cold workload also starts with an empty
   minheap memo. *)
let run_one (w : Workload.t) (config : Harness.config) ~report_path =
  if not w.Workload.warm_minheap then Gcr_core.Minheap.clear_memo ();
  Gc.compact ();
  let specs = List.map Gcr_workloads.Suite.find_exn w.Workload.benchmarks in
  let started = now () in
  let outcome, render_s =
    match Harness.run_campaign config ~benchmarks:specs ~gcs:w.Workload.gcs with
    | exception exn -> (Error ("campaign raised " ^ Printexc.to_string exn), 0.0)
    | campaign -> (
        let render_start = now () in
        match render_to_string campaign ~path:report_path with
        | report -> (Ok (campaign, report), now () -. render_start)
        | exception exn ->
            (Error ("report raised " ^ Printexc.to_string exn), now () -. render_start))
  in
  (now () -. started, render_s, outcome)

let run (w : Workload.t) (config : Harness.config) ~report_path =
  let runs = List.map (fun c -> run_one w c ~report_path) (Workload.campaign_configs w config) in
  let mean f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs /. float_of_int (List.length runs) in
  let outcome =
    List.fold_right
      (fun (_, _, o) acc ->
        match (o, acc) with
        | Error reason, _ -> Error reason
        | Ok _, Error reason -> Error reason
        | Ok c, Ok cs -> Ok (c :: cs))
      runs (Ok [])
  in
  { campaign_s = mean (fun (t, _, _) -> t); render_s = mean (fun (_, r, _) -> r); outcome }

let table t =
  match t.outcome with
  | Ok campaigns -> Ok (List.concat_map (fun (c, _) -> Cells.of_campaign c) campaigns)
  | Error reason -> Error reason
