(* The campaign benchmark's runner.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--ref-dir DIR] [--out-dir DIR] [--source-id ID] [--pin]

   Untraced (--trace 0): set up several times, then run the workload's
   campaign back to back for S seconds; print campaign_s, setup_s,
   peak_rss_mb and cells_passed_frac.  Traced (--trace 1): run pairs of
   an untraced campaign and the serial traced replay of it for S
   seconds; print the per-layer metrics.  Either way every cell is
   checked against the pinned reference digests for the seed, or, when
   none are pinned, against the first sample.  The last line of stdout
   is one JSON object: correct, attempted, failed, metrics.

   Run it from an empty working directory: the in-process minheap memo
   persists to ./.gcr-cache, and fabric stores are created here.  The
   wrapper campaignbench/run.py does that and scrubs GCR_* variables. *)

open Campaignbench
module Harness = Gcr_core.Harness
module Minheap = Gcr_core.Minheap

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let ref_dir = ref "campaignbench/reference"
let out_dir = ref ""
let source_id = ref "unknown"
let pin = ref false

let specs =
  [
    ("--workload", Arg.Set_string workload, "NAME fabric-fine | minheap-cold");
    ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S how long to measure (default 10)");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
    ("--ref-dir", Arg.Set_string ref_dir, "DIR pinned reference digests");
    ("--out-dir", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
    ("--source-id", Arg.Set_string source_id, "ID commit or source digest to record");
    ("--pin", Arg.Set pin, " write this seed's reference digests from the first sample");
  ]

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("campaignbench: " ^ msg); exit 2) fmt

let now = Unix.gettimeofday

let gcr_env () =
  List.filter
    (fun kv -> String.starts_with ~prefix:"GCR_" kv)
    (Array.to_list (Unix.environment ()))

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let kb =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec loop () =
          match In_channel.input_line ic with
          | None -> 0
          | Some line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf line "VmHWM: %d kB" Fun.id
          | Some _ -> loop ()
        in
        loop ())
  in
  float_of_int kb /. 1024.0

(* Start a new VmHWM window at the current resident set, so that the
   peak read later covers the campaign samples and not set-up. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error msg -> fail "cannot reset the peak resident set: %s" msg

let report_path = "report.txt"

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir = Printf.sprintf "store-%d" !dir_counter in
  Store_transport.remove_tree dir;
  Unix.mkdir dir 0o755;
  dir

let config_for (w : Workload.t) ~cache_dir = Workload.config w ~seed:!seed ~cache_dir

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* --- the gate's reference --- *)

type gate = { mutable reference : Cells.table option; pinned : bool }

let gate_for (w : Workload.t) =
  let path = Cells.reference_path ~dir:!ref_dir ~workload:w.Workload.name ~seed:!seed in
  match Cells.load path with
  | Some table when not !pin -> { reference = Some table; pinned = true }
  | Some _ | None -> { reference = None; pinned = false }

(* Failed cells of [table] (a sample's or the traced run's); without a
   pinned reference the first table checked becomes the reference, so
   later samples and the traced run must be bit-identical to it. *)
let check gate (w : Workload.t) ~attempted (table : (Cells.table, string) result) =
  match table with
  | Error reason -> (attempted, [ reason ])
  | Ok table ->
      let reference =
        match gate.reference with
        | Some r -> r
        | None ->
            gate.reference <- Some table;
            if !pin then
              Cells.save (Cells.reference_path ~dir:!ref_dir ~workload:w.Workload.name ~seed:!seed) table;
            table
      in
      let failing = Cells.failing ~reference table in
      (min attempted (List.length failing), failing)

let report_failures failing =
  List.iteri (fun i id -> if i < 5 then Printf.eprintf "campaignbench: failed cell %s\n%!" id) failing

(* --- set-up --- *)

let setup_once (w : Workload.t) =
  let config = config_for w ~cache_dir:None in
  let started = now () in
  let dir = Workload.setup w config ~fresh_dir in
  (now () -. started, dir)

let setup_repeats (w : Workload.t) = if w.Workload.warm_minheap then 5 else 31

let header (w : Workload.t) =
  Printf.printf "campaignbench workload=%s seed=%d trace=%d nproc=%d ocaml=%s source=%s\n%!"
    w.Workload.name !seed !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !source_id

(* --- untraced: end-to-end metrics --- *)

let untraced (w : Workload.t) =
  let setups = List.init (setup_repeats w) (fun _ -> setup_once w) in
  let setup_s = Stats.median (List.map fst setups) in
  List.iter (fun (_, dir) -> Option.iter Store_transport.remove_tree dir) setups;
  let setup_peak = peak_rss_mb () in
  Gc.compact ();
  reset_peak_rss ();
  let gate = gate_for w in
  let attempted_per = Workload.expected_cells w in
  let deadline = now () +. !seconds in
  let rec loop acc =
    let cache_dir = Option.map (fun _ -> fresh_dir ()) w.Workload.workers in
    let s = Sample.run w (config_for w ~cache_dir) ~report_path in
    Option.iter Store_transport.remove_tree cache_dir;
    let failed, failing = check gate w ~attempted:attempted_per (Sample.table s) in
    report_failures failing;
    (* keep the time and the verdict, not the campaign *)
    let acc = (s.Sample.campaign_s, failed) :: acc in
    let est = Stats.median (List.map fst acc) *. float_of_int w.Workload.campaigns in
    if now () +. est <= deadline then loop acc else List.rev acc
  in
  let samples = loop [] in
  let times = List.map fst samples in
  let attempted = attempted_per * List.length samples in
  let failed = List.fold_left (fun acc (_, f) -> acc + f) 0 samples in
  let q1, med, q3 = Stats.quartiles times in
  let rss = peak_rss_mb () in
  let passed_frac = float_of_int (attempted - failed) /. float_of_int attempted in
  Printf.printf "campaign_s = %.4f s (median of %d samples of %d campaign(s); q1 %.4f, q3 %.4f)\n"
    med (List.length samples) w.Workload.campaigns q1 q3;
  Printf.printf "setup_s = %.4f s (median of %d set-ups)\n" setup_s (List.length setups);
  Printf.printf "peak_rss_mb = %.1f MB (campaign samples; set-up peaked at %.1f MB)\n" rss setup_peak;
  Printf.printf "cells_failed_frac = %g fraction (%d of %d cells; reference %s)\n"
    (float_of_int failed /. float_of_int attempted)
    failed attempted
    (if gate.pinned then "pinned" else "first sample");
  print_result ~correct:(failed = 0) ~attempted ~failed
    [
      ("campaign_s", med, "s");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", rss, "MB");
      ("cells_passed_frac", passed_frac, "fraction");
    ]

(* --- traced: per-layer metrics --- *)

type pair = {
  campaign_s : float;
  render_s : float;
  serial_s : float;  (** an untraced serial campaign without rendering *)
  traced_s : float;  (** the traced replay, per campaign *)
  summary : Harness.exec_summary option;
  layers : Layers.result;
  store : (int * float) option;  (** fabric store bytes, replay seconds *)
  failed : int;
  attempted : int;
}

let dedup ids = List.sort_uniq compare ids

(* One untraced campaign (plus, on the fabric, its store replay and an
   untraced serial run of the same plan), then the serial traced replay
   of the same campaign.  The traced cells must match the reference and
   the untraced cells; the replay must hit the store for every cell and
   yield the same cells. *)
let run_pair gate (w : Workload.t) =
  let attempted = Workload.expected_cells w in
  let cache_dir = Option.map (fun _ -> fresh_dir ()) w.Workload.workers in
  let sample = Sample.run w (config_for w ~cache_dir) ~report_path in
  let untraced_table = Sample.table sample in
  let u_failed, u_failing = check gate w ~attempted untraced_table in
  let store, r_failed, r_attempted =
    match (cache_dir, sample.Sample.outcome) with
    | Some dir, Ok _ ->
        let bytes = Store_transport.dir_bytes dir in
        let replay = Sample.run w (config_for w ~cache_dir) ~report_path in
        let failed, failing = check gate w ~attempted (Sample.table replay) in
        report_failures failing;
        let misses =
          match replay.Sample.outcome with
          | Ok cs -> List.fold_left (fun acc (c, _) -> acc + (Harness.summary c).Harness.cache_misses) 0 cs
          | Error _ -> attempted
        in
        if misses > 0 then Printf.eprintf "campaignbench: store replay missed %d cells\n%!" misses;
        (Some (bytes, replay.Sample.campaign_s), max failed (min attempted misses), attempted)
    | _ -> (None, 0, 0)
  in
  Option.iter Store_transport.remove_tree cache_dir;
  (* the tracing overhead compares two serial runs: on the fabric, the
     untraced side is the same plan run in process *)
  let serial_s, s_failed, s_attempted =
    match w.Workload.workers with
    | None -> (sample.Sample.campaign_s -. sample.Sample.render_s, 0, 0)
    | Some _ ->
        let serial =
          Sample.run w { (config_for w ~cache_dir:None) with Harness.workers = None } ~report_path
        in
        let failed, failing = check gate w ~attempted (Sample.table serial) in
        report_failures failing;
        (serial.Sample.campaign_s -. serial.Sample.render_s, failed, attempted)
  in
  if not w.Workload.warm_minheap then Minheap.clear_memo ();
  let started = now () in
  let layers = Layers.run w (config_for w ~cache_dir:None) in
  let traced_s = (now () -. started) /. float_of_int w.Workload.campaigns in
  let t_failing =
    let against_untraced =
      match untraced_table with
      | Ok reference -> Cells.failing ~reference layers.Layers.cells
      | Error _ -> []
    in
    dedup (snd (check gate w ~attempted (Ok layers.Layers.cells)) @ against_untraced)
  in
  report_failures (u_failing @ t_failing);
  {
    campaign_s = sample.Sample.campaign_s;
    render_s = sample.Sample.render_s;
    serial_s;
    summary =
      (match sample.Sample.outcome with Ok ((c, _) :: _) -> Some (Harness.summary c) | _ -> None);
    layers;
    traced_s;
    store;
    failed = u_failed + min attempted (List.length t_failing) + r_failed + s_failed;
    attempted = (2 * attempted) + r_attempted + s_attempted;
  }

(* Per-layer metrics of one pair: (name, value, unit, is_count). *)
let layer_metrics (w : Workload.t) p =
  let l = p.layers in
  let total = Spans.total l.Layers.spans in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let finish_s = total "run.finish" in
  let prepares = Spans.count l.Layers.spans "run.prepare" in
  (* fabric accounting from the untraced campaign; zero in process *)
  let execute_s, busy, idle, imbalance, stolen, requeued, deaths =
    match (w.Workload.workers, p.summary) with
    | Some _, Some s ->
        let busy = s.Harness.setup_s +. s.Harness.tape_s +. s.Harness.simulate_s in
        let per_worker = Array.map float_of_int s.Harness.per_worker in
        let mean = ratio (Array.fold_left ( +. ) 0.0 per_worker) (float_of_int (Array.length per_worker)) in
        ( s.Harness.execute_s,
          busy,
          Float.max 0.0 (1.0 -. ratio busy (float_of_int s.Harness.worker_processes *. s.Harness.execute_s)),
          ratio (Array.fold_left Float.max 0.0 per_worker) mean,
          s.Harness.stolen_groups,
          s.Harness.reassigned_cells,
          s.Harness.worker_deaths )
    | _ -> (0.0, 0.0, 0.0, 0.0, 0, 0, 0)
  in
  let reduce_s = match p.summary with Some s -> s.Harness.reduce_s | None -> 0.0 in
  let store_bytes, replay_s = Option.value p.store ~default:(0, 0.0) in
  [
    ("minheap.probes", float_of_int l.Layers.probes, "count", true);
    ("minheap.probe_s", total "minheap.probe", "s", false);
    ( "minheap.failed_probe_frac",
      ratio (float_of_int l.Layers.failed_probes) (float_of_int l.Layers.probes),
      "fraction",
      true );
    ("minheap.failed_probe_s", l.Layers.failed_probe_s, "s", false);
    ("planner.plan_s", total "planner.plan", "s", false);
    ("tape.groups", float_of_int l.Layers.tapes, "count", true);
    ("tape.generate_s", total "tape.generate", "s", false);
    ("tape.decode_s", total "tape.decode", "s", false);
    ("run.prepare_us_per_cell", ratio (total "run.prepare") (float_of_int prepares) *. 1e6, "us", false);
    ("run.finish_s", finish_s, "s", false);
    ("run.sim_gcycles_per_host_s", ratio (l.Layers.sim_cycles /. 1e9) finish_s, "Gcycles/s", false);
    ("obs.events", float_of_int l.Layers.events, "count", true);
    ("engine.host_ns_per_event", ratio finish_s (float_of_int l.Layers.events) *. 1e9, "ns", false);
  ]
  @ List.map
      (fun k ->
        let name = String.lowercase_ascii (Gcr_gcs.Registry.name k) in
        (Printf.sprintf "gcs.%s.finish_s" name, total (Layers.gc_span_name k), "s", false))
      Gcr_gcs.Registry.frontier
  @ [
      ("gcs.stw_host_frac", ratio l.Layers.stw_host_s finish_s, "fraction", false);
      ("gcs.objects_marked", float_of_int l.Layers.objects_marked, "count", true);
      ("gcs.words_copied", float_of_int l.Layers.words_copied, "count", true);
      ("heap.allocated_words", float_of_int l.Layers.allocated_words, "words", true);
    ]
  @ [
      ("fabric.execute_s", execute_s, "s", false);
      ("fabric.worker_busy_s", busy, "s", false);
      ("fabric.idle_frac", idle, "fraction", false);
      ("fabric.cell_imbalance", imbalance, "ratio", false);
      (* scheduling observations: they depend on timing, so they are not
         held to exact repetition *)
      ("fabric.stolen_groups", float_of_int stolen, "count", false);
      ("fabric.requeued_cells", float_of_int requeued, "count", false);
      ("fabric.worker_deaths", float_of_int deaths, "count", false);
      ("store.bytes", float_of_int store_bytes, "bytes", true);
      ("store.replay_s", replay_s, "s", false);
      ("report.render_s", p.render_s, "s", false);
      ("harness.reduce_s", reduce_s, "s", false);
      ("trace.overhead_frac", ratio p.traced_s p.serial_s -. 1.0, "fraction", false);
      ("trace.unattributed_frac", Spans.unattributed_frac l.Layers.spans, "fraction", false);
    ]

(* Where the traced wall time goes, as shares of the traced campaign
   span, and the simulation's share of the untraced serial campaign. *)
let shares p =
  let total = Spans.total p.layers.Layers.spans in
  let wall = total "campaign" in
  let share x = if wall > 0.0 then x /. wall else 0.0 in
  [
    ("run.finish", share (total "run.finish"));
    ("run.prepare", share (total "run.prepare"));
    ("tape", share (total "tape.generate" +. total "tape.decode"));
    ("planner.plan", share (total "planner.plan"));
    ("minheap.probe", share (total "minheap.probe"));
    ( "run.finish of untraced serial",
      let serial = p.serial_s *. float_of_int (Spans.count p.layers.Layers.spans "campaign") in
      if serial > 0.0 then total "run.finish" /. serial else 0.0 );
  ]

let traced (w : Workload.t) =
  let _, dir = setup_once w in
  Option.iter Store_transport.remove_tree dir;
  let gate = gate_for w in
  let deadline = now () +. !seconds in
  let rec loop acc =
    let started = now () in
    let acc = run_pair gate w :: acc in
    if now () +. (now () -. started) <= deadline then loop acc else List.rev acc
  in
  let pairs = loop [] in
  let per_pair = List.map (layer_metrics w) pairs in
  let first = List.hd per_pair in
  (* Counts must repeat exactly from pair to pair; times are medians. *)
  let counts_stable =
    List.for_all
      (fun metrics ->
        List.for_all2
          (fun (n, v, _, is_count) (_, v0, _, _) ->
            if is_count && v <> v0 then begin
              Printf.eprintf "campaignbench: count %s changed between pairs (%g vs %g)\n%!" n v v0;
              false
            end
            else true)
          metrics first)
      per_pair
  in
  let metrics =
    List.mapi
      (fun i (name, v0, unit, is_count) ->
        let value =
          if is_count then v0
          else
            Stats.median
              (List.map
                 (fun metrics ->
                   let _, v, _, _ = List.nth metrics i in
                   v)
                 per_pair)
        in
        (name, value, unit))
      first
  in
  let rtt_us = match w.Workload.workers with Some _ -> Store_transport.frame_rtt_us () | None -> 0.0 in
  let metrics = metrics @ [ ("transport.frame_rtt_us", rtt_us, "us") ] in
  if !out_dir <> "" then begin
    (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let last = List.nth pairs (List.length pairs - 1) in
    Spans.write_chrome last.layers.Layers.spans
      (Filename.concat !out_dir (Printf.sprintf "%s-seed%d.trace.json" w.Workload.name !seed))
  end;
  let attempted = List.fold_left (fun acc p -> acc + p.attempted) 0 pairs in
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 pairs in
  List.iter (fun (n, v, u) -> Printf.printf "%s = %s %s\n" n (json_number v) u) metrics;
  Printf.printf "traced shares (medians over pairs): %s\n"
    (String.concat ", "
       (List.mapi
          (fun i (name, _) ->
            Printf.sprintf "%s %.3f" name
              (Stats.median (List.map (fun p -> snd (List.nth (shares p) i)) pairs)))
          (shares (List.hd pairs))));
  Printf.printf "traced pairs = %d; cells failed %d of %d\n" (List.length pairs) failed attempted;
  print_result ~correct:(failed = 0 && counts_stable) ~attempted ~failed metrics

let () =
  Arg.parse specs (fun a -> fail "unexpected argument %S" a) "main.exe --workload NAME [options]";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        fail "unknown workload %S (valid: %s)" !workload
          (String.concat ", " (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all))
  in
  if !seconds <= 0.0 then fail "--seconds must be positive";
  (* GCR_WARM, GCR_TAPES, GCR_CACHE_DIR and the rest change what the
     harness does behind the pinned config; refuse rather than measure
     something else *)
  if gcr_env () <> [] then fail "GCR_* variables are set (%s); unset them" (String.concat ", " (gcr_env ()));
  header w;
  match !trace with
  | 0 -> untraced w
  | 1 -> traced w
  | n -> fail "--trace must be 0 or 1, not %d" n
