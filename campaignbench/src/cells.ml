(* Cell identity, cell digests, and the gate that checks a campaign's
   cells against a reference table.

   A cell is one invocation of one (benchmark, collector, heap factor)
   configuration.  Its digest is an MD5 over a canonical rendering of
   every field of its measurement, so two runs agree on a digest exactly
   when they agree on the whole measurement. *)

module Registry = Gcr_gcs.Registry
module Harness = Gcr_core.Harness
module Measurement = Gcr_runtime.Measurement
module Histogram = Gcr_util.Histogram

let permille factor = int_of_float (Float.round (factor *. 1000.0))

(* A cell is keyed by its campaign's base seed, as a sample may run
   several campaigns.  Epsilon's heap is the machine memory whatever the
   factor, so its one cell per benchmark and invocation is keyed at
   factor 0. *)
let id ~seed ~invocation ~bench ~gc ~factor =
  let factor = match gc with Registry.Epsilon -> 0.0 | _ -> factor in
  Printf.sprintf "%d/%d/%s/%s/%d" seed invocation bench (Registry.name gc) (permille factor)

let histogram_points = [ 50.0; 90.0; 99.0; 99.9; 99.99; 100.0 ]

let add_histogram b h =
  Printf.bprintf b "n=%d,sum=%d,max=%d" (Histogram.count h) (Histogram.total h)
    (Histogram.max_value h);
  List.iter (fun p -> Printf.bprintf b ",p%g=%d" p (Histogram.percentile h p)) histogram_points;
  Buffer.add_char b ';'

let canonical (m : Measurement.t) =
  let b = Buffer.create 512 in
  Printf.bprintf b "%s|%s|heap=%d|seed=%d|" m.benchmark m.gc m.heap_words m.seed;
  (match m.outcome with
  | Measurement.Completed -> Buffer.add_string b "ok|"
  | Measurement.Failed reason -> Printf.bprintf b "failed:%s|" reason);
  Printf.bprintf b "wall=%d,%d|cyc=%d,%d,%d|alloc=%d,%d|" m.wall_total m.wall_stw
    m.cycles_mutator m.cycles_gc m.cycles_gc_stw m.allocated_words m.allocated_objects;
  let s = m.gc_stats in
  Printf.bprintf b "gc=%d,%d,%d,%d,%d|" s.collections s.full_collections s.words_copied
    s.objects_marked s.stalls;
  Printf.bprintf b "limit=%d,%d,%h|" m.limit_changes m.heap_limit_peak_words
    m.footprint_word_cycles;
  List.iter
    (fun (p : Gcr_engine.Engine.pause) ->
      Printf.bprintf b "%d+%d:%s," p.start p.duration p.reason)
    m.pauses;
  Buffer.add_char b '|';
  add_histogram b m.pause_hist;
  Option.iter (add_histogram b) m.latency_metered;
  Option.iter (add_histogram b) m.latency_simple;
  Buffer.contents b

(* The harness's pool turns a run that raised into a failed measurement
   with this reason; such a cell digests to a marker that fails the gate
   even against a reference taken from an equally broken run. *)
let raised_prefix = "raised:"

let digest (m : Measurement.t) =
  match m.outcome with
  | Measurement.Failed reason when String.starts_with ~prefix:"uncaught exception" reason ->
      raised_prefix ^ reason
  | _ -> Digest.to_hex (Digest.string (canonical m))

type table = (string * string) list
(** (cell id, digest) in campaign order. *)

(* The planner always adds one Epsilon cell per benchmark and invocation,
   whether or not Epsilon is among the requested collectors. *)
let campaign_gcs gcs = Registry.Epsilon :: List.filter (fun g -> g <> Registry.Epsilon) gcs

let expected_cells ~benchmarks ~gcs ~factors ~invocations =
  let per_bench =
    List.fold_left
      (fun acc gc -> acc + match gc with Registry.Epsilon -> 1 | _ -> List.length factors)
      0 (campaign_gcs gcs)
  in
  invocations * List.length benchmarks * per_bench

let of_campaign campaign : table =
  let config = Harness.config_of campaign in
  let seed = config.Harness.base_seed and factors = config.Harness.heap_factors in
  List.concat_map
    (fun (spec : Gcr_workloads.Spec.t) ->
      let bench = spec.Gcr_workloads.Spec.name in
      List.concat_map
        (fun gc ->
          let factors = match gc with Registry.Epsilon -> [ 0.0 ] | _ -> factors in
          List.concat_map
            (fun factor ->
              List.mapi
                (fun invocation m -> (id ~seed ~invocation ~bench ~gc ~factor, digest m))
                (Harness.runs campaign ~bench ~gc ~factor))
            factors)
        (campaign_gcs (Harness.gcs campaign)))
    (Harness.benchmarks campaign)

(* Ids of the cells that fail against [reference]: a reference cell whose
   digest differs or that is missing, a cell the reference lacks, and a
   cell that raised. *)
let failing ~reference (actual : table) =
  let index = Hashtbl.create (List.length actual) in
  List.iter (fun (id, d) -> Hashtbl.replace index id d) actual;
  let ref_ids = Hashtbl.create (List.length reference) in
  List.iter (fun (id, _) -> Hashtbl.replace ref_ids id ()) reference;
  let bad_ref =
    List.filter_map
      (fun (id, d) ->
        match Hashtbl.find_opt index id with Some d' when d' = d -> None | _ -> Some id)
      reference
  in
  let extra = List.filter_map (fun (id, _) -> if Hashtbl.mem ref_ids id then None else Some id) actual in
  let raised =
    List.filter_map
      (fun (id, d) ->
        if String.starts_with ~prefix:raised_prefix d && not (List.mem id bad_ref) then Some id
        else None)
      actual
  in
  bad_ref @ extra @ raised

let reference_path ~dir ~workload ~seed =
  Filename.concat dir (Printf.sprintf "%s.seed%d.tsv" workload seed)

let load path : table option =
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_text path (fun ic ->
        let rec loop acc =
          match In_channel.input_line ic with
          | None -> Some (List.rev acc)
          | Some line -> (
              match String.split_on_char '\t' line with
              | [ id; d ] -> loop ((id, d) :: acc)
              | _ -> loop acc)
        in
        loop [])

let save path (table : table) =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun (id, d) -> Printf.fprintf oc "%s\t%s\n" id d) table)
