(* The benchmark's workloads: two kinds of campaign that stress different
   layers, and the set-up each needs before its timed region. *)

module Registry = Gcr_gcs.Registry
module Harness = Gcr_core.Harness
module Minheap = Gcr_core.Minheap
module Spec = Gcr_workloads.Spec
module Machine = Gcr_mach.Machine

type t = {
  name : string;
  benchmarks : string list;
  scale : float;
  gcs : Registry.kind list;
  factors : float list;
  invocations : int;
  workers : int option;  (** [Some n]: the forked fabric; [None]: in process *)
  warm_minheap : bool;  (** set-up fills the minheap memo before timing *)
  campaigns : int;  (** campaigns per sample, each with its own base seed *)
}

(* Many tiny cells through the forked fabric: per-cell set-up, tapes,
   dealing, framing and the store carry a real share of the time. *)
let fabric_fine =
  {
    name = "fabric-fine";
    benchmarks = [ "h2"; "jython"; "tomcat"; "tradebeans" ];
    scale = 0.02;
    gcs = [ Registry.Serial; Registry.G1 ];
    factors = Harness.paper_heap_factors;
    invocations = 8;
    workers = Some 2;
    warm_minheap = true;
    campaigns = 1;
  }

(* An empty minheap memo and a one-factor grid: most of the time is
   minheap probing, which fabric-fine never does.  Six benchmarks whose
   search cost is steady at this scale; about half their probes fail,
   and the failed ones cost most of the probing time.  Six rather than
   two or three, because one benchmark's search cost swings with the
   seed and the sum over six swings less.  Even so, a seed's search can
   cost a quarter more than another's, so a sample runs six campaigns on
   six base seeds and campaign_s is their mean.  The grid is the whole
   collector frontier at factor 3.0, so every collector's simulation is
   measured here: serial in process, after the probes. *)
let minheap_cold =
  {
    name = "minheap-cold";
    benchmarks = [ "xalan"; "h2"; "tomcat"; "jython"; "tradebeans"; "tradesoap" ];
    scale = 0.02;
    gcs = Registry.frontier;
    factors = [ 3.0 ];
    invocations = 1;
    workers = None;
    warm_minheap = false;
    campaigns = 6;
  }

let all = [ fabric_fine; minheap_cold ]

let find name = List.find_opt (fun w -> w.name = name) all

let expected_cells w =
  w.campaigns
  * Cells.expected_cells ~benchmarks:w.benchmarks ~gcs:w.gcs ~factors:w.factors
      ~invocations:w.invocations

(* The harness scales machine memory with the workload; the traced run
   and the minheap memo must see the same machine. *)
let scaled_machine w =
  let m = Machine.default in
  { m with Machine.memory_words = max 4096 (int_of_float (float_of_int m.Machine.memory_words *. w.scale)) }

let specs w = List.map (fun n -> Spec.scale (Gcr_workloads.Suite.find_exn n) w.scale) w.benchmarks

let config w ~seed ~cache_dir =
  {
    (Harness.default_config ()) with
    Harness.invocations = w.invocations;
    base_seed = seed;
    scale = w.scale;
    heap_factors = w.factors;
    log_progress = false;
    jobs = 1;
    workers = w.workers;
    cache_dir;
    tapes = true;
    sched = Some Gcr_sched.Fabric.Size_aware;
  }

(* The configs of one sample's campaigns: [config] for the first, then
   base seeds 1000 apart, so the seeds of one run's sample never meet
   those of another run seeded nearby. *)
let campaign_configs w (config : Harness.config) =
  List.init w.campaigns (fun i ->
      { config with Harness.base_seed = config.Harness.base_seed + (1000 * i) })

(* The config [Harness.run_campaign] hands its minheap searches. *)
let minheap_config (config : Harness.config) w =
  {
    Minheap.machine = scaled_machine w;
    cost = config.Harness.cost;
    region_words = config.Harness.region_words;
    seed = config.Harness.base_seed;
    gc = Registry.G1;
    tapes = config.Harness.tapes;
  }

(* A fixed tiny cell run once per set-up: it pays the process's lazy
   initialisation (code pages, heap growth) outside the timed region on
   every workload, the cold one included, without touching the memo. *)
let warm_up_cell () =
  let spec = Spec.scale (Gcr_workloads.Suite.find_exn "h2") 0.2 in
  try
    ignore
      (Gcr_runtime.Run.execute
         (Gcr_runtime.Run.default_config ~spec ~gc:Registry.G1
            ~heap_words:(3 * Spec.live_words_estimate spec) ~seed:1))
  with _ -> ()

(* One set-up: warm-up cell, scaled specs, the minheap memo emptied and
   (for warm workloads) refilled for every campaign of a sample, and a
   fresh store directory.  Returns the store directory for fabric
   workloads. *)
let setup w (config : Harness.config) ~fresh_dir =
  warm_up_cell ();
  let specs = specs w in
  Minheap.clear_memo ();
  if w.warm_minheap then
    List.iter
      (fun config ->
        List.iter (fun spec -> ignore (Minheap.find ~config:(minheap_config config w) spec)) specs)
      (campaign_configs w config);
  match w.workers with Some _ -> Some (fresh_dir ()) | None -> None
