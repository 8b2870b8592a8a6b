module Machine = Gcr_mach.Machine
module Cost_model = Gcr_mach.Cost_model
module Registry = Gcr_gcs.Registry
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Stats = Gcr_util.Stats
module Pool = Gcr_sched.Pool
module Result_cache = Gcr_sched.Result_cache
module Artifact_store = Gcr_sched.Artifact_store
module Fabric = Gcr_sched.Fabric
module Controller = Gcr_policy.Controller

type config = {
  invocations : int;
  base_seed : int;
  scale : float;
  machine : Machine.t;
  cost : Cost_model.t;
  region_words : int;
  heap_factors : float list;
  log_progress : bool;
  jobs : int;
  workers : int option;
      (** [Some n]: execute through the multi-process fabric with [n]
          forked worker processes (sidestepping the cross-domain minor
          STW that throttles the domain pool); [None]: the in-process
          domain pool with [jobs] domains.  Either way the recorded
          campaign is bit-identical. *)
  cache_dir : string option;
  tapes : bool;
      (** replay each (benchmark, seed) cell group from one generated
          workload tape instead of re-deriving the decision stream from
          the PRNG in every cell; results are bit-identical either way *)
  controllers : Controller.spec list;
      (** heap-sizing controllers, the innermost grid axis.  The default
          [[Fixed]] reproduces the historical grid exactly *)
  listen : (string * int) option;
      (** with [workers = Some n]: accept [n] TCP socket workers here
          instead of forking ([gcr campaign --listen]); port 0 binds an
          ephemeral port announced via [on_listen] *)
  connect_timeout : float;
      (** seconds to wait for socket workers before proceeding short *)
  on_listen : (int -> unit) option;
      (** called with the actual bound port once accepting (tests and
          benches fork their workers from here, race-free) *)
  sched : Gcr_sched.Fabric.sched option;
      (** fabric scheduling policy; [None] = [GCR_FABRIC_SCHED] or
          size-aware *)
}

let paper_heap_factors = [ 1.4; 1.9; 2.4; 3.0; 3.7; 4.4; 5.2; 6.0 ]

(* The default grid is denser than the paper's eight sizes: extra points
   below 2× (where LBO curves bend hardest) and between the paper's
   steps.  A superset of [paper_heap_factors], so paper-grid cells can
   be read straight out of a default campaign. *)
let default_heap_factors =
  [ 1.2; 1.4; 1.7; 1.9; 2.4; 2.7; 3.0; 3.4; 3.7; 4.4; 5.2; 6.0 ]

(* The default campaign grid is the full collector frontier: the paper's
   six plus the experimental extensions (GenShen, LXR, Serial+pretenure)
   that the LBO-tightening study measures. *)
let default_gcs = Registry.frontier

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v when v > 0 -> v
  | Some _ | None -> default

let env_float name default =
  match Option.bind (Sys.getenv_opt name) float_of_string_opt with
  | Some v when v > 0.0 -> v
  | Some _ | None -> default

let default_config () =
  {
    invocations = env_int "GCR_INVOCATIONS" 8;
    base_seed = 1;
    scale = env_float "GCR_SCALE" 1.0;
    machine = Machine.default;
    cost = Cost_model.default;
    region_words = Run.default_region_words;
    heap_factors = default_heap_factors;
    log_progress = true;
    jobs = Pool.default_jobs ();
    workers = None;
    cache_dir = Result_cache.env_dir ();
    tapes = Minheap.tapes_enabled ();
    controllers = [ Controller.fixed ];
    listen = None;
    connect_timeout = 30.0;
    on_listen = None;
    sched = None;
  }

type exec_summary = {
  cells : int;
  cache_hits : int;
  cache_misses : int;
  worker_processes : int;  (** 0 when the in-process pool executed *)
  per_worker : int array;
  reassigned_cells : int;
  parent_cells : int;
  elapsed_s : float;
  plan_s : float;
  execute_s : float;
  reduce_s : float;
  setup_s : float;
  tape_s : float;
  simulate_s : float;
  cells_per_sec : float;
  limit_changes : int;  (** controller decisions applied, summed over cells *)
  peak_footprint_words : int;  (** highest heap limit any cell reached *)
  mean_footprint_words : float;  (** per-cell mean heap limit, averaged *)
  probe_cells : int;  (** minheap probe runs dispatched through the fabric *)
  worker_deaths : int;
  stolen_groups : int;
  wire_tapes : int;  (** tapes served over the socket to storeless workers *)
  worker_rows : Fabric.worker_row list;  (** per-worker accounting (fabric) *)
}

(* Configurations are keyed by (benchmark, collector, factor in permille,
   controller name); Epsilon is heap-independent and stored under factor 0
   with the fixed controller. *)
type key = string * string * int * string

type campaign = {
  config : config;
  specs : Spec.t list;
  gc_kinds : Registry.kind list;
  minheaps : (string, int) Hashtbl.t;
  cells : (key, Measurement.t list ref) Hashtbl.t;
  summary : exec_summary;
}

let permille factor = int_of_float (Float.round (factor *. 1000.0))

let key_of ~bench ~gc ~factor ~controller : key =
  match gc with
  | Registry.Epsilon -> (bench, "Epsilon", 0, Controller.name Controller.fixed)
  | g -> (bench, Registry.name g, permille factor, Controller.name controller)

let scaled_machine config =
  {
    config.machine with
    Machine.memory_words =
      max 4096 (int_of_float (float_of_int config.machine.Machine.memory_words *. config.scale));
  }

let config_of t = t.config

let benchmarks t = t.specs

let gcs t = t.gc_kinds

let summary t = t.summary

let minheap_words t ~bench =
  match Hashtbl.find_opt t.minheaps bench with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Harness.minheap_words: no benchmark %S" bench)

let all_measurements t =
  let keyed = Hashtbl.fold (fun key cell acc -> (key, List.rev !cell) :: acc) t.cells [] in
  let keyed = List.sort (fun (a, _) (b, _) -> compare a b) keyed in
  List.concat_map snd keyed

let runs ?(controller = Controller.fixed) t ~bench ~gc ~factor =
  match Hashtbl.find_opt t.cells (key_of ~bench ~gc ~factor ~controller) with
  | Some cell -> List.rev !cell
  | None -> []

(* --- Executors: fill the plan's result slots. --- *)

(* Execution accounting threaded from the executor branch into the
   summary; the pool branch leaves the fabric-only fields at zero. *)
type exec_info = {
  x_hits : int;
  x_workers : int;
  x_per_worker : int array;
  x_reassigned : int;
  x_parent : int;
  x_profile : Gcr_runtime.Profile.snapshot;
  x_probe_cells : int;
  x_deaths : int;
  x_stolen : int;
  x_wire : int;
  x_rows : Fabric.worker_row list;
}

(* In-process domain pool, one sibling group at a time: generate the
   group's tape image once, replay it in every cell, then drop it before
   the next group (images of full-size benchmarks are tens of MB). *)
let execute_pool config plan results =
  let cache = Option.map (fun dir -> Result_cache.create ~dir) config.cache_dir in
  let hit_counter = Atomic.make 0 in
  List.iter
    (fun (g : Planner.group) ->
      if config.log_progress then
        Printf.eprintf "[harness] invocation %d/%d: %s\n%!" (g.Planner.invocation + 1)
          config.invocations g.Planner.spec.Spec.name;
      let configs = List.map (fun (c : Planner.cell) -> c.Planner.config) g.Planner.cells in
      let configs =
        if not config.tapes then configs
        else begin
          let tape_started = Unix.gettimeofday () in
          let tape =
            Run.Tape_replay
              (Gcr_workloads.Tape_gen.image ~spec:g.Planner.spec ~seed:g.Planner.seed)
          in
          Gcr_runtime.Profile.add_tape_s (Unix.gettimeofday () -. tape_started);
          List.map (fun rc -> { rc with Run.tape }) configs
        end
      in
      let measurements = Pool.map ~jobs:config.jobs ?cache ~hits:hit_counter configs in
      List.iter2
        (fun (c : Planner.cell) m -> results.(c.Planner.index) <- Some m)
        g.Planner.cells measurements)
    (Planner.groups plan);
  (* the pool runs in this process, so its setup/tape/simulate self-time
     is already on the local [Profile] counters *)
  {
    x_hits = Atomic.get hit_counter;
    x_workers = 0;
    x_per_worker = [||];
    x_reassigned = 0;
    x_parent = 0;
    x_profile = Gcr_runtime.Profile.zero;
    x_probe_cells = 0;
    x_deaths = 0;
    x_stolen = 0;
    x_wire = 0;
    x_rows = [];
  }

let rec make_temp_store_dir n =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcr-fabric-%d-%d" (Unix.getpid ()) n)
  in
  match Unix.mkdir dir 0o700 with
  | () -> dir
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> make_temp_store_dir (n + 1)

let remove_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        entries;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* One planner group as a fabric group: the cost estimate rides along so
   the size-aware scheduler can deal largest-first. *)
let fabric_group_of config (g : Planner.group) =
  {
    Fabric.spec = g.Planner.spec;
    seed = g.Planner.seed;
    tapes = config.tapes;
    cost = Planner.group_cost g;
    cells =
      List.map (fun (c : Planner.cell) -> (c.Planner.index, c.Planner.config)) g.Planner.cells;
  }

(* What a socket worker pins in its handshake before any plan exists
   (minheap probes precede planning): a digest of the whole campaign
   request plus the cache-key format version.  Builds that would plan
   different grids — or key results differently — get different digests. *)
let campaign_digest config specs gcs =
  let b = Buffer.create 256 in
  Buffer.add_string b Gcr_sched.Cache_key.version;
  Printf.bprintf b "|inv=%d|seed=%d|scale=%g|region=%d" config.invocations
    config.base_seed config.scale config.region_words;
  List.iter (fun f -> Printf.bprintf b "|f=%g" f) config.heap_factors;
  List.iter (fun c -> Printf.bprintf b "|ctl=%s" (Controller.name c)) config.controllers;
  List.iter (fun (s : Spec.t) -> Printf.bprintf b "|spec=%s" (Spec.digest s)) specs;
  List.iter (fun g -> Printf.bprintf b "|gc=%s" (Registry.name g)) gcs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Minheap searches as fabric waves: every benchmark's search advances
   one probe per wave, each probe a first-class single-cell group, so
   probe runs ride the same transport, result cache, and warm worker
   state as the grid — and N benchmarks search concurrently on N
   workers instead of serially in the coordinator. *)
let fabric_minheaps session minheap_config config specs minheaps ~log_minheap =
  let searches =
    List.filter_map
      (fun (spec : Spec.t) ->
        match Minheap.find_cached minheap_config spec with
        | Some words ->
            Hashtbl.replace minheaps spec.Spec.name words;
            log_minheap spec words;
            None
        | None -> Some (spec, Minheap.Search.start minheap_config spec))
      specs
  in
  let probe_cells = ref 0 in
  let rec waves actives =
    let running, finished =
      List.partition (fun (_, s) -> Minheap.Search.result_words s = None) actives
    in
    List.iter
      (fun ((spec : Spec.t), s) ->
        match Minheap.Search.result_words s with
        | Some words ->
            Minheap.record minheap_config spec words;
            Hashtbl.replace minheaps spec.Spec.name words;
            log_minheap spec words
        | None -> assert false)
      finished;
    if running <> [] then begin
      let groups =
        List.mapi
          (fun i ((spec : Spec.t), s) ->
            let rc =
              match Minheap.Search.probe_config s with
              | Some rc -> rc
              | None -> assert false (* running implies a next probe *)
            in
            {
              Fabric.spec;
              seed = minheap_config.Minheap.seed;
              tapes = config.tapes;
              cost = Planner.probe_cost spec;
              cells = [ (i, rc) ];
            })
          running
      in
      let measurements, _stats =
        Fabric.dispatch session ~n_cells:(List.length running) groups
      in
      probe_cells := !probe_cells + List.length running;
      List.iteri
        (fun i (_, s) ->
          Minheap.Search.advance s ~completed:(Measurement.completed measurements.(i)))
        running;
      waves running
    end
  in
  waves searches;
  !probe_cells

let run_campaign config ~benchmarks ~gcs =
  let started = Unix.gettimeofday () in
  let machine = scaled_machine config in
  let config = { config with machine } in
  let specs = List.map (fun s -> Spec.scale s config.scale) benchmarks in
  let minheap_config =
    {
      Minheap.machine;
      cost = config.cost;
      region_words = config.region_words;
      seed = config.base_seed;
      gc = Registry.G1;
      tapes = config.tapes;
    }
  in
  let minheaps = Hashtbl.create 32 in
  let log_minheap (spec : Spec.t) words =
    if config.log_progress then
      Printf.eprintf "[harness] minheap %-12s = %d words\n%!" spec.Spec.name words
  in
  let mk_plan () =
    Planner.plan ~controllers:config.controllers ~invocations:config.invocations
      ~base_seed:config.base_seed ~machine ~cost:config.cost
      ~region_words:config.region_words ~heap_factors:config.heap_factors
      ~minheap:(fun ~bench ->
        match Hashtbl.find_opt minheaps bench with
        | Some w -> w
        | None -> invalid_arg "Harness: plan references an unmeasured benchmark")
      ~specs ~gcs ()
  in
  (* Phase boundaries: wall-clock stamps around execution, plus local
     {!Gcr_runtime.Profile} snapshots so setup/tape/simulate self-time is
     attributed to the execute window only (minheap probes also tick
     those counters, but inside [plan_s]). *)
  let plan, results, plan_done, prof_plan, info =
    match config.workers with
    | None ->
        (* In-process path: minheap searches run inline (memoised), then
           the domain pool fills the plan. *)
        List.iter
          (fun spec ->
            let words = Minheap.find ~config:minheap_config spec in
            log_minheap spec words;
            Hashtbl.replace minheaps spec.Spec.name words)
          specs;
        let plan = mk_plan () in
        let n_cells = Planner.n_cells plan in
        let results : Measurement.t option array = Array.make n_cells None in
        let plan_done = Unix.gettimeofday () in
        let prof_plan = Gcr_runtime.Profile.snapshot () in
        let info = execute_pool config plan results in
        (plan, results, plan_done, prof_plan, info)
    | Some workers ->
        (* Fabric path: one session carries the minheap probe waves and
           then the grid, so probes share the workers' transport, warm
           state, and result cache. *)
        let store, cleanup =
          match config.cache_dir with
          | Some dir -> (Artifact_store.create ~dir, fun () -> ())
          | None ->
              (* tapes still need a rendezvous point; results stay uncached *)
              let dir = make_temp_store_dir 0 in
              (Artifact_store.create ~dir, fun () -> remove_dir dir)
        in
        let log =
          if config.log_progress then fun line -> Printf.eprintf "[fabric] %s\n%!" line
          else fun _ -> ()
        in
        let session =
          Fabric.start ~workers ~store
            ~cache_results:(config.cache_dir <> None)
            ~log ?sched:config.sched ?listen:config.listen
            ~connect_timeout:config.connect_timeout ?on_listen:config.on_listen
            ~plan_digest:(campaign_digest config specs gcs) ()
        in
        Fun.protect
          ~finally:(fun () ->
            Fabric.shutdown session;
            cleanup ())
          (fun () ->
            let probe_cells =
              fabric_minheaps session minheap_config config specs minheaps ~log_minheap
            in
            let plan = mk_plan () in
            let n_cells = Planner.n_cells plan in
            let results : Measurement.t option array = Array.make n_cells None in
            let plan_done = Unix.gettimeofday () in
            let prof_plan = Gcr_runtime.Profile.snapshot () in
            let groups = List.map (fabric_group_of config) (Planner.groups plan) in
            let measurements, stats = Fabric.dispatch session ~n_cells groups in
            Array.iteri (fun i m -> results.(i) <- Some m) measurements;
            let info =
              {
                x_hits = stats.Fabric.cache_hits;
                x_workers = workers;
                x_per_worker = stats.Fabric.per_worker;
                x_reassigned = stats.Fabric.reassigned_cells;
                x_parent = stats.Fabric.parent_cells;
                x_profile = stats.Fabric.worker_profile;
                x_probe_cells = probe_cells;
                x_deaths = Fabric.worker_deaths session;
                x_stolen = Fabric.stolen_groups session;
                x_wire = stats.Fabric.wire_tapes;
                x_rows = Fabric.worker_rows session;
              }
            in
            (plan, results, plan_done, prof_plan, info))
  in
  let n_cells = Planner.n_cells plan in
  let cache_hits = info.x_hits in
  let execute_done = Unix.gettimeofday () in
  let prof_exec = Gcr_runtime.Profile.snapshot () in
  (* Reduce in submission order: the recorded campaign is a pure function
     of the plan, identical whatever executor (or parallelism) ran it. *)
  let cells = Hashtbl.create 512 in
  let record ~bench ~gc ~factor ~controller m =
    let key = key_of ~bench ~gc ~factor ~controller in
    let cell =
      match Hashtbl.find_opt cells key with
      | Some c -> c
      | None ->
          let c = ref [] in
          Hashtbl.replace cells key c;
          c
    in
    cell := m :: !cell
  in
  List.iter
    (fun (c : Planner.cell) ->
      match results.(c.Planner.index) with
      | Some m ->
          record ~bench:c.Planner.bench ~gc:c.Planner.gc ~factor:c.Planner.factor
            ~controller:c.Planner.controller m
      | None -> invalid_arg "Harness: executor left a cell unfilled")
    (Planner.cells plan);
  (* Controller visibility: how much the limit moved and where footprint
     ended up, aggregated over the filled slots. *)
  let limit_changes_total = ref 0 in
  let peak_footprint = ref 0 in
  let footprint_sum = ref 0.0 in
  let footprint_cells = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some (m : Measurement.t) ->
          limit_changes_total := !limit_changes_total + m.Measurement.limit_changes;
          peak_footprint := max !peak_footprint m.Measurement.heap_limit_peak_words;
          footprint_sum := !footprint_sum +. Measurement.mean_footprint_words m;
          incr footprint_cells)
    results;
  let finished = Unix.gettimeofday () in
  let elapsed_s = finished -. started in
  let plan_s = plan_done -. started in
  let execute_s = execute_done -. plan_done in
  let reduce_s = finished -. execute_done in
  let exec_profile = Gcr_runtime.Profile.diff prof_exec prof_plan in
  let self field =
    Gcr_runtime.Profile.seconds (field exec_profile + field info.x_profile)
  in
  let summary =
    {
      cells = n_cells;
      cache_hits;
      cache_misses = n_cells - cache_hits;
      worker_processes = info.x_workers;
      per_worker = info.x_per_worker;
      reassigned_cells = info.x_reassigned;
      parent_cells = info.x_parent;
      elapsed_s;
      plan_s;
      execute_s;
      reduce_s;
      setup_s = self (fun p -> p.Gcr_runtime.Profile.setup_us);
      tape_s = self (fun p -> p.Gcr_runtime.Profile.tape_us);
      simulate_s = self (fun p -> p.Gcr_runtime.Profile.simulate_us);
      cells_per_sec = (if execute_s > 0.0 then float_of_int n_cells /. execute_s else 0.0);
      limit_changes = !limit_changes_total;
      peak_footprint_words = !peak_footprint;
      mean_footprint_words =
        (if !footprint_cells = 0 then 0.0
         else !footprint_sum /. float_of_int !footprint_cells);
      probe_cells = info.x_probe_cells;
      worker_deaths = info.x_deaths;
      stolen_groups = info.x_stolen;
      wire_tapes = info.x_wire;
      worker_rows = info.x_rows;
    }
  in
  if config.log_progress then begin
    let worker_note =
      if info.x_workers = 0 then Printf.sprintf "pool jobs=%d" config.jobs
      else
        Printf.sprintf "fabric workers=%d [%s]%s%s%s%s%s" info.x_workers
          (String.concat " "
             (Array.to_list (Array.mapi (Printf.sprintf "w%d=%d") info.x_per_worker)))
          (if info.x_reassigned > 0 then Printf.sprintf " reassigned=%d" info.x_reassigned
           else "")
          (if info.x_parent > 0 then Printf.sprintf " parent=%d" info.x_parent else "")
          (if info.x_probe_cells > 0 then Printf.sprintf " probes=%d" info.x_probe_cells
           else "")
          (if info.x_stolen > 0 then Printf.sprintf " stolen=%d" info.x_stolen else "")
          (if info.x_wire > 0 then Printf.sprintf " wire-tapes=%d" info.x_wire else "")
    in
    Printf.eprintf
      "[harness] %d cells in %.1fs (plan %.1fs, execute %.1fs at %.1f cells/s, reduce \
       %.2fs): %d cache hits, %d executed; %s\n\
       %!"
      n_cells elapsed_s plan_s execute_s summary.cells_per_sec reduce_s cache_hits
      summary.cache_misses worker_note;
    if summary.limit_changes > 0 then
      Printf.eprintf
        "[harness] controllers: %d limit changes, peak footprint %d words, mean %.0f \
         words/cell\n\
         %!"
        summary.limit_changes summary.peak_footprint_words summary.mean_footprint_words;
    List.iter
      (fun (r : Fabric.worker_row) ->
        Printf.eprintf "[harness]   worker %d (%s, %s): %d cells%s%s\n%!" r.Fabric.row_id
          r.Fabric.row_transport r.Fabric.row_host r.Fabric.row_cells
          (if r.Fabric.row_wire_tapes > 0 then
             Printf.sprintf ", %d wire tapes" r.Fabric.row_wire_tapes
           else "")
          (if r.Fabric.row_alive then "" else " (died)"))
      summary.worker_rows
  end;
  { config; specs; gc_kinds = gcs; minheaps; cells; summary }

let observations t metric ~bench ~factor =
  let kinds =
    if List.mem Registry.Epsilon t.gc_kinds then t.gc_kinds
    else Registry.Epsilon :: t.gc_kinds
  in
  List.filter_map
    (fun gc -> Lbo.observation metric (runs t ~bench ~gc ~factor))
    kinds

let ideal t metric ~bench ~factor =
  match observations t metric ~bench ~factor with
  | [] -> None
  | obs -> Some (Lbo.ideal_estimate obs)

let lbo_value t metric ~bench ~gc ~factor =
  match (ideal t metric ~bench ~factor, Lbo.observation metric (runs t ~bench ~gc ~factor)) with
  | Some ideal, Some o -> Some (Lbo.lbo ~ideal ~total:o.Lbo.total)
  | None, _ | _, None -> None

let lbo_geomean t metric ~benches ~gc ~factor =
  match benches with
  | [] -> None (* an empty selection has no mean, not an exception *)
  | benches ->
      let values = List.map (fun bench -> lbo_value t metric ~bench ~gc ~factor) benches in
      if List.exists Option.is_none values then None
      else Some (Stats.geomean (Array.of_list (List.filter_map Fun.id values)))
