(* The traced run: the same campaign the harness runs, executed serially
   through each layer's public functions, with a span around every call
   and counts taken at the same boundaries.  Nothing inside the layers is
   changed; the harness's in-process executor is replayed step by step
   (minheap search, plan, tape, prepare, finish), so the cells it yields
   must carry the same digests as the untraced campaign.  It covers one
   sample: every campaign of it, each under its own "campaign" span. *)

module Registry = Gcr_gcs.Registry
module Harness = Gcr_core.Harness
module Minheap = Gcr_core.Minheap
module Planner = Gcr_core.Planner
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Spec = Gcr_workloads.Spec
module Obs = Gcr_obs.Obs
module Event = Gcr_obs.Event

type result = {
  cells : Cells.table;
  spans : Spans.t;
  probes : int;
  failed_probes : int;
  failed_probe_s : float;
  tapes : int;  (** tapes generated: one per plan group and per search *)
  events : int;  (** events the engine emitted to the benchmark's subscriber *)
  stw_host_s : float;  (** host time between pause_begin and pause_end *)
  sim_cycles : float;  (** simulated cycles over every cell *)
  objects_marked : int;
  words_copied : int;
  allocated_words : int;
}

let gc_span_name gc = "gcs." ^ String.lowercase_ascii (Registry.name gc) ^ ".finish"

let run (w : Workload.t) (config : Harness.config) =
  let spans = Spans.create () in
  let span name f = Spans.with_span spans name f in
  let events = ref 0 and stw = ref 0.0 and pause_start = ref 0.0 in
  let subscriber =
    {
      Obs.sub_name = "campaignbench";
      on_event =
        (fun ~time:_ ~code ~a:_ ~b:_ ~c:_ ->
          incr events;
          if code = Event.code_pause_begin then pause_start := Spans.now ()
          else if code = Event.code_pause_end then stw := !stw +. (Spans.now () -. !pause_start));
    }
  in
  let on_engine engine = Obs.subscribe (Gcr_engine.Engine.obs engine) subscriber in
  let probes = ref 0 and failed_probes = ref 0 and failed_probe_s = ref 0.0 in
  let tapes = ref 0 in
  let image spec seed =
    incr tapes;
    let tape = span "tape.generate" (fun () -> Gcr_workloads.Tape_gen.generate ~spec ~seed) in
    span "tape.decode" (fun () -> Gcr_workloads.Decision_source.image_of_tape ~spec tape)
  in
  (* A memo hit costs nothing; a miss walks the search as Minheap.find
     does in process: one tape, one warm state, one Run.execute per
     probe.  A probe that raises counts as not completing. *)
  let minheap mh_config (spec : Spec.t) =
    match Minheap.find_cached mh_config spec with
    | Some words -> words
    | None ->
        let tape = Run.Tape_replay (image spec mh_config.Minheap.seed) in
        let state = Run.new_state () in
        let s = Minheap.Search.start mh_config spec in
        let rec loop () =
          match Minheap.Search.probe_config s with
          | None -> Option.get (Minheap.Search.result_words s)
          | Some rc ->
              incr probes;
              let started = Spans.now () in
              let completed =
                span "minheap.probe" (fun () ->
                    try Measurement.completed (Run.execute ~state { rc with Run.tape })
                    with _ -> false)
              in
              if not completed then begin
                incr failed_probes;
                failed_probe_s := !failed_probe_s +. (Spans.now () -. started)
              end;
              Minheap.Search.advance s ~completed;
              loop ()
        in
        let words = loop () in
        Minheap.record mh_config spec words;
        words
  in
  let campaign (config : Harness.config) =
    span "campaign" (fun () ->
        let mh_config = Workload.minheap_config config w in
        let specs = Workload.specs w in
        let minheaps = List.map (fun (spec : Spec.t) -> (spec.Spec.name, minheap mh_config spec)) specs in
        let plan =
          span "planner.plan" (fun () ->
              Planner.plan ~controllers:config.Harness.controllers
                ~invocations:config.Harness.invocations ~base_seed:config.Harness.base_seed
                ~machine:(Workload.scaled_machine w) ~cost:config.Harness.cost
                ~region_words:config.Harness.region_words
                ~heap_factors:config.Harness.heap_factors
                ~minheap:(fun ~bench -> List.assoc bench minheaps)
                ~specs ~gcs:w.Workload.gcs ())
        in
        let state = Run.new_state () in
        List.concat_map
          (fun (g : Planner.group) ->
            let tape = Run.Tape_replay (image g.Planner.spec g.Planner.seed) in
            List.map
              (fun (c : Planner.cell) ->
                let rc = { c.Planner.config with Run.tape } in
                let outcome =
                  try
                    let session = span "run.prepare" (fun () -> Run.prepare ~state ~on_engine rc) in
                    Ok
                      (span "run.finish" (fun () ->
                           span (gc_span_name c.Planner.gc) (fun () -> Run.finish session)))
                  with exn -> Error exn
                in
                (config.Harness.base_seed, c, outcome))
              g.Planner.cells)
          (Planner.groups plan))
  in
  let measured = List.concat_map campaign (Workload.campaign_configs w config) in
  let sim_cycles = ref 0.0 and marked = ref 0 and copied = ref 0 and allocated = ref 0 in
  let cells =
    List.map
      (fun (seed, (c : Planner.cell), outcome) ->
        let id =
          Cells.id ~seed ~invocation:c.Planner.invocation ~bench:c.Planner.bench ~gc:c.Planner.gc
            ~factor:c.Planner.factor
        in
        match outcome with
        | Ok m ->
            sim_cycles := !sim_cycles +. float_of_int (Measurement.cycles_total m);
            marked := !marked + m.Measurement.gc_stats.objects_marked;
            copied := !copied + m.Measurement.gc_stats.words_copied;
            allocated := !allocated + m.Measurement.allocated_words;
            (id, Cells.digest m)
        | Error exn -> (id, Cells.raised_prefix ^ Printexc.to_string exn))
      measured
  in
  {
    cells;
    spans;
    probes = !probes;
    failed_probes = !failed_probes;
    failed_probe_s = !failed_probe_s;
    tapes = !tapes;
    events = !events;
    stw_host_s = !stw;
    sim_cycles = !sim_cycles;
    objects_marked = !marked;
    words_copied = !copied;
    allocated_words = !allocated;
  }
