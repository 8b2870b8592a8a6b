(* Tests of the campaign benchmark's own machinery: the digest gate, the
   traced replay's equivalence to the harness, render-failure accounting
   and the quartiles the spreads are computed from.  Campaigns here are
   tiny (scale 0.02, one factor) so the suite stays fast. *)

open Campaignbench
module Registry = Gcr_gcs.Registry

let tiny =
  {
    Workload.name = "test-tiny";
    benchmarks = [ "h2" ];
    scale = 0.02;
    gcs = [ Registry.Serial; Registry.G1 ];
    factors = [ 2.4; 3.0 ];
    invocations = 1;
    workers = None;
    warm_minheap = true;
    campaigns = 1;
  }

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let report_path = Filename.temp_file "campaignbench" ".report"

let table_of (w : Workload.t) =
  let s = Sample.run w (Workload.config w ~seed:1 ~cache_dir:None) ~report_path in
  match Sample.table s with Ok t -> t | Error reason -> failwith reason

let () =
  let reference = table_of tiny in
  check "tiny campaign has every planned cell"
    (List.length reference = Workload.expected_cells tiny);
  check "a campaign passes against its own digests" (Cells.failing ~reference reference = []);
  check "a rerun is bit-identical" (Cells.failing ~reference (table_of tiny) = []);
  (* a sample of two campaigns holds the cells of both base seeds, the
     first campaign's being those of a one-campaign sample *)
  let two = { tiny with campaigns = 2 } in
  let both = table_of two in
  check "two campaigns: every cell of both base seeds"
    (List.length both = Workload.expected_cells two
    && List.for_all (fun (id, d) -> List.assoc_opt id both = Some d) reference);
  let traced_two = Layers.run two (Workload.config two ~seed:1 ~cache_dir:None) in
  check "two campaigns: the traced replay matches" (Cells.failing ~reference:both traced_two.Layers.cells = []);
  (* perturb exactly one cell's digest *)
  let victim, _ = List.nth reference 2 in
  let perturbed = List.map (fun (id, d) -> if id = victim then (id, "0" ^ d) else (id, d)) reference in
  check "one perturbed cell trips the gate once"
    (Cells.failing ~reference:perturbed reference = [ victim ]);
  check "a missing cell fails" (Cells.failing ~reference (List.tl reference) = [ fst (List.hd reference) ]);
  let raised = List.map (fun (id, d) -> if id = victim then (id, Cells.raised_prefix ^ "x") else (id, d)) reference in
  check "a raised cell fails even against a reference that raised too"
    (Cells.failing ~reference:raised raised = [ victim ]);
  (* the traced run replays the harness: same cells, same digests *)
  let layers = Layers.run tiny (Workload.config tiny ~seed:1 ~cache_dir:None) in
  check "traced replay matches the untraced campaign" (Cells.failing ~reference layers.Layers.cells = []);
  check "memo filled: the traced run does no probing" (layers.Layers.probes = 0);
  check "one tape per plan group" (layers.Layers.tapes = 1);
  Gcr_core.Minheap.clear_memo ();
  let cold = Layers.run { tiny with warm_minheap = false } (Workload.config tiny ~seed:1 ~cache_dir:None) in
  check "memo empty: the traced run probes" (cold.Layers.probes > 0);
  check "cold traced replay still matches" (Cells.failing ~reference cold.Layers.cells = []);
  (* A campaign whose report cannot be rendered counts every cell as
     failed, and the sample returns instead of raising.  An xalan-only
     campaign leaves the core-benchmark set empty, which makes the STW
     tables raise; if that is fixed the report renders and nothing fails. *)
  let xalan = { tiny with benchmarks = [ "xalan" ]; gcs = [ Registry.G1 ]; factors = [ 3.0 ] } in
  let s = Sample.run xalan (Workload.config xalan ~seed:1 ~cache_dir:None) ~report_path in
  let attempted = Workload.expected_cells xalan in
  let failed =
    match Sample.table s with
    | Error _ -> attempted
    | Ok table -> List.length (Cells.failing ~reference:table table)
  in
  (match s.Sample.outcome with
  | Error reason -> Printf.printf "note: xalan-only campaign: %s\n" reason
  | Ok _ -> print_endline "note: xalan-only campaign rendered");
  check "render failure counts every cell, a rendered report none"
    (match s.Sample.outcome with
    | Error reason -> String.starts_with ~prefix:"report raised" reason && failed = attempted
    | Ok _ -> failed = 0);
  (* quartiles as Python's statistics.quantiles(values, n=4) *)
  let q1, med, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles match statistics.quantiles" (q1 = 2.75 && med = 5.5 && q3 = 8.25);
  let q1, med, q3 = Stats.quartiles [ 3.0; 1.0; 2.0 ] in
  check "quartiles of three values" (q1 = 1.0 && med = 2.0 && q3 = 3.0);
  Sys.remove report_path;
  if !failures > 0 then exit 1
