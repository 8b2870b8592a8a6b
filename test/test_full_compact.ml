(* Full mark-compact: dead objects purged, survivors densely re-placed,
   free pool restored, no headroom required. *)

module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator
module Engine = Gcr_engine.Engine
module Gc_types = Gcr_gcs.Gc_types
module Full_compact = Gcr_gcs.Full_compact
module Worker_pool = Gcr_gcs.Worker_pool
module Tracer = Gcr_gcs.Tracer
module Prng = Gcr_util.Prng

let check = Alcotest.check

(* Build a fragmented heap: objects scattered over many regions, a subset
   reachable from the roots.  Returns the ctx, engine, and the root list. *)
let build ~regions ~region_words ~objects ~live_every ~seed =
  let heap = Heap.create ~capacity_words:(regions * region_words) ~region_words () in
  let engine = Engine.create ~cpus:4 () in
  let ctx =
    Gc_types.make_ctx ~heap ~engine ~cost:Gcr_mach.Cost_model.default
      ~machine:Gcr_mach.Machine.default
  in
  let allocator = Allocator.create heap ~space:Region.Eden in
  Gcr_util.Vec.push ctx.Gc_types.allocators allocator;
  let prng = Prng.create seed in
  let roots = ref [] in
  let prev = ref Obj_model.null in
  for i = 0 to objects - 1 do
    let size = 4 + Prng.int prng 8 in
    match Allocator.alloc allocator ~size ~nfields:2 with
    | Allocator.Allocated { obj; _ } ->
        if i mod live_every = 0 then begin
          roots := obj :: !roots;
          (* chain some structure under the root *)
          Heap.set_field heap obj 0 !prev
        end;
        prev := obj
    | Allocator.Out_of_regions -> Alcotest.fail "test heap too small"
  done;
  (ctx.Gc_types.iter_roots := fun f -> List.iter f !roots);
  (ctx, engine, roots)

let run_compact ctx engine =
  let pool = Worker_pool.create ctx ~count:2 ~name:"compact-test" in
  let m = Engine.spawn engine ~kind:Engine.Mutator ~name:"driver" in
  let result = ref None in
  Engine.request_stop engine ~reason:"test" (fun () ->
      Full_compact.run ctx ~pool ~on_done:(fun r ->
          result := Some r;
          Engine.release_stop engine;
          Engine.exit_thread engine m));
  (match Engine.run engine () with
  | Engine.All_mutators_finished -> ()
  | Engine.Aborted reason -> Alcotest.failf "aborted: %s" reason);
  Option.get !result

let test_compacts () =
  let ctx, engine, roots =
    build ~regions:64 ~region_words:64 ~objects:400 ~live_every:5 ~seed:2
  in
  let heap = ctx.Gc_types.heap in
  let reachable_before = Heap.reachable_from heap !roots in
  let used_before = Heap.used_words heap in
  let result = run_compact ctx engine in
  (* survivors = exactly the reachable set *)
  check Alcotest.int "live objects = reachable set" (Hashtbl.length reachable_before)
    (Heap.live_objects heap);
  check Alcotest.int "marked = reachable" (Hashtbl.length reachable_before)
    result.Full_compact.objects_marked;
  Hashtbl.iter
    (fun id () -> check Alcotest.bool "survivor live" true (Heap.is_live heap id))
    reachable_before;
  (* garbage space reclaimed *)
  check Alcotest.bool "used shrank" true (Heap.used_words heap < used_before);
  check Alcotest.int "used = live exactly after compaction" (Heap.live_words_exact heap)
    (Heap.used_words heap);
  (* everything left is in old space *)
  Heap.iter_regions
    (fun r ->
      match r.Region.space with
      | Region.Free | Region.Old -> ()
      | Region.Eden | Region.Survivor -> Alcotest.fail "young region survived compaction")
    heap

let test_works_with_empty_pool () =
  (* Compaction needs no free headroom: fill every region first. *)
  let ctx, engine, _roots =
    build ~regions:16 ~region_words:64 ~objects:120 ~live_every:4 ~seed:3
  in
  let heap = ctx.Gc_types.heap in
  (* exhaust the pool with eden regions *)
  let rec drain () =
    match Heap.take_free_region heap ~space:Region.Eden with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.int "pool empty" 0 (Heap.free_regions heap);
  let _ = run_compact ctx engine in
  check Alcotest.bool "pool replenished" true (Heap.free_regions heap > 0)

let test_idempotent_when_all_live () =
  let ctx, engine, _roots =
    build ~regions:32 ~region_words:64 ~objects:100 ~live_every:1 ~seed:4
  in
  let heap = ctx.Gc_types.heap in
  let live_before = Heap.live_objects heap in
  let _ = run_compact ctx engine in
  check Alcotest.int "nothing reclaimed" live_before (Heap.live_objects heap)

(* Oracle for the fused sweep: the two-pass full collection Full_compact
   ran before, kept here only.  Mark everything reachable, then purge the
   unmarked residents of every in-use region and collect the rest, then
   release every in-use region in a second pass, then slide the survivors
   into old regions in collection order. *)
let oracle_compact (ctx : Gc_types.ctx) =
  let heap = ctx.Gc_types.heap in
  Gcr_util.Vec.iter Allocator.retire ctx.Gc_types.allocators;
  ignore (Heap.begin_mark_epoch heap);
  Heap.iter_regions (fun r -> r.Region.live_words <- 0) heap;
  let tracer =
    Tracer.create ctx ~use_scratch:false ~update_region_live:true
      ~should_visit:(fun _ -> true)
      ~on_mark:(fun _ -> 0)
  in
  !(ctx.Gc_types.iter_roots) (Tracer.add_root tracer);
  while Tracer.pending tracer do
    ignore (Tracer.drain tracer ~budget:64)
  done;
  let in_use r = not (Region.space_equal r.Region.space Region.Free) in
  let survivors = ref [] in
  Heap.iter_regions
    (fun r ->
      if in_use r then begin
        Heap.iter_resident_objects heap r (fun id ->
            if not (Heap.is_marked heap id) then Heap.free_object heap id);
        Heap.iter_resident_objects heap r (fun id -> survivors := id :: !survivors)
      end)
    heap;
  Heap.iter_regions (fun r -> if in_use r then Heap.release_region_keep_objects heap r) heap;
  let survivors = List.rev !survivors in
  let target = Allocator.create heap ~space:Region.Old in
  List.iter
    (fun id ->
      let fits () =
        match Allocator.current_region target with
        | Some dst -> Heap.place_object heap id dst
        | None -> false
      in
      if not (fits ()) then begin
        ignore (Allocator.refill target);
        if not (fits ()) then Alcotest.fail "oracle could not place a survivor"
      end)
    survivors;
  Allocator.retire target;
  ( survivors,
    Tracer.objects_marked tracer,
    Tracer.words_marked tracer,
    Tracer.edges_seen tracer )

(* Every [moved_every]-th resident is evacuated into survivor regions
   first, so in-use regions hold stale entries for objects stored
   elsewhere (0: move nothing). *)
let scatter heap ~moved_every =
  if moved_every > 0 then begin
    let ids = ref [] in
    Heap.iter_regions (fun r -> Heap.iter_resident_objects heap r (fun id -> ids := id :: !ids)) heap;
    let dst = ref None in
    List.iteri
      (fun i id ->
        if i mod moved_every = 0 then begin
          let moved =
            match !dst with Some r -> Heap.move_object heap id r | None -> false
          in
          if not moved then begin
            dst := Heap.take_free_region heap ~space:Region.Survivor;
            match !dst with
            | Some r -> ignore (Heap.move_object heap id r)
            | None -> Alcotest.fail "test heap too small to scatter"
          end
        end)
      (List.rev !ids)
  end

(* Everything the sweep order can show: per region, its space, cursor,
   [live_words] and residents in list order; the heap totals; the
   free-pool order; and the ids the next allocations recycle. *)
let observe heap =
  let regions =
    List.init (Heap.total_regions heap) (fun i ->
        let r = Heap.region heap i in
        let residents = ref [] in
        Heap.iter_resident_objects heap r (fun id -> residents := id :: !residents);
        ( Format.asprintf "%a" Region.pp_space r.Region.space,
          r.Region.used_words,
          r.Region.live_words,
          List.rev !residents ))
  in
  let totals = (Heap.live_objects heap, Heap.live_words_exact heap, Heap.used_words heap) in
  let rec drain_pool acc =
    match Heap.take_free_region heap ~space:Region.Old with
    | Some r -> drain_pool (r :: acc)
    | None -> List.rev acc
  in
  let pool = drain_pool [] in
  let recycled =
    match pool with
    | r :: _ -> List.init 4 (fun _ -> Heap.alloc_in_region heap r ~size:4 ~nfields:1)
    | [] -> []
  in
  (regions, totals, List.map (fun r -> r.Region.index) pool, recycled)

let prop_matches_two_pass_oracle =
  QCheck.Test.make ~name:"one-pass sweep matches the two-pass oracle" ~count:60
    (* no shrinker: shrunk values would leave the generator's ranges *)
    (QCheck.make
       ~print:(fun (seed, objects, live_every, moved_every) ->
         Printf.sprintf "seed=%d objects=%d live_every=%d moved_every=%d" seed objects
           live_every moved_every)
       QCheck.Gen.(
         quad (int_bound 10_000) (int_range 20 400) (int_range 1 7) (int_bound 9)))
    (fun (seed, objects, live_every, moved_every) ->
      (* room for every object twice over: built, then scattered *)
      let regions = (objects * 24 / 64) + 8 in
      let fresh () =
        let ctx, engine, _ = build ~regions ~region_words:64 ~objects ~live_every ~seed in
        scatter ctx.Gc_types.heap ~moved_every;
        (ctx, engine)
      in
      let ctx, engine = fresh () in
      let result = run_compact ctx engine in
      let oracle_ctx, _ = fresh () in
      let survivors, marked, words, edges = oracle_compact oracle_ctx in
      let heap = ctx.Gc_types.heap and oracle_heap = oracle_ctx.Gc_types.heap in
      result.Full_compact.objects_marked = marked
      && result.Full_compact.words_live = words
      && result.Full_compact.edges = edges
      && List.map (Heap.obj_region heap) survivors
         = List.map (Heap.obj_region oracle_heap) survivors
      && observe heap = observe oracle_heap)

let suite =
  [
    Alcotest.test_case "compacts" `Quick test_compacts;
    Alcotest.test_case "works with empty pool" `Quick test_works_with_empty_pool;
    Alcotest.test_case "idempotent when all live" `Quick test_idempotent_when_all_live;
    QCheck_alcotest.to_alcotest prop_matches_two_pass_oracle;
  ]
