module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator
module Id_vec = Gcr_heap.Id_vec
module Vec = Gcr_util.Vec
module Cost_model = Gcr_mach.Cost_model

type result = {
  objects_marked : int;
  words_live : int;
  edges : int;
}

(* Budget of objects handled per worker slice; small enough that pause
   attribution and parallelism stay fine-grained. *)
let slice_budget = 64

let run (ctx : Gc_types.ctx) ~pool ~on_done =
  let heap = ctx.Gc_types.heap in
  Vec.iter Allocator.retire ctx.Gc_types.allocators;
  ignore (Heap.begin_mark_epoch heap);
  (* No [live_words] accounting: every region holding a marked object is
     released before anything reads it, and the release zeroes it. *)
  let tracer =
    Tracer.create ctx ~use_scratch:false ~update_region_live:false
      ~should_visit:(fun _ -> true)
      ~on_mark:(fun _ -> 0)
  in
  !(ctx.Gc_types.iter_roots) (Tracer.add_root tracer);
  (* Compaction state, filled in between the two phases.  Survivors are a
     subset of the live objects, so the buffer never regrows. *)
  let survivors = Id_vec.make ~capacity:(Heap.live_objects heap) in
  let cursor = ref 0 in
  let target = Allocator.create heap ~space:Region.Old in
  (* One pass in region order: sweep a region, then release it at once. *)
  let prepare_compaction () =
    for i = 0 to Heap.total_regions heap - 1 do
      let r = Heap.region heap i in
      if not (Region.space_equal r.Region.space Region.Free) then begin
        Heap.sweep_region heap r survivors;
        Heap.release_region_keep_objects heap r
      end
    done
  in
  (* One closure per collection, not one per survivor. *)
  let rec place id ~retried =
    match Allocator.current_region target with
    | Some dst when Heap.place_object heap id dst -> ()
    | Some _ | None ->
        if retried then ctx.Gc_types.oom "full compaction could not place a survivor"
        else begin
          (match Allocator.refill target with
          | None -> ctx.Gc_types.oom "full compaction found no free region"
          | Some _ -> ());
          place id ~retried:true
        end
  in
  let compact_per_word = ctx.Gc_types.cost.Cost_model.compact_per_word in
  let update_ref_per_edge = ctx.Gc_types.cost.Cost_model.update_ref_per_edge in
  let compact_slice ~worker:_ =
    let words = ref 0 in
    let edges = ref 0 in
    let stop = min (Id_vec.length survivors) (!cursor + slice_budget) in
    while !cursor < stop do
      let id = Id_vec.unsafe_get survivors !cursor in
      incr cursor;
      place id ~retried:false;
      words := !words + Heap.obj_size heap id;
      edges := !edges + Heap.obj_nfields heap id
    done;
    (compact_per_word * !words) + (update_ref_per_edge * !edges)
  in
  let mark_slice ~worker:_ = Tracer.drain tracer ~budget:slice_budget in
  Worker_pool.run_phase pool ~phase:Gcr_obs.Event.Mark ~work:mark_slice ~on_done:(fun () ->
      prepare_compaction ();
      Worker_pool.run_phase pool ~phase:Gcr_obs.Event.Compact ~work:compact_slice
        ~on_done:(fun () ->
          Allocator.retire target;
          on_done
            {
              objects_marked = Tracer.objects_marked tracer;
              words_live = Tracer.words_marked tracer;
              edges = Tracer.edges_seen tracer;
            }))
