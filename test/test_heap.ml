(* Heap: regions, allocation, movement, release, epochs, accounting. *)

module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator

let check = Alcotest.check

let make_heap ?(regions = 8) ?(region_words = 64) () =
  Heap.create ~capacity_words:(regions * region_words) ~region_words ()

(* alloc_in_region returns [Obj_model.null] when the region is full; the
   tests below want a hard failure in that case. *)
let alloc_exn h r ~size ~nfields =
  let id = Heap.alloc_in_region h r ~size ~nfields in
  if Obj_model.is_null id then failwith "alloc_exn: region full";
  id

let test_geometry () =
  let h = make_heap () in
  check Alcotest.int "regions" 8 (Heap.total_regions h);
  check Alcotest.int "free" 8 (Heap.free_regions h);
  check Alcotest.int "capacity" 512 (Heap.capacity_words h);
  check Alcotest.int "used" 0 (Heap.used_words h)

let test_create_rejects_tiny () =
  Alcotest.check_raises "one region" (Invalid_argument "Heap.create: need at least two regions")
    (fun () -> ignore (Heap.create ~capacity_words:64 ~region_words:64 ()))

let test_take_free_region () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  check Alcotest.bool "labelled" true (Region.space_equal r.Region.space Region.Eden);
  check Alcotest.int "free decremented" 7 (Heap.free_regions h)

let test_alloc_in_region () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let o = alloc_exn h r ~size:10 ~nfields:3 in
  check Alcotest.int "object size" 10 (Heap.obj_size h o);
  check Alcotest.int "fields" 3 (Heap.obj_nfields h o);
  check Alcotest.int "region used" 10 r.Region.used_words;
  check Alcotest.int "heap used" 10 (Heap.used_words h);
  check Alcotest.int "eden used" 10 (Heap.space_used_words h Region.Eden);
  check Alcotest.bool "live" true (Heap.is_live h o);
  check Alcotest.int "live objects" 1 (Heap.live_objects h);
  check Alcotest.int "live words" 10 (Heap.live_words_exact h)

let test_alloc_region_full () =
  let h = make_heap ~region_words:16 () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  check Alcotest.bool "first fits" true
    (not (Obj_model.is_null (Heap.alloc_in_region h r ~size:12 ~nfields:0)));
  check Alcotest.bool "second does not" true
    (Obj_model.is_null (Heap.alloc_in_region h r ~size:8 ~nfields:0))

let test_ids_unique_and_null () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let a = alloc_exn h r ~size:4 ~nfields:0 in
  let b = alloc_exn h r ~size:4 ~nfields:0 in
  check Alcotest.bool "distinct ids" true (a <> b);
  check Alcotest.bool "null is not live" false (Heap.is_live h Obj_model.null)

let test_release_region () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let o = alloc_exn h r ~size:10 ~nfields:0 in
  Heap.release_region h r;
  check Alcotest.bool "object dead" false (Heap.is_live h o);
  check Alcotest.int "free restored" 8 (Heap.free_regions h);
  check Alcotest.int "used zero" 0 (Heap.used_words h);
  check Alcotest.int "eden used zero" 0 (Heap.space_used_words h Region.Eden);
  check Alcotest.bool "region free" true (Region.space_equal r.Region.space Region.Free)

let test_move_object_survives_release () =
  let h = make_heap () in
  let src = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let dst = Option.get (Heap.take_free_region h ~space:Region.Old) in
  let o = alloc_exn h src ~size:10 ~nfields:0 in
  check Alcotest.bool "moved" true (Heap.move_object h o dst);
  check Alcotest.int "region updated" dst.Region.index (Heap.obj_region h o);
  Heap.release_region h src;
  check Alcotest.bool "still live after source release" true (Heap.is_live h o);
  check Alcotest.int "old space holds it" 10 (Heap.space_used_words h Region.Old)

let test_move_rejects_when_full () =
  let h = make_heap ~region_words:16 () in
  let src = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let dst = Option.get (Heap.take_free_region h ~space:Region.Old) in
  ignore (alloc_exn h dst ~size:12 ~nfields:0);
  let o = alloc_exn h src ~size:8 ~nfields:0 in
  check Alcotest.bool "no space" false (Heap.move_object h o dst)

let test_mark_epochs () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let o = alloc_exn h r ~size:4 ~nfields:0 in
  check Alcotest.bool "unmarked initially" false (Heap.is_marked h o);
  ignore (Heap.begin_mark_epoch h);
  Heap.set_marked h o;
  check Alcotest.bool "marked" true (Heap.is_marked h o);
  ignore (Heap.begin_mark_epoch h);
  check Alcotest.bool "stale after new epoch" false (Heap.is_marked h o);
  (* scratch epoch is independent *)
  ignore (Heap.begin_scratch_epoch h);
  Heap.set_scratch_marked h o;
  check Alcotest.bool "scratch marked" true (Heap.is_scratch_marked h o);
  check Alcotest.bool "main unaffected" false (Heap.is_marked h o)

let test_sweep_region () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let keep = alloc_exn h r ~size:4 ~nfields:0 in
  let drop = alloc_exn h r ~size:4 ~nfields:0 in
  let keep2 = alloc_exn h r ~size:6 ~nfields:0 in
  ignore (Heap.begin_mark_epoch h);
  Heap.set_marked h keep;
  Heap.set_marked h keep2;
  let survivors = Gcr_heap.Id_vec.create () in
  Heap.sweep_region h r survivors;
  check Alcotest.bool "marked survives" true (Heap.is_live h keep);
  check Alcotest.bool "unmarked swept" false (Heap.is_live h drop);
  check (Alcotest.list Alcotest.int) "marked residents in list order" [ keep; keep2 ]
    (List.init (Gcr_heap.Id_vec.length survivors) (Gcr_heap.Id_vec.get survivors));
  check Alcotest.int "live words" 10 (Heap.live_words_exact h);
  check Alcotest.bool "region not released" true
    (Region.space_equal r.Region.space Region.Eden)

let test_id_vec () =
  let module Id_vec = Gcr_heap.Id_vec in
  let v = Id_vec.create () in
  for i = 1 to 20 do
    Id_vec.push v i
  done;
  let contents v = List.init (Id_vec.length v) (Id_vec.get v) in
  check (Alcotest.list Alcotest.int) "grown past 8" (List.init 20 (fun i -> i + 1)) (contents v);
  (* in-place filter: keep the even ids, in order *)
  let kept = ref 0 in
  for i = 0 to Id_vec.length v - 1 do
    let id = Id_vec.unsafe_get v i in
    if id mod 2 = 0 then begin
      Id_vec.unsafe_set v !kept id;
      incr kept
    end
  done;
  Id_vec.truncate v !kept;
  check (Alcotest.list Alcotest.int) "filtered" (List.init 10 (fun i -> 2 * (i + 1))) (contents v);
  Alcotest.check_raises "get past length" (Invalid_argument "Id_vec.get: index out of bounds")
    (fun () -> ignore (Id_vec.get v 10));
  Id_vec.clear v;
  check Alcotest.int "cleared" 0 (Id_vec.length v);
  Id_vec.push v 7;
  check (Alcotest.list Alcotest.int) "reused after clear" [ 7 ] (contents v);
  let presized = Id_vec.make ~capacity:3 in
  List.iter (Id_vec.push presized) [ 4; 5; 6; 7 ];
  check (Alcotest.list Alcotest.int) "presized, then grown" [ 4; 5; 6; 7 ] (contents presized)

let test_release_keep_objects_and_place () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let o = alloc_exn h r ~size:10 ~nfields:0 in
  Heap.release_region_keep_objects h r;
  check Alcotest.bool "object survives raw release" true (Heap.is_live h o);
  check Alcotest.int "used reset" 0 (Heap.used_words h);
  let dst = Option.get (Heap.take_free_region h ~space:Region.Old) in
  check Alcotest.bool "placed" true (Heap.place_object h o dst);
  check Alcotest.int "used again" 10 (Heap.used_words h)

let test_alloc_reserve () =
  let h = make_heap () in
  Heap.set_alloc_reserve h 6;
  (* eden requests stop at the reserve *)
  check Alcotest.bool "eden 1" true (Heap.take_free_region h ~space:Region.Eden <> None);
  check Alcotest.bool "eden 2" true (Heap.take_free_region h ~space:Region.Eden <> None);
  check Alcotest.bool "eden blocked" true (Heap.take_free_region h ~space:Region.Eden = None);
  (* GC copy targets drain past the reserve *)
  check Alcotest.bool "old allowed" true (Heap.take_free_region h ~space:Region.Old <> None)

let test_reachable_from () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let a = alloc_exn h r ~size:6 ~nfields:2 in
  let b = alloc_exn h r ~size:6 ~nfields:2 in
  let c = alloc_exn h r ~size:6 ~nfields:2 in
  let d = alloc_exn h r ~size:6 ~nfields:2 in
  Heap.set_field h a 0 b;
  Heap.set_field h b 0 c;
  Heap.set_field h b 1 a;
  (* cycle *)
  let reachable = Heap.reachable_from h [ a ] in
  check Alcotest.int "three reachable" 3 (Hashtbl.length reachable);
  check Alcotest.bool "d unreachable" false (Hashtbl.mem reachable d)

let test_regions_in_space () =
  let h = make_heap () in
  ignore (Heap.take_free_region h ~space:Region.Eden);
  ignore (Heap.take_free_region h ~space:Region.Old);
  ignore (Heap.take_free_region h ~space:Region.Old);
  check Alcotest.int "eden count" 1 (List.length (Heap.regions_in_space h Region.Eden));
  check Alcotest.int "old count" 2 (List.length (Heap.regions_in_space h Region.Old));
  check Alcotest.int "free count" 5 (List.length (Heap.regions_in_space h Region.Free))

(* qcheck: random alloc/release sequences keep the aggregate accounting
   consistent. *)
let prop_accounting =
  QCheck.Test.make ~name:"heap accounting stays consistent" ~count:100
    QCheck.(list (pair bool (int_range 4 20)))
    (fun ops ->
      let h = Heap.create ~capacity_words:(16 * 64) ~region_words:64 () in
      let taken = ref [] in
      List.iter
        (fun (release, size) ->
          if release then (
            match !taken with
            | r :: rest ->
                Heap.release_region h r;
                taken := rest
            | [] -> ())
          else
            match Heap.take_free_region h ~space:Region.Eden with
            | None -> ()
            | Some r ->
                ignore (Heap.alloc_in_region h r ~size ~nfields:0);
                taken := r :: !taken)
        ops;
      let sum_cursors = ref 0 in
      Heap.iter_regions
        (fun r ->
          if not (Region.space_equal r.Region.space Region.Free) then
            sum_cursors := !sum_cursors + r.Region.used_words)
        h;
      Heap.used_words h = !sum_cursors
      && Heap.free_regions h + List.length !taken = Heap.total_regions h)

let suite =
  [
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "create rejects tiny" `Quick test_create_rejects_tiny;
    Alcotest.test_case "take free region" `Quick test_take_free_region;
    Alcotest.test_case "alloc in region" `Quick test_alloc_in_region;
    Alcotest.test_case "alloc region full" `Quick test_alloc_region_full;
    Alcotest.test_case "ids unique, null dead" `Quick test_ids_unique_and_null;
    Alcotest.test_case "release region" `Quick test_release_region;
    Alcotest.test_case "move survives release" `Quick test_move_object_survives_release;
    Alcotest.test_case "move rejects full dst" `Quick test_move_rejects_when_full;
    Alcotest.test_case "mark epochs" `Quick test_mark_epochs;
    Alcotest.test_case "sweep region" `Quick test_sweep_region;
    Alcotest.test_case "id vec" `Quick test_id_vec;
    Alcotest.test_case "raw release + place" `Quick test_release_keep_objects_and_place;
    Alcotest.test_case "alloc reserve" `Quick test_alloc_reserve;
    Alcotest.test_case "reachable_from" `Quick test_reachable_from;
    Alcotest.test_case "regions in space" `Quick test_regions_in_space;
    QCheck_alcotest.to_alcotest prop_accounting;
  ]
