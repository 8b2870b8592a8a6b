(** Minimum-heap measurement.

    The paper sizes every heap relative to the minimum heap in which the
    benchmark completes, measured with G1 ("the most space-efficient GC
    among the ones we study", §IV-A).  This module performs that search:
    exponential probing for an upper bound, then binary search down to a
    region granularity.  Results are memoised in-process and, optionally,
    in a small TSV cache file, because each probe is a full run. *)

type config = {
  machine : Gcr_mach.Machine.t;
  cost : Gcr_mach.Cost_model.t;
  region_words : int;
  seed : int;
  gc : Gcr_gcs.Registry.kind;  (** G1 in the paper's protocol *)
  tapes : bool;
      (** drive every probe of a search from one generated workload tape
          (results are bit-identical to live PRNG probes) *)
}

val tapes_enabled : unit -> bool
(** Default for the [tapes] flags here and in {!Harness.config}: on,
    unless [GCR_TAPES] is ["0"], ["false"], or ["off"]. *)

val default_config : unit -> config

val find : ?config:config -> Gcr_workloads.Spec.t -> int
(** Minimum heap size in words (a whole number of regions) in which the
    benchmark completes.  Raises [Failure] if it cannot complete even in
    the machine's full memory. *)

val find_cached : config -> Gcr_workloads.Spec.t -> int option
(** The memoised/persisted answer only — never probes.  Loads the file
    cache on first use. *)

val record : config -> Gcr_workloads.Spec.t -> int -> unit
(** Store a search result (memo + file cache) computed by an external
    driver such as the fabric's probe waves.  First write wins. *)

(** The probe sequence as an explicit state machine, for drivers that
    execute probes elsewhere (the campaign fabric runs many searches
    concurrently, one single-cell group per probe).  The sequence —
    exponential doubling from the live-set floor, then bisection — is a
    pure function of the completion answers, so every driver lands on
    the minimum {!find} computes. *)
module Search : sig
  type t

  val start : config -> Gcr_workloads.Spec.t -> t

  val probe_regions : t -> int option
  (** Next heap size to probe, in regions; [None] once finished.  Raises
      [Failure] when doubling escapes machine memory. *)

  val probe_config : t -> Gcr_runtime.Run.config option
  (** The full run config for the next probe (carries [Tape_off]; the
      executor attaches the group tape), built exactly as the inline
      search builds its probes — including the fail-fast event budget —
      so probe results are cache-compatible between drivers. *)

  val advance : t -> completed:bool -> unit
  (** Feed back whether the probed heap completed the benchmark. *)

  val result_words : t -> int option
  (** The minimum heap in words once the search is finished. *)
end

val cache_path : unit -> string option
(** Where results are persisted: [$GCR_CACHE_DIR/minheap.tsv] if
    [GCR_CACHE_DIR] is set and not empty, else [./.gcr-cache/minheap.tsv]
    when the working directory is writable, else no persistence.  Entries
    are keyed by benchmark, collector, seed, geometry and a digest of the
    whole cost model. *)

val clear_memo : unit -> unit
(** Test hook: forget in-process results (the file cache is untouched). *)
