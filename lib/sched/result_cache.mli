(** On-disk cache of run results, one file per configuration.

    Entries live under a directory (one campaign sweep can share it with
    the min-heap TSV cache): [<dir>/<digest>.run] holds the cache-key
    rendering plus the marshalled {!Gcr_runtime.Measurement.t}.  Lookups
    verify a format magic {e and} the full rendering (not just the digest),
    so corrupted, truncated, or colliding entries are discarded — a bad
    cache file can cost a re-run, never a wrong measurement.

    Writes go through a temp file and an atomic [Sys.rename], so
    concurrent writers (domains of one campaign, or several processes
    sharing a cache directory) cannot expose half-written entries. *)

type t

val create : dir:string -> t
(** Creates [dir] (and missing parents) if needed.  Raises [Sys_error]
    if the directory cannot be created. *)

val env_dir : unit -> string option
(** [GCR_CACHE_DIR], when set to a non-empty value.  Every reader of the
    variable goes through this, so an empty value means unset
    everywhere. *)

val of_env : unit -> t option
(** [Some (create ~dir:$GCR_CACHE_DIR)] when the variable is set and the
    directory is usable, else [None].  Result caching is opt-in: unlike
    the min-heap TSV cache there is no implicit default directory. *)

val dir : t -> string

val find : t -> Gcr_runtime.Run.config -> Gcr_runtime.Measurement.t option
(** [None] for uncacheable configs (custom collector), missing entries,
    and entries that fail validation (which are deleted). *)

val store : t -> Gcr_runtime.Run.config -> Gcr_runtime.Measurement.t -> unit
(** No-op for uncacheable configs.  IO errors are swallowed: a read-only
    cache degrades to a miss, never a crash. *)
