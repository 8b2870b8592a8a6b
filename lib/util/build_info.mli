(** Facts about how this build was compiled. *)

val profile : string
(** The dune build profile, e.g. ["release"] (the workspace default) or
    ["dev"] (built with [--profile dev], every module [-opaque]). *)
