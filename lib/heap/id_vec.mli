(** Growable lists of object ids.

    A region's resident list and a full collection's survivor buffer hold
    nothing but immediate [Obj_model.id] ints, so unlike {!Gcr_util.Vec}
    they need no dummy element: {!clear} is O(1) (a stale slot retains
    nothing), and {!make} can allocate its capacity eagerly.  The accessors
    are small enough for the non-flambda compiler to inline, so hot loops
    over a list are plain [for] loops with no closure call per id. *)

type t

val create : unit -> t
(** Empty; allocates 8 slots at the first push. *)

val make : capacity:int -> t
(** Empty, with [capacity] slots allocated now. *)

val length : t -> int

val get : t -> int -> Obj_model.id
(** Bounds-checked. *)

val unsafe_get : t -> int -> Obj_model.id
(** No bounds check: the index must be below {!length}. *)

val push : t -> Obj_model.id -> unit

val clear : t -> unit
(** O(1): the slots are kept for the next pushes. *)

val unsafe_set : t -> int -> Obj_model.id -> unit
(** No bounds check: the index must be below {!length}. *)

val truncate : t -> int -> unit
(** [truncate t n] keeps the first [n] ids; [n] must not exceed
    {!length}.  With {!unsafe_set}, this filters a list in place. *)
