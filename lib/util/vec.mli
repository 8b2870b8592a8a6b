(** Growable arrays (OCaml 5.1's stdlib predates [Dynarray]).

    Used pervasively for free pools, allocator sets, pause logs and sample
    sets (region object lists use the int-only [Gcr_heap.Id_vec]).
    Amortised O(1) push, O(1) random access, swap-removal for unordered
    sets. *)

type 'a t

val create : unit -> 'a t

val make : capacity:int -> 'a t
(** Empty vector that will allocate [max capacity 8] slots at the first
    push (first-push semantics: preallocating eagerly would need a dummy
    element, which the float-array optimisation forbids).  A vector that
    knows its size avoids re-growing through 8, 16, 32, ... *)

val length : 'a t -> int

val capacity : 'a t -> int
(** Allocated slots in the backing array (0 until the first push). *)

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Bounds-checked. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Removes and returns the last element.

    Removal ([pop], {!swap_remove}, {!clear}) overwrites freed slots with a
    surviving element so the vector does not retain references to removed
    values.  Residual case: there is no universal dummy element, so a
    vector that becomes empty keeps its slot-0 reference alive until the
    next push (and [clear] retains exactly that one element). *)

val pop_exn : 'a t -> 'a

val last : 'a t -> 'a option

val swap_remove : 'a t -> int -> 'a
(** [swap_remove t i] removes index [i] in O(1) by moving the last element
    into its place; returns the removed element.  Order is not preserved. *)

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array

val of_list : 'a list -> 'a t

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort. *)
