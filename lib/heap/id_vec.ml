type t = {
  mutable data : int array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let make ~capacity =
  if capacity < 0 then invalid_arg "Id_vec.make: negative capacity";
  { data = Array.make capacity 0; len = 0 }

let[@inline] length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Id_vec.get: index out of bounds";
  Array.unsafe_get t.data i

let[@inline] unsafe_get t i = Array.unsafe_get t.data i

let grow t =
  let data = Array.make (max 8 (2 * Array.length t.data)) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let[@inline] push t id =
  if t.len = Array.length t.data then grow t;
  Array.unsafe_set t.data t.len id;
  t.len <- t.len + 1

let[@inline] clear t = t.len <- 0

let[@inline] unsafe_set t i id = Array.unsafe_set t.data i id

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Id_vec.truncate: bad length";
  t.len <- n
