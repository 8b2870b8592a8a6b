(* Order statistics for sample sets.  Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the exclusive method), so the
   spreads printed here match those computed over result files. *)

(* (q1, median, q3); all 0 for no values. *)
let quartiles values =
  match List.sort compare values with
  | [] -> (0.0, 0.0, 0.0)
  | [ x ] -> (x, x, x)
  | s ->
      let a = Array.of_list s in
      let ld = Array.length a in
      let m = ld + 1 in
      let q i =
        let j = i * m / 4 in
        let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
      in
      (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m
