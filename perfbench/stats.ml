(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let h = q *. float_of_int (n - 1) in
      let lo = int_of_float (floor h) in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)
