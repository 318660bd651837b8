(* A linear-time check that is necessary for homomorphic equivalence of
   two instances with labelled nulls: the null-free facts of each side
   occur in the other, and every null-bearing fact maps into the other
   instance as a single-fact homomorphism (constants fixed, each null
   sent to one value). Smg_verify.Equiv decides the full property but
   is quadratic in the target; this check runs in O(n) expected time,
   so it can compare 100k-tuple outputs. *)

module I = Smg_relational.Instance
module V = Smg_relational.Value

let has_null t = Array.exists V.is_null t

let const_mask t =
  Array.to_list (Array.mapi (fun i v -> if V.is_null v then -1 else i) t)
  |> List.filter (fun i -> i >= 0)

let project mask t = List.map (fun i -> t.(i)) mask

(* [f]'s repeated nulls must land on equal values of [g]. *)
let consistent f g =
  let n = Array.length f in
  let ok = ref true in
  for i = 0 to n - 1 do
    if !ok && V.is_null f.(i) then
      for j = i + 1 to n - 1 do
        if V.equal f.(i) f.(j) && not (V.equal g.(i) g.(j)) then ok := false
      done
  done;
  !ok

let tuples inst name =
  match I.relation inst name with Some r -> r.I.tuples | None -> []

let show t = String.concat ", " (Array.to_list (Array.map V.to_string t))

(* Every fact of [a] maps into [b] (one direction). *)
let into ~a ~b =
  let names = List.sort String.compare (I.names a) in
  let rec go = function
    | [] -> Ok ()
    | name :: rest -> (
        let tb = tuples b name in
        let ground = Hashtbl.create (List.length tb + 1) in
        List.iter (fun g -> if not (has_null g) then Hashtbl.replace ground g ()) tb;
        let by_mask = Hashtbl.create 4 in
        let index mask =
          match Hashtbl.find_opt by_mask mask with
          | Some ix -> ix
          | None ->
              let ix = Hashtbl.create (List.length tb + 1) in
              List.iter (fun g -> Hashtbl.add ix (project mask g) g) tb;
              Hashtbl.add by_mask mask ix;
              ix
        in
        let bad =
          List.find_opt
            (fun f ->
              if not (has_null f) then not (Hashtbl.mem ground f)
              else
                let mask = const_mask f in
                not
                  (List.exists (consistent f)
                     (Hashtbl.find_all (index mask) (project mask f))))
            (tuples a name)
        in
        match bad with
        | Some f -> Error (Printf.sprintf "%s(%s) has no image" name (show f))
        | None -> go rest)
  in
  go names

let check a b =
  match into ~a ~b with
  | Error m -> Error ("left into right: " ^ m)
  | Ok () -> (
      match into ~a:b ~b:a with
      | Error m -> Error ("right into left: " ^ m)
      | Ok () -> Ok ())
