(* The benchmark's own tests: every workload at smoke size, every check
   fed a corrupted output it must reject, and the linear ≡hom check
   against Smg_verify.Equiv on small random instances.

   Run with: dune build @perfbench/selftest *)

open Perfbench
module I = Smg_relational.Instance
module V = Smg_relational.Value

let failures = ref 0

let test name f =
  match f () with
  | () -> Printf.printf "ok    %s\n%!" name
  | exception e ->
      incr failures;
      Printf.printf "FAIL  %s: %s\n%!" name
        (match e with Wl.Check_failed m -> m | e -> Printexc.to_string e)

let rejects name f =
  test name (fun () ->
      match f () with
      | () -> failwith "the corrupted output was accepted"
      | exception Wl.Check_failed _ -> ())

let scenarios = "../scenarios"

let smoke name setup =
  test ("smoke " ^ name) (fun () ->
      Trace.reset ();
      Trace.enabled := true;
      let w = Fun.protect ~finally:(fun () -> Trace.enabled := false) setup in
      let m = Wl.measure ~min_rounds:1 ~traced:(fun _ -> true) ~seconds:0. w in
      List.iter
        (fun (metric, v, _) ->
          if not (Float.is_finite v) then failwith (metric ^ " is not a number"))
        (w.Wl.layers ());
      w.Wl.final ();
      w.Wl.release ();
      if m.Wl.m_attempted <> 2 * Array.length w.Wl.ops then
        failwith "a run attempts whole rounds";
      let e = Wl.e2e m.Wl.m_rounds in
      if not (e.Wl.ops_per_s > 0. && e.Wl.op_p50_ms > 0.) then
        failwith "end-to-end metrics must be positive")

let drop_ground_tuple inst =
  let name =
    List.find
      (fun n ->
        List.exists (fun t -> not (Homcheck.has_null t)) (Option.get (I.relation inst n)).I.tuples)
      (I.names inst)
  in
  let r = Option.get (I.relation inst name) in
  let dropped = ref false in
  let tuples =
    List.filter
      (fun t ->
        if (not !dropped) && not (Homcheck.has_null t) then begin
          dropped := true;
          false
        end
        else true)
      r.I.tuples
  in
  I.set inst name { r with I.tuples }

(* Small random instances over two relations, constants from a pool of
   four, nulls from a pool of three. *)
let random_instance st =
  let value () =
    if Random.State.int st 3 = 0 then V.VNull (Random.State.int st 3)
    else V.VString (Printf.sprintf "c%d" (Random.State.int st 4))
  in
  let rel arity =
    let n = 1 + Random.State.int st 4 in
    let tuples = List.init n (fun _ -> Array.init arity (fun _ -> value ())) in
    { I.header = List.init arity (Printf.sprintf "a%d"); tuples = List.sort_uniq compare tuples }
  in
  I.of_list [ ("r", rel 2); ("s", rel 3) ]

let rename_nulls inst =
  I.of_list
    (List.map
       (fun n ->
         let r = Option.get (I.relation inst n) in
         ( n,
           {
             r with
             I.tuples =
               List.map (Array.map (function V.VNull k -> V.VNull (k + 100) | v -> v)) r.I.tuples;
           } ))
       (I.names inst))

let () =
  Wl.verbose := false;
  smoke "discover" (fun () -> Wl_discover.setup ~size:Wl.Smoke ~seed:1 ~scenarios);
  smoke "exchange" (fun () -> Wl_exchange.setup ~size:Wl.Smoke);
  smoke "delta" (fun () -> Wl_delta.setup ~size:Wl.Smoke ~seed:1);
  smoke "serve" (fun () -> Wl_serve.setup ~size:Wl.Smoke ~seed:1 ~out_dir:".");
  test "the known exchange fault is counted as failed, once per round" (fun () ->
      let w = Wl_exchange.setup ~size:Wl.Smoke in
      let m = Wl.measure ~min_rounds:2 ~seconds:0. w in
      w.Wl.release ();
      if m.Wl.m_failed <> 3 then failwith (Printf.sprintf "%d failed of 3 rounds" m.Wl.m_failed));
  (* corrupted outputs *)
  let cell = List.hd (Wl_exchange.gen_cells ~isa:0 [ 500 ]) in
  let out =
    match Smg_exchange.Engine.execute cell.Wl_exchange.plain cell.Wl_exchange.inst with
    | Smg_exchange.Engine.Complete r -> r.Smg_exchange.Engine.r_target
    | _ -> failwith "smoke cell did not execute"
  in
  let reference = Wl_exchange.reference cell in
  test "exchange output passes against the reference engine" (fun () ->
      Fixtures.check_hom ~what:"ok" out reference);
  rejects "a dropped target tuple is caught" (fun () ->
      Fixtures.check_hom ~what:"dropped" (drop_ground_tuple out) reference);
  rejects "a dropped target tuple is caught in the other direction" (fun () ->
      Fixtures.check_hom ~what:"dropped" reference (drop_ground_tuple out));
  let case =
    List.find (fun c -> c.Wl_discover.bench <> []) (Wl_discover.paper_cases ())
  in
  let ms, _ = Wl_discover.run_case case in
  test "paper case recall passes" (fun () -> Wl_discover.check_recall case ms);
  rejects "a removed benchmark mapping is caught" (fun () ->
      let hits m =
        List.exists
          (fun b ->
            Smg_cq.Mapping.same_under ~source:case.Wl_discover.source.Smg_core.Discover.schema
              ~target:case.Wl_discover.target.Smg_core.Discover.schema m b)
          case.Wl_discover.bench
      in
      Wl_discover.check_recall case (List.filter (fun m -> not (hits m)) ms));
  let dblp =
    List.find (fun s -> s.Smg_eval.Scenario.scen_name = "DBLP") (Smg_eval.Datasets.all ())
  in
  let body = Wl_serve.reference_exchange dblp in
  test "a served body equal to the rendering passes" (fun () ->
      Wl_serve.check_body ~expected:body (String.init (String.length body) (String.get body)));
  rejects "a flipped response byte is caught" (fun () ->
      let b = Bytes.of_string body in
      let i = Bytes.length b / 2 in
      Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
      Wl_serve.check_body ~expected:body (Bytes.to_string b));
  rejects "an output that changes between rounds is caught" (fun () ->
      let k = ref 0 in
      let op =
        {
          Wl.name = "drifting";
          prep = (fun () () -> incr k; let s = string_of_int !k in Wl.ok ~sign:(fun () -> s) ());
        }
      in
      ignore
        (Wl.measure ~seconds:0.
           { Wl.ops = [| op |]; final = ignore; layers = (fun () -> []); release = ignore }));
  test "the linear check is necessary for Equiv on random instances" (fun () ->
      let st = Random.State.make [| 7 |] in
      let agree = ref 0 in
      for i = 1 to 2000 do
        let a = random_instance st in
        let b = if i mod 3 = 0 then rename_nulls a else random_instance st in
        let equiv = Smg_verify.Equiv.equivalent a b in
        let linear = Homcheck.check a b = Ok () in
        if equiv && not linear then
          failwith (Printf.sprintf "pair %d: equivalent but rejected" i);
        if equiv = linear then incr agree
      done;
      Printf.printf "      the linear check agreed with Equiv on %d of 2000 pairs\n" !agree);
  if !failures > 0 then begin
    Printf.printf "%d test(s) failed\n" !failures;
    exit 1
  end
