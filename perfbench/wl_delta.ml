(* delta: incremental maintenance of the 100k exchange fixtures. One op
   is one --apply-delta step: parse a wire-format batch, apply it,
   read the maintained target. A round is one churn cycle per cell:
   each batch deletes a fresh seeded sample of live source tuples (0.1%,
   1%, 5%, then 20% of the source) and re-inserts the previous step's
   sample, and a closing batch re-inserts the last one, so every round
   starts from the base source. Re-inserting real tuples makes every
   insert re-fire triggers and mint nulls. *)

module E = Smg_exchange.Engine
module I = Smg_relational.Instance
module D = Smg_core.Discover
module Maintain = Smg_delta.Maintain
module Batch = Smg_delta.Batch

let fractions = [ 0.001; 0.01; 0.05; 0.2 ]

type cell = {
  label : string;
  source : Smg_relational.Schema.t;
  target : Smg_relational.Schema.t;
  tgds : Smg_cq.Dependency.tgd list;
  compiled : E.compiled;
  state : Maintain.state;
  base : I.t;
}

(* Disjoint seeded samples of the instance's tuples, one per fraction. *)
let samples ~seed inst =
  let all =
    Array.of_list
      (List.concat_map
         (fun name ->
           List.map (fun t -> (name, t)) (Option.get (I.relation inst name)).I.tuples)
         (List.sort String.compare (I.names inst)))
  in
  let all = Fixtures.shuffle ~seed all in
  let n = Array.length all in
  let _, slices =
    List.fold_left
      (fun (off, acc) f ->
        let k = max 1 (int_of_float (f *. float_of_int n)) in
        (off + k, Array.to_list (Array.sub all off k) :: acc))
      (0, []) fractions
  in
  List.rev slices

(* Batch k deletes sample k and re-inserts sample k-1; the last batch
   only re-inserts. *)
let batches samples =
  let ins s = List.map (fun (n, t) -> Batch.Insert (n, t)) s in
  let del s = List.map (fun (n, t) -> Batch.Delete (n, t)) s in
  let rec go prev = function
    | [] -> [ ins prev ]
    | s :: rest -> (ins prev @ del s) :: go s rest
  in
  go [] samples

let step_names =
  List.map (fun f -> Printf.sprintf "del%gpct" (100. *. f)) fractions @ [ "close" ]

let prepare ~label ~source ~target ~tgds inst =
  match
    Maintain.prepare ~card:(I.cardinality inst) ~source ~target ~mappings:tgds ()
  with
  | Ok c -> c
  | Error e -> Wl.fail "%s: prepare: %s" label e

let init ~label compiled inst =
  Trace.span "delta.init" ~tag:label (fun () ->
      match Maintain.init compiled inst with
      | Ok st -> st
      | Error e -> Wl.fail "%s: init: %s" label e)

let make_cell ~isa ~scale =
  let g = Fixtures.build (Fixtures.params ~isa ~density:0.8 ~scale:100) in
  let tgds = Fixtures.tgds g in
  let source = g.Fixtures.Gen.g_source.D.schema
  and target = g.Fixtures.Gen.g_target.D.schema in
  let label = Printf.sprintf "i%d_c80_n%d" isa scale in
  let inst = Fixtures.populate ~scale g in
  let compiled = prepare ~label ~source ~target ~tgds inst in
  ( g,
    { label; source; target; tgds; compiled; state = init ~label compiled inst; base = inst } )

let apply (c : cell) ~tag text =
  let batch =
    Trace.span "delta.parse" ~tag (fun () ->
        match Batch.parse ~schema:c.source text with
        | Ok b ->
            Trace.count "ops" (float_of_int (List.length b));
            b
        | Error e -> Wl.fail "%s: batch: %s" tag e)
  in
  let counters =
    Trace.span "delta.apply" ~tag (fun () ->
        match Maintain.apply c.state batch with
        | Ok (_, k) ->
            let f name v = Trace.count name (float_of_int v) in
            f "ops" (List.length batch);
            f "seen" k.Maintain.mc_triggers_seen;
            f "fired" k.Maintain.mc_triggers_fired;
            f "facts_retracted" k.Maintain.mc_facts_retracted;
            f "nulls_collected" k.Maintain.mc_nulls_collected;
            f "egd_rebuilds" k.Maintain.mc_egd_rebuilds;
            f "full_rebuilds" k.Maintain.mc_full_rebuilds;
            k
        | Error e -> Wl.fail "%s: apply: %s" tag e)
  in
  let out = Trace.span "delta.target" ~tag (fun () -> Maintain.target c.state) in
  (counters, out)

(* The maintained target against a bulk execution of the maintained
   source, and the target keys. *)
let check_step (c : cell) ~tag out =
  let rebuilt =
    Trace.span "delta.rebuild" ~tag (fun () ->
        match E.execute c.compiled (Maintain.source c.state) with
        | E.Complete r -> r.E.r_target
        | _ -> Wl.fail "bulk execution of the maintained source failed")
  in
  Fixtures.check_hom ~what:"maintained vs rebuilt" out rebuilt;
  Fixtures.check_keys ~what:"maintained target" c.target out

let ops ~seed (c : cell) =
  let texts = List.map Batch.to_string (batches (samples ~seed c.base)) in
  let base_digest = lazy (Fixtures.digest c.base) in
  let last = List.length texts - 1 in
  List.mapi
    (fun i (text, step) ->
      let tag = c.label ^ "/" ^ step in
      {
        Wl.name = tag;
        prep =
          (fun () () ->
            let k, out = apply c ~tag text in
            let source_digest () =
              if i = last then Fixtures.digest (Maintain.source c.state) else ""
            in
            Wl.ok
              ~tuples:(k.Maintain.mc_src_inserted + k.Maintain.mc_src_deleted)
              ~sign:(fun () -> Fixtures.cards out ^ source_digest ())
              ~verify:(fun () ->
                check_step c ~tag out;
                if i = last && source_digest () <> Lazy.force base_digest then
                  Wl.fail "the churn cycle did not restore the base source")
              ());
      })
    (List.combine texts step_names)

(* Full ≡hom against the naive chase, on a <= 10k copy of the cell
   driven through the same step stream. *)
let check_small ~seed (g : Fixtures.Gen.t) (c : cell) =
  let inst = Fixtures.populate ~scale:1000 g in
  let small = { c with state = init ~label:c.label c.compiled inst; base = inst } in
  List.iteri
    (fun i b ->
      let text = Batch.to_string b in
      let _, out = apply small ~tag:(Printf.sprintf "%s/small%d" c.label i) text in
      match
        Smg_exchange.Naive.exchange ~source:c.source ~target:c.target ~mappings:c.tgds
          (Maintain.source small.state)
      with
      | Smg_cq.Chase.Saturated naive ->
          if not (Smg_verify.Equiv.equivalent out naive) then
            Wl.fail "%s: step %d not hom-equivalent to the naive chase" c.label i
      | _ -> Wl.fail "%s: naive chase did not saturate" c.label)
    (batches (samples ~seed inst))

let setup ~size ~seed =
  let scale = match size with Wl.Full -> 100_000 | Wl.Smoke -> 2_000 in
  let cells = [ make_cell ~isa:0 ~scale ] in
  let ops = Array.of_list (List.concat_map (fun (_, c) -> ops ~seed c) cells) in
  let final () = List.iter (fun (g, c) -> check_small ~seed g c) cells in
  let layers () =
    let ms x = 1000. *. x in
    let timed sp = sp.Trace.sp_round > 0 in
    let spans ?(keep = timed) name = List.filter keep (Trace.find name) in
    let total ?keep name key =
      Stats.sum (List.map (fun sp -> Trace.counter sp key) (spans ?keep name))
    in
    let dur ?keep name = Stats.sum (List.map Trace.duration (spans ?keep name)) in
    let rounds =
      float_of_int
        (List.length (List.sort_uniq compare (List.map (fun sp -> sp.Trace.sp_round) (spans "delta.apply"))))
    in
    let step_median step =
      ms
        (Stats.median
           (List.map Trace.duration
              (List.filter
                 (fun sp -> String.ends_with ~suffix:("/" ^ step) sp.Trace.sp_tag)
                 (spans "delta.apply"))))
    in
    let warm sp = sp.Trace.sp_round = 0 in
    [
      ("delta.init_s", Stats.median (List.map Trace.duration (Trace.find "delta.init")), "s");
      ("delta.parse_ms", ms (dur "delta.parse") /. total "delta.parse" "ops" *. 1000., "ms");
      ("delta.apply_ms", ms (Stats.median (List.map Trace.duration (spans "delta.apply"))), "ms");
      ("delta.apply_small_ms", step_median (List.hd step_names), "ms");
    ]
    @ List.map
        (fun step -> ("delta.apply_ms." ^ step, step_median step, "ms"))
        (List.tl step_names)
    @ [
        ("delta.target_ms", ms (Stats.median (List.map Trace.duration (spans "delta.target"))), "ms");
        ("delta.fired_per_op", total "delta.apply" "fired" /. total "delta.apply" "ops", "ratio");
        ("delta.fired_seen_ratio", total "delta.apply" "fired" /. total "delta.apply" "seen", "ratio");
        ("delta.facts_retracted", total "delta.apply" "facts_retracted" /. rounds, "count");
        ("delta.nulls_collected", total "delta.apply" "nulls_collected" /. rounds, "count");
        ("delta.egd_rebuilds", total "delta.apply" "egd_rebuilds" /. rounds, "count");
        ("delta.full_rebuilds", total "delta.apply" "full_rebuilds" /. rounds, "count");
        ("delta.rebuild_ratio", dur ~keep:warm "delta.apply" /. dur ~keep:warm "delta.rebuild", "ratio");
      ]
  in
  { Wl.ops; final; layers; release = ignore }
