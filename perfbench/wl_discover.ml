(* discover: CSG search, LAV rewrite and dedup, one case per op, over
   the paper's 34 benchmark cases and every per-target-table case of
   nine generated shapes (ISA depth × correspondence density). No data
   is exchanged. *)

module D = Smg_core.Discover
module M = Smg_cq.Mapping
module Scenario = Smg_eval.Scenario
module Mapverify = Smg_verify.Mapverify

type case = {
  label : string;
  source : D.side;
  target : D.side;
  corrs : M.corr list;
  bench : M.t list;  (** hand-written benchmark mappings; [] if generated *)
  dense : bool;  (** generated at correspondence density >= 0.8 *)
}

let options = Smg_eval.Experiments.semantic_options

let run_case ?pool c =
  let ms =
    Trace.span "core.discover" ~tag:c.label (fun () ->
        let ms = D.discover ~options ?pool ~source:c.source ~target:c.target ~corrs:c.corrs () in
        Trace.count "candidates" (float_of_int (List.length ms));
        ms)
  in
  let rp =
    Trace.span "verify.dedup" ~tag:c.label (fun () ->
        let rp =
          Mapverify.dedup ?pool ~source:c.source.D.schema
            ~target:c.target.D.schema
            (Smg_serve.Render.label_by_rank ms)
        in
        Trace.count "in" (float_of_int rp.Mapverify.rp_in);
        Trace.count "kept" (float_of_int (List.length rp.Mapverify.rp_kept));
        rp)
  in
  (ms, rp)

let sign (ms, rp) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (Fmt.str "%a" M.pp) ms
          @ List.map (Fmt.str "%a" M.pp) rp.Mapverify.rp_kept)))

(* Figure 7: every hand-written benchmark mapping is among the
   candidates, up to chase-implied atoms. *)
let check_recall c ms =
  let o =
    Smg_eval.Measures.score
      ~schemas:(c.source.D.schema, c.target.D.schema)
      ~generated:ms ~benchmark:c.bench ()
  in
  if o.Smg_eval.Measures.n_hits < o.Smg_eval.Measures.n_benchmark then
    Wl.fail "recall %d/%d" o.Smg_eval.Measures.n_hits
      o.Smg_eval.Measures.n_benchmark

(* Generated cases have no hand-written answer: each candidate must
   compile against both schemas and cover only the case's
   correspondences. *)
let check_generated c ms =
  List.iter
    (fun (m : M.t) ->
      List.iter
        (fun k ->
          if not (List.exists (fun k' -> M.compare_corr k k' = 0) c.corrs) then
            Wl.fail "%s covers a correspondence outside the case" m.M.m_name)
        m.M.covered;
      let target = c.target.D.schema in
      match
        Smg_exchange.Engine.compile ~source:c.source.D.schema ~target
          ~mappings:(Fixtures.tgds_of_best ~target m) ()
      with
      | Ok _ -> ()
      | Error e -> Wl.fail "%s does not compile: %s" m.M.m_name e)
    ms

let verify c (ms, _) () =
  if c.bench <> [] then check_recall c ms else check_generated c ms

let scenario_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".smg")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let paper_cases () =
  List.concat_map
    (fun (s : Scenario.t) ->
      List.map
        (fun (k : Scenario.case) ->
          {
            label = s.Scenario.scen_name ^ "/" ^ k.Scenario.case_name;
            source = s.Scenario.source;
            target = s.Scenario.target;
            corrs = k.Scenario.corrs;
            bench = k.Scenario.benchmark;
            dense = false;
          })
        s.Scenario.cases)
    (Smg_eval.Datasets.all ())

let setup ~size ~seed ~scenarios =
  (* the fixtures are parsed and lowered here; their cost is set-up *)
  List.iter
    (fun path ->
      let doc =
        Trace.span "dsl.parse" ~tag:(Filename.basename path) (fun () ->
            Smg_dsl.Parser.parse_file path)
      in
      match
        Trace.span "core.lower" ~tag:(Filename.basename path) (fun () ->
            Smg_serve.Registry.sides_of_doc doc)
      with
      | Ok _ -> ()
      | Error e -> Wl.fail "%s: %s" path e)
    (scenario_files scenarios);
  let grid =
    match size with
    | Wl.Full -> [ 0.5; 0.8; 1.0 ] |> List.concat_map (fun d -> [ (0, d); (1, d); (2, d) ])
    | Wl.Smoke -> [ (0, 0.5); (1, 0.5) ]
  in
  let generated =
    List.concat_map
      (fun (isa, density) ->
        let g = Fixtures.build (Fixtures.params ~isa ~density ~scale:100) in
        List.map
          (fun (tbl, corrs) ->
            {
              label = Smg_generate.Params.label g.Fixtures.Gen.g_params ^ "/" ^ tbl;
              source = g.Fixtures.Gen.g_source;
              target = g.Fixtures.Gen.g_target;
              corrs;
              bench = [];
              dense = density >= 0.8;
            })
          g.Fixtures.Gen.g_cases)
      grid
  in
  let paper = paper_cases () in
  let paper = match size with Wl.Full -> paper | Wl.Smoke -> List.filteri (fun i _ -> i < 6) paper in
  let cases = Fixtures.shuffle ~seed (Array.of_list (paper @ generated)) in
  let ops =
    Array.map
      (fun c ->
        {
          Wl.name = c.label;
          prep =
            (fun () () ->
              let out = run_case c in
              Wl.ok
                ~tuples:(List.length (snd out).Mapverify.rp_kept)
                ~sign:(fun () -> sign out)
                ~verify:(verify c out) ());
        })
      cases
  in
  let final () =
    (* the ranked output is byte-identical with a 2-domain pool *)
    Smg_parallel.Pool.with_pool ~domains:2 (fun pool ->
        Array.iter
          (fun c ->
            if sign (run_case ~pool c) <> sign (run_case c) then
              Wl.fail "%s: output differs between 1 and 2 domains" c.label)
          cases)
  in
  let layers () =
    let timed sp = sp.Trace.sp_round > 0 in
    let per_case name =
      List.map
        (fun (tag, sps) -> (tag, Stats.median (List.map Trace.duration sps)))
        (Trace.by_tag ~keep:timed name)
    in
    let ms x = 1000. *. x in
    let setup_median name =
      ms (Stats.median (List.map Trace.duration (Trace.find name)))
    in
    let disc = per_case "core.discover" in
    let dense =
      List.filter
        (fun (tag, _) ->
          Array.exists (fun c -> c.dense && String.equal c.label tag) cases)
        disc
    in
    let counts name key =
      Stats.sum
        (List.map (fun sp -> Trace.counter sp key)
           (List.filter timed (Trace.find name)))
    in
    let n_disc = float_of_int (List.length (List.filter timed (Trace.find "core.discover"))) in
    [
      ("dsl.parse_ms", setup_median "dsl.parse", "ms");
      ("core.lower_ms", setup_median "core.lower", "ms");
      ("core.discover_ms", ms (Stats.median (List.map snd disc)), "ms");
      ("core.discover_dense_ms", ms (Stats.sum (List.map snd dense)), "ms");
      ("core.candidates_per_case", counts "core.discover" "candidates" /. n_disc, "count");
      ("verify.dedup_ms", ms (Stats.mean (List.map snd (per_case "verify.dedup"))), "ms");
      ( "verify.dedup_kept_ratio",
        counts "verify.dedup" "kept" /. counts "verify.dedup" "in",
        "ratio" );
    ]
  in
  { Wl.ops; final; layers; release = ignore }
