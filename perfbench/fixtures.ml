(* Inputs shared by the workloads: generated scenario shapes, the
   executable tgds discovery picks for them, and instance helpers. *)

module Gen = Smg_generate.Gen
module Gparams = Smg_generate.Params
module Discover = Smg_core.Discover
module Mapping = Smg_cq.Mapping
module Instance = Smg_relational.Instance
module Schema = Smg_relational.Schema

(* Scenario shapes and their data use the generator seed of
   `experiments generate`. Discovery cost moves by up to 3x and exchange
   throughput by 25% from one generator or data seed to another, and
   runs made with different seeds are compared, so --seed drives only
   what leaves the amount of work alone: op order, delta samples and
   the served churn tuples. *)
let shape_seed = 42

let params ~isa ~density ~scale =
  Gparams.clamp
    {
      Gparams.seed = shape_seed;
      isa_depth = isa;
      n_roots = 3;
      reify = 2;
      partof = 1;
      attrs_per_class = 2;
      corr_density = density;
      scale;
    }

let build p = Trace.span "generate.build" ~tag:(Gparams.label p) (fun () -> Gen.build p)

let populate ~scale (g : Gen.t) =
  Trace.span "generate.populate"
    ~tag:(Gparams.label g.Gen.g_params)
    (fun () ->
      Smg_generate.Data.populate ~scale ~seed:shape_seed
        g.Gen.g_source.Discover.schema)

let tgds_of_best ~target (best : Mapping.t) =
  if best.Mapping.outer then Mapping.outer_variants ~target best
  else [ Mapping.to_tgd best ]

(* The best discovered mapping of every per-target-table case, labelled
   by table: what `experiments generate` and the serve registry run. *)
let tgds (g : Gen.t) =
  let target = g.Gen.g_target.Discover.schema in
  List.concat_map
    (fun (tbl, corrs) ->
      match
        Trace.span "core.discover" ~tag:tbl (fun () ->
            Discover.discover ~source:g.Gen.g_source ~target:g.Gen.g_target
              ~corrs ())
      with
      | [] -> []
      | best :: _ -> tgds_of_best ~target (Mapping.rename tbl best))
    g.Gen.g_cases

(* A copy whose tuple lists the engine has never seen: its coded-arena
   cache is keyed by list identity, so executing the copy pays the
   interning a fresh CLI invocation pays. *)
let fresh_copy inst =
  Instance.of_list
    (List.map
       (fun name ->
         let r = Option.get (Instance.relation inst name) in
         (name, { r with Instance.tuples = List.map Fun.id r.Instance.tuples }))
       (Instance.names inst))

(* Order-independent digest of an instance's tuple sets. *)
let digest inst =
  let rel name =
    let r = Option.get (Instance.relation inst name) in
    name ^ ":"
    ^ String.concat "\x01"
        (List.sort String.compare
           (List.map Smg_relational.Index.tuple_key r.Instance.tuples))
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (List.map rel (List.sort String.compare (Instance.names inst)))))

let cards inst =
  String.concat ","
    (List.map
       (fun n -> Printf.sprintf "%s=%d" n (Instance.cardinality inst n))
       (List.sort String.compare (Instance.names inst)))

(* Every target key must hold. *)
let check_keys ~what schema inst =
  match Instance.check_keys schema inst with
  | [] -> ()
  | (tbl, _, _) :: _ as v ->
      Wl.fail "%s: %d key violation(s), first on %s" what (List.length v) tbl

let check_hom ~what a b =
  match Homcheck.check a b with
  | Ok () -> ()
  | Error m -> Wl.fail "%s: not hom-equivalent: %s" what m

(* Seeded shuffle (Fisher-Yates). *)
let shuffle ~seed arr =
  let st = Random.State.make [| seed |] in
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
