(* serve: an in-process Smg_serve.Server (one handler domain, journal
   in a scratch directory) driven by one client connection in a closed
   loop. A round sends, to each of the seven preloaded built-ins, a
   discover, an exchange at size 64, a compose and a delta churn pair
   (delete two witness tuples, re-insert them); then it PUTs a generated
   scenario under a fresh content hash and runs its cold discover and
   cold exchange. Warm requests hit the registry caches; compose is
   recomposed on every request; the PUT pays the journal fsync and the
   cold path pays parse, discovery and plan compilation. *)

module Server = Smg_serve.Server
module Registry = Smg_serve.Registry
module Render = Smg_serve.Render
module Scenario = Smg_eval.Scenario
module D = Smg_core.Discover
module I = Smg_relational.Instance

let size = 64
let delta_seed = 7

type req = { cls : string; meth : string; path : string; body : unit -> string }

(* The bodies the server must return, rendered by the same library
   calls outside the server; set-up computes them, which keeps set-up
   time a figure of real work rather than of a socket bind. *)
let reference_discover (s : Scenario.t) =
  let corrs = List.concat_map (fun (c : Scenario.case) -> c.Scenario.corrs) s.Scenario.cases in
  (Render.discover_json ~meth:`Both ~dedup:false
     ~file:(String.lowercase_ascii s.Scenario.scen_name)
     ~source:s.Scenario.source ~target:s.Scenario.target ~corrs ())
    .Render.dj_json

let check_body ~expected body =
  if not (String.equal expected body) then
    Wl.fail "body differs from the library rendering"

let witness ~seed (s : Scenario.t) =
  let schema = s.Scenario.source.D.schema in
  let rows = max 1 (size / max 1 (List.length schema.Smg_relational.Schema.tables)) in
  Smg_eval.Witness.populate_cached ~rows_per_table:rows ~seed schema

let reference_exchange (s : Scenario.t) =
  let source = s.Scenario.source.D.schema and target = s.Scenario.target.D.schema in
  let inst = witness ~seed:42 s in
  match
    Smg_exchange.Engine.compile ~card:(I.cardinality inst) ~laconic:true ~source ~target
      ~mappings:(Registry.scenario_tgds s) ()
  with
  | Error e -> Wl.fail "reference compile: %s" e
  | Ok c -> (
      match Smg_exchange.Engine.execute c inst with
      | Smg_exchange.Engine.Complete r ->
          Render.exchange_json
            ~head:
              [
                ("scenario", Render.json_str s.Scenario.scen_name);
                ("size", string_of_int size);
                ("seed", "42");
              ]
            ~laconic:true r
      | _ -> Wl.fail "reference exchange failed")

(* Two source tuples of one table, deleted then re-inserted. *)
let churn ~seed (s : Scenario.t) =
  let inst = witness ~seed:delta_seed s in
  let ground name =
    List.filter (fun t -> not (Homcheck.has_null t)) (Option.get (I.relation inst name)).I.tuples
  in
  let names = List.filter (fun n -> List.length (ground n) >= 2) (List.sort compare (I.names inst)) in
  let name = List.nth names (abs seed mod List.length names) in
  let tuples = List.filteri (fun i _ -> i < 2) (ground name) in
  let batch f = Smg_delta.Batch.to_string (List.map (fun t -> f (name, t)) tuples) in
  ( batch (fun (n, t) -> Smg_delta.Batch.Delete (n, t)),
    batch (fun (n, t) -> Smg_delta.Batch.Insert (n, t)) )

(* The generated scenario PUT every round; a leading comment with a
   fresh nonce gives it a new content hash, so its discovery and plans
   are cold every time. *)
let fresh_text () =
  let g = Fixtures.build (Fixtures.params ~isa:1 ~density:0.5 ~scale:100) in
  Smg_generate.Gen.dsl g

let metrics_line body ep =
  match Client.find body (Printf.sprintf "%S: {" ep) 0 with
  | None -> ""
  | Some i -> (
      match Client.find body "}" i with Some j -> String.sub body i (j - i) | None -> "")

(* The number after [key] in a JSON text; nan when absent. *)
let number_field line key =
  match Client.find line key 0 with
  | None -> nan
  | Some i ->
      let j = i + String.length key in
      let k = ref j in
      while !k < String.length line && (match line.[!k] with '0' .. '9' | '.' -> true | _ -> false) do incr k done;
      if !k > j then float_of_string (String.sub line j (!k - j)) else nan

let truncate_nan x = if Float.is_nan x then 0 else int_of_float x

let counter = ref 0

let setup ~size:sz ~seed ~out_dir =
  incr counter;
  let dir = Filename.concat out_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !counter) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let journal = Filename.concat dir "journal" in
  (try Sys.remove journal with Sys_error _ -> ());
  let srv =
    Server.create
      {
        Server.default_config with
        port = 0;
        domains = 1;
        max_inflight = 8;
        journal = Some journal;
        idle_timeout_s = 600.;
      }
  in
  let server = Domain.spawn (fun () -> ignore (Server.run srv)) in
  let client = Client.connect (Server.port srv) in
  let scens =
    List.sort
      (fun a b -> compare a.Scenario.scen_name b.Scenario.scen_name)
      (Smg_eval.Datasets.all ())
  in
  let scens = match sz with Wl.Full -> scens | Wl.Smoke -> List.filteri (fun i _ -> i < 2) scens in
  let text = fresh_text () in
  let nonce = ref 0 in
  let post cls path = { cls; meth = "POST"; path; body = (fun () -> "") } in
  let builtin (s : Scenario.t) =
    let name = String.lowercase_ascii s.Scenario.scen_name in
    let del, ins = churn ~seed s in
    let base = "/scenarios/" ^ name in
    let delta b = { cls = "delta"; meth = "POST"; path = Printf.sprintf "%s/delta?size=%d&seed=%d" base size delta_seed; body = (fun () -> b) } in
    [
      (post "discover" (base ^ "/discover"), Some (reference_discover s));
      (post "exchange" (Printf.sprintf "%s/exchange?size=%d" base size), Some (reference_exchange s));
      (post "compose" (base ^ "/compose"), None);
      (delta del, None);
      (delta ins, None);
    ]
  in
  let cold =
    [
      ( {
          cls = "put";
          meth = "PUT";
          path = "/scenarios/fresh";
          body =
            (fun () ->
              incr nonce;
              Printf.sprintf "# seed %d registration %d\n%s" seed !nonce text);
        },
        None );
      ({ (post "discover_cold" "/scenarios/fresh/discover") with cls = "discover_cold" }, None);
      ({ (post "exchange_cold" (Printf.sprintf "/scenarios/fresh/exchange?size=%d" size)) with cls = "exchange_cold" }, None);
    ]
  in
  let reqs = List.concat_map builtin scens @ cold in
  let sent = Hashtbl.create 8 in
  let endpoint cls =
    match cls with "discover_cold" -> "discover" | "exchange_cold" -> "exchange" | c -> c
  in
  let get_metrics () =
    let status, body, _ = Client.send client (Client.request_bytes "GET" "/metrics" "") in
    if status <> 200 then Wl.fail "GET /metrics -> %d" status;
    Hashtbl.replace sent "metrics" (1 + Option.value ~default:0 (Hashtbl.find_opt sent "metrics"));
    body
  in
  (* registry counters as the first timed round starts, so the hit
     ratio covers the timed rounds only *)
  let at_round1 = ref None in
  let ops =
    Array.of_list
      (List.map
         (fun (r, expected) ->
           {
             Wl.name = r.cls ^ " " ^ r.path;
             prep =
               (fun () ->
                 if !Trace.round = 1 && !at_round1 = None then
                   at_round1 := Some (get_metrics ());
                 let raw = Client.request_bytes r.meth r.path (r.body ()) in
                 fun () ->
                   let status, body =
                     Trace.span ("serve." ^ r.cls) ~tag:r.path (fun () ->
                         let status, body, n = Client.send client raw in
                         Trace.count "bytes" (float_of_int n);
                         (status, body))
                   in
                   let ep = endpoint r.cls in
                   Hashtbl.replace sent ep (1 + Option.value ~default:0 (Hashtbl.find_opt sent ep));
                   if status < 200 || status > 299 then
                     Wl.fail "%s %s -> %d: %s" r.meth r.path status body;
                   let deterministic = r.cls <> "delta" && r.cls <> "put" in
                   Wl.ok
                     ~tuples:(truncate_nan (number_field body "\"target_tuples\": "))
                     ~sign:(fun () ->
                       string_of_int status
                       ^ if deterministic then Digest.to_hex (Digest.string body) else "")
                     ~verify:(fun () ->
                       Option.iter (fun e -> check_body ~expected:e body) expected)
                     ());
           })
         reqs)
  in
  let final () =
    let body = get_metrics () in
    Hashtbl.iter
      (fun ep n ->
        (* the scrape itself is recorded after its own response *)
        let expect = if ep = "metrics" then n - 1 else n in
        let got = int_of_float (number_field (metrics_line body ep) "\"requests\": ") in
        if got <> expect then
          Wl.fail "/metrics counts %d %s request(s), %d were sent" got ep expect)
      sent
  in
  let layers () =
    let ms x = 1000. *. x in
    let timed sp = sp.Trace.sp_round > 0 in
    let p50 cls = Stats.median (List.map Trace.duration (List.filter timed (Trace.find ("serve." ^ cls)))) in
    let body = get_metrics () in
    let server_p50 ep = number_field (metrics_line body ep) "\"p50_ms\": " in
    let classes = [ "discover"; "exchange"; "compose"; "delta" ] in
    let share =
      Stats.sum (List.map server_p50 classes) /. ms (Stats.sum (List.map p50 classes))
    in
    let count body key =
      Stats.sum
        (List.map (fun ep -> number_field (metrics_line body ep) key) [ "discover"; "exchange" ])
    in
    let since key = count body key -. count (Option.value ~default:"" !at_round1) key in
    let hits = since "\"cache_hits\": " and misses = since "\"cache_misses\": " in
    let spans = List.filter timed (List.concat_map (fun r -> Trace.find ("serve." ^ (fst r).cls)) reqs) in
    let writes =
      List.fold_left (fun a (ep, n) -> if ep = "put" || ep = "delta" then a + n else a) 0
        (List.of_seq (Hashtbl.to_seq sent))
    in
    let compose =
      List.map
        (fun (s : Scenario.t) ->
          let fwd = Registry.scenario_tgds s in
          let src = s.Scenario.source.D.schema and tgt = s.Scenario.target.D.schema in
          let primed = Smg_compose.Invert.prime_schema ~suffix:"_inv" src in
          let hops =
            [
              { Smg_compose.Pipeline.h_source = src; h_target = tgt; h_tgds = fwd };
              {
                Smg_compose.Pipeline.h_source = tgt;
                h_target = primed;
                h_tgds = Smg_compose.Invert.quasi_inverse ~prime:"_inv" fwd;
              };
            ]
          in
          snd (Wl.time (fun () -> ignore (Smg_compose.Pipeline.compose_chain hops))))
        scens
    in
    [
      ("serve.discover_warm_ms", ms (p50 "discover"), "ms");
      ("serve.discover_cold_ms", ms (p50 "discover_cold"), "ms");
      ("serve.exchange_ms", ms (p50 "exchange"), "ms");
      ("serve.delta_ms", ms (p50 "delta"), "ms");
      ("serve.compose_ms", ms (p50 "compose"), "ms");
      ("serve.put_ms", ms (p50 "put"), "ms");
      ("serve.server_share", share, "ratio");
      ("serve.cache_hit_ratio", hits /. (hits +. misses), "ratio");
      ( "serve.response_kb",
        Stats.mean (List.map (fun sp -> Trace.counter sp "bytes") spans) /. 1024.,
        "KB" );
      ( "serve.journal_bytes_per_write",
        float_of_int (Unix.stat journal).Unix.st_size /. float_of_int (max 1 writes),
        "B" );
      ("compose.chain_ms", ms (Stats.median compose), "ms");
    ]
  in
  let release () =
    Client.close client;
    Server.stop srv;
    Domain.join server;
    (try Sys.remove journal with Sys_error _ -> ());
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  { Wl.ops; final; layers; release }
