(* The benchmark command. Usage:

     bench.exe --workload discover|exchange|delta|serve --seed N
               --seconds S --trace 0|1

   run from the root of a checkout (it reads scenarios/*.smg).

   Prints an environment stamp, then as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones of the chosen workload; with
   --trace 1 they are the per-layer metrics of every workload (the
   chosen one timed for --seconds, the others for up to two, all in a
   fixed order), plus the tracing overhead measured on the chosen
   workload. Spans go to
   perfbench/_out/trace-<workload>-<seed>.json. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let args = Array.to_list Sys.argv |> List.tl

let rec arg name = function
  | k :: v :: _ when k = name -> Some v
  | _ :: rest -> arg name rest
  | [] -> None

let int_arg name =
  match arg name args with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  | None -> usage ()

let workload = match arg "--workload" args with Some w -> w | None -> usage ()
let seed = int_arg "--seed"
let seconds = float_of_int (int_arg "--seconds")
let trace = int_arg "--trace" = 1
let size = Wl.Full
let scenarios = "scenarios"

let out_dir = "perfbench/_out"

let setups =
  [
    ("discover", fun () -> Wl_discover.setup ~size ~seed ~scenarios);
    ("exchange", fun () -> Wl_exchange.setup ~size);
    ("delta", fun () -> Wl_delta.setup ~size ~seed);
    ("serve", fun () -> Wl_serve.setup ~size ~seed ~out_dir);


  ]

(* Set-up runs at least three times and for at least a second, so one
   slow set-up does not move the median and a set-up of a few
   milliseconds is sampled often enough to give a steady one; setup_s
   is that median, and the last instance is the one measured. *)
let setup_median setup =
  let rec go k spent acc =
    let w, dt = Wl.time setup in
    let acc = dt :: acc and spent = spent +. dt in
    if k >= 3 && spent >= 1.0 then begin
      Wl.log "set-up: %d time(s), median %.4f s" k (Stats.median acc);
      (w, Stats.median acc)
    end
    else begin
      w.Wl.release ();
      Gc.compact ();
      go (k + 1) spent acc
    end
  in
  go 1 0. []

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.12g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          metrics))

let untraced setup =
  let w, setup_s = setup_median setup in
  let m = Wl.measure ~seconds w in
  let (), dt = Wl.time w.Wl.final in
  Wl.log "final checks: %.2f s" dt;
  w.Wl.release ();
  let e = Wl.e2e m.Wl.m_rounds in
  Array.iteri
    (fun i op ->
      Wl.log "  %-48s %10.2f ms" op.Wl.name
        (1000. *. Stats.median (List.map (fun r -> r.Wl.r_secs.(i)) m.Wl.m_rounds)))
    w.Wl.ops;
  Wl.log "timed rounds: %d" (List.length m.Wl.m_rounds);
  ( m,
    [
      ("setup_s", setup_s, "s");
      ("ops_per_s", e.Wl.ops_per_s, "ops/s");
      ("op_p50_ms", e.Wl.op_p50_ms, "ms");
      ("op_p90_ms", e.Wl.op_p90_ms, "ms");
      ("tuples_per_s", e.Wl.tuples_per_s, "tuples/s");
      ("heap_peak_mb", m.Wl.m_heap_peak_mb, "MB");
    ] )

(* Traced: every workload runs, in the fixed order of [setups], so each
   finds the same process-global state (the intern pool) whatever
   --workload is. The chosen one alternates traced and untraced timed
   rounds for --seconds and makes its final checks; the others run
   set-up, the checked warm-up round and traced rounds for up to two
   seconds (at least one round), without their final checks, which the
   untraced runs make. *)
let traced name =
  let traced_setup setup =
    Trace.reset ();
    Trace.enabled := true;
    Fun.protect ~finally:(fun () -> Trace.enabled := false) setup
  in
  let chosen setup =
    let w = traced_setup setup in
    let traced_round k = k = 0 || k mod 2 = 1 in
    let m = Wl.measure ~min_rounds:2 ~traced:traced_round ~seconds w in
    let total keep =
      Stats.sum
        (List.map fst
           (Wl.op_medians
              (List.filteri (fun i _ -> keep (traced_round (i + 1))) m.Wl.m_rounds)))
    in
    let overhead = total Fun.id /. total not in
    let own = w.Wl.layers () in
    w.Wl.final ();
    w.Wl.release ();
    (Some (m, overhead), own)
  in
  let brief setup =
    let w = traced_setup setup in
    ignore
      (Wl.measure ~min_rounds:1 ~traced:(fun _ -> true)
         ~seconds:(Float.min 2. seconds) w);
    let l = w.Wl.layers () in
    w.Wl.release ();
    (None, l)
  in
  let runs =
    List.map
      (fun (other, setup) -> if other = name then chosen setup else brief setup)
      setups
  in
  let m, overhead = Option.get (List.find_map fst runs) in
  let layers =
    List.sort compare (List.concat_map snd runs)
    @ [ ("trace.overhead_ratio", overhead, "ratio") ]
  in
  (m, layers)

let () =
  let setup =
    match List.assoc_opt workload setups with Some s -> s | None -> usage ()
  in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  print_endline (Env.json ~workload ~seed ~trace);
  match if trace then traced workload else untraced setup with
  | m, metrics ->
      if trace then begin
        List.iter (fun (n, v, u) -> Printf.printf "  %-32s %14s %s\n" n (json_num v) u) metrics;
        Trace.write
          (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed))
      end;
      print_result ~correct:true ~attempted:m.Wl.m_attempted ~failed:m.Wl.m_failed
        metrics
  | exception e ->
      Printf.eprintf "check failed: %s\n%!"
        (match e with Wl.Check_failed msg -> msg | e -> Printexc.to_string e);
      print_result ~correct:false ~attempted:1 ~failed:0 [];
      exit 1
