(* What every workload provides, and the loop that times it.

   A workload is a fixed list of operations, built in set-up from the
   seed. A run attempts whole rounds of that list: one warm-up round
   whose outputs get the full checks, then timed rounds until the
   requested seconds have passed. Each op's latency is its median over
   the timed rounds, so a stall in one round does not move the
   figures; throughput is ops over the sum of those medians. *)

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

type size = Full | Smoke

type outcome = {
  tuples : int;  (** work items the op produced or changed *)
  failed : string option;  (** a known fault, counted as failed *)
  sign : unit -> string;  (** cheap output signature, equal every round *)
  verify : unit -> unit;  (** full output check, run on the warm-up round *)
}

let ok ?(tuples = 0) ?(sign = fun () -> "") ?(verify = ignore) () =
  { tuples; failed = None; sign; verify }

type op = {
  name : string;
  prep : unit -> unit -> outcome;
      (** untimed preparation, returning the timed call *)
}

type t = {
  ops : op array;
  final : unit -> unit;  (** checks after the timed phase *)
  layers : unit -> (string * float * string) list;
      (** per-layer metrics from the spans of the traced rounds *)
  release : unit -> unit;  (** stop what set-up started *)
}

(* Progress and per-check timings, on stderr. *)
let verbose = ref true
let log fmt = Printf.ksprintf (fun s -> if !verbose then prerr_endline s) fmt

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.heap_words * (Sys.word_size / 8)) /. 1048576.

type round = {
  r_secs : float array;
  r_sign : string array;
  r_tuples : int array;
  r_failed : bool array;
}

(* One pass over the ops. [on_op] runs untimed after each op, while its
   output is still alive; outputs are dropped once signed. *)
let round ?(on_op = fun _ _ -> ()) (w : t) =
  let n = Array.length w.ops in
  let r =
    {
      r_secs = Array.make n 0.0;
      r_sign = Array.make n "";
      r_tuples = Array.make n 0;
      r_failed = Array.make n false;
    }
  in
  Array.iteri
    (fun i op ->
      let call = op.prep () in
      let out, dt = time call in
      r.r_secs.(i) <- dt;
      on_op i out;
      r.r_sign.(i) <- out.sign ();
      r.r_tuples.(i) <- out.tuples;
      r.r_failed.(i) <- out.failed <> None)
    w.ops;
  r

type measured = {
  m_rounds : round list;  (** timed rounds, oldest first *)
  m_heap_peak_mb : float;
  m_attempted : int;
  m_failed : int;
}

(* Warm-up round (round 0) with full checks, then timed rounds 1, 2, …
   [traced] says which rounds record spans: the traced run records the
   warm-up and every other timed round, to measure what tracing costs. *)
let with_round k ~traced f =
  Trace.round := k;
  Trace.enabled := traced k;
  Fun.protect ~finally:(fun () -> Trace.enabled := false) f

let measure ?(min_rounds = 2) ?(traced = fun _ -> false) ~seconds (w : t) =
  let warm =
    with_round 0 ~traced (fun () ->
        round w ~on_op:(fun i out ->
            let (), dt =
              time (fun () ->
                  try out.verify ()
                  with Check_failed m -> fail "%s: %s" w.ops.(i).name m)
            in
            log "  warm-up %s: checked in %.2f s" w.ops.(i).name dt))
  in
  Gc.compact ();
  let peak = ref (heap_mb ()) in
  let t0 = Unix.gettimeofday () in
  let rec go k acc =
    if k >= min_rounds && Unix.gettimeofday () -. t0 >= seconds then
      List.rev acc
    else begin
      (* each round starts with no collector debt from the last one *)
      Gc.full_major ();
      let r =
        with_round (k + 1) ~traced (fun () ->
            round w ~on_op:(fun _ _ -> peak := Float.max !peak (heap_mb ())))
      in
      go (k + 1) (r :: acc)
    end
  in
  let rounds = go 0 [] in
  let peak = Float.max !peak (heap_mb ()) in
  List.iter
    (fun r ->
      Array.iteri
        (fun i s ->
          if s <> warm.r_sign.(i) then
            fail "%s: output differs from the warm-up round (%s vs %s)"
              w.ops.(i).name s warm.r_sign.(i))
        r.r_sign)
    rounds;
  let all = warm :: rounds in
  let failed =
    List.fold_left
      (fun a r -> Array.fold_left (fun a f -> if f then a + 1 else a) a r.r_failed)
      0 all
  in
  {
    m_rounds = rounds;
    m_heap_peak_mb = peak;
    m_attempted = List.length all * Array.length w.ops;
    m_failed = failed;
  }

(* Per-op medians over the given rounds, failed ops left out. *)
let op_medians rounds =
  match rounds with
  | [] -> []
  | r0 :: _ ->
      List.filter_map
        (fun i ->
          if r0.r_failed.(i) then None
          else
            Some
              ( Stats.median (List.map (fun r -> r.r_secs.(i)) rounds),
                r0.r_tuples.(i) ))
        (List.init (Array.length r0.r_secs) Fun.id)

type e2e = {
  ops_per_s : float;
  op_p50_ms : float;
  op_p90_ms : float;
  tuples_per_s : float;
}

let e2e rounds =
  let meds = op_medians rounds in
  let total = Stats.sum (List.map fst meds) in
  let lat = List.map (fun (s, _) -> 1000. *. s) meds in
  {
    ops_per_s = float_of_int (List.length meds) /. total;
    op_p50_ms = Stats.quantile 0.5 lat;
    op_p90_ms = Stats.quantile 0.9 lat;
    tuples_per_s =
      float_of_int (List.fold_left (fun a (_, t) -> a + t) 0 meds) /. total;
  }
