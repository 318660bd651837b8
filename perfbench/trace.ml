(* The benchmark's own spans: one per call into a layer's public
   function, recorded from the benchmark's files only (the program under
   test carries no instrumentation). Spans are kept in memory and
   written out at exit. Every span is opened and closed on the main
   domain, so the stack of open spans is a plain list. *)

type span = {
  sp_id : int;
  sp_parent : int;  (** -1 at the top level *)
  sp_name : string;
  sp_tag : string;  (** the op or fixture the call served *)
  sp_start : float;
  mutable sp_stop : float;
  mutable sp_counts : (string * float) list;
  sp_round : int;  (** the round the span belongs to; -1 in set-up *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []

(* Set by the round loop: -1 during set-up, 0 for the warm-up round. *)
let round = ref (-1)

(* Spans of workloads already reported, kept for the trace file. *)
let archived : span list ref = ref []

let reset () =
  archived := !spans @ !archived;
  spans := [];
  stack := [];
  round := -1

let span ?(tag = "") name f =
  if not !enabled then f ()
  else begin
    let sp =
      {
        sp_id = !next_id;
        sp_parent = (match !stack with p :: _ -> p.sp_id | [] -> -1);
        sp_name = name;
        sp_tag = tag;
        sp_start = Unix.gettimeofday ();
        sp_stop = nan;
        sp_counts = [];
        sp_round = !round;
      }
    in
    incr next_id;
    stack := sp :: !stack;
    Fun.protect
      ~finally:(fun () ->
        sp.sp_stop <- Unix.gettimeofday ();
        stack := List.tl !stack;
        spans := sp :: !spans)
      f
  end

(* Attach a count to the innermost open span. *)
let count name v =
  if !enabled then
    match !stack with
    | sp :: _ -> sp.sp_counts <- (name, v) :: sp.sp_counts
    | [] -> ()

let duration sp = sp.sp_stop -. sp.sp_start

let all () = List.rev !spans

let find ?tag name =
  List.filter
    (fun sp ->
      String.equal sp.sp_name name
      && match tag with None -> true | Some t -> String.equal sp.sp_tag t)
    (all ())

let counter sp name =
  match List.assoc_opt name sp.sp_counts with Some v -> v | None -> 0.0

(* Chrome trace-event JSON: complete events with the parent id in
   [args], readable offline by any trace viewer. *)
let write path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i sp ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.1f, \
         \"dur\": %.1f, \"args\": {\"id\": %d, \"parent\": %d, \"tag\": %S%s}}"
        sp.sp_name (sp.sp_start *. 1e6)
        (duration sp *. 1e6)
        sp.sp_id sp.sp_parent sp.sp_tag
        (String.concat ""
           (List.rev_map
              (fun (k, v) -> Printf.sprintf ", %S: %.6g" k v)
              sp.sp_counts)))
    (List.rev !archived @ all ());
  output_string oc "\n]}\n";
  close_out oc

(* Durations grouped by tag, in first-seen order. *)
let by_tag ?(keep = fun _ -> true) name =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun sp ->
      if String.equal sp.sp_name name && keep sp then begin
        if not (Hashtbl.mem tbl sp.sp_tag) then order := sp.sp_tag :: !order;
        Hashtbl.add tbl sp.sp_tag sp
      end)
    (all ());
  List.rev_map (fun tag -> (tag, List.rev (Hashtbl.find_all tbl tag))) !order
