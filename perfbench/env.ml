(* The environment stamp printed with every run, so that a slow
   machine can be told apart from a slow program. *)

(* A fixed CPU loop: its time moves with the machine, not the code. *)
let calibrate () =
  let t0 = Unix.gettimeofday () in
  let x = ref 0 in
  for i = 1 to 100_000_000 do
    x := (!x lxor (i * 0x9E3779B1)) land 0xFFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  Unix.gettimeofday () -. t0

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (String.trim (really_input_string ic (in_channel_length ic))))
  with Sys_error _ -> None

(* The checked-out revision, read from .git without running git; a
   checkout without .git reports "none". *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" -> (
          let r = String.sub head (i + 1) (String.length head - i - 1) in
          match read_file (Filename.concat ".git" r) with
          | Some rev -> rev
          | None -> (
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some packed -> (
                  let line =
                    List.find_opt
                      (fun l ->
                        String.length l > 41
                        && String.sub l 41 (String.length l - 41) = r)
                      (String.split_on_char '\n' packed)
                  in
                  match line with
                  | Some l -> String.sub l 0 40
                  | None -> "unknown")))
      | _ -> head)

let json ~workload ~seed ~trace =
  let env name =
    match Sys.getenv_opt name with
    | Some v -> Printf.sprintf "%S" v
    | None -> "null"
  in
  Printf.sprintf
    "{\"env\": {\"nproc\": %d, \"ocaml\": %S, \"git_rev\": %S, \
     \"SMG_DOMAINS\": %s, \"SMG_SHARDS\": %s, \"workload\": %S, \"seed\": %d, \
     \"trace\": %b, \"calibration_s\": %.4f}}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_rev ()) (env "SMG_DOMAINS") (env "SMG_SHARDS")
    workload seed trace (calibrate ())
