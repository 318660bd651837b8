(* A minimal HTTP/1.1 client over one keep-alive connection: a closed
   loop, each request sent after the previous response has arrived. *)

type t = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let request_bytes meth path body =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
    meth path (String.length body) body

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let find s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go from

(* Read more bytes into the buffer; false at end of stream. *)
let fill t =
  match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> false
  | k ->
      Buffer.add_subbytes t.buf t.chunk 0 k;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let content_length head =
  let lower = String.lowercase_ascii head in
  match find lower "\r\ncontent-length:" 0 with
  | None -> 0
  | Some i ->
      let j = i + String.length "\r\ncontent-length:" in
      let k = match find lower "\r\n" j with Some k -> k | None -> String.length lower in
      int_of_string (String.trim (String.sub lower j (k - j)))

(* Send a prepared request; returns (status, body, response bytes). *)
let send t req =
  write_all t.fd req;
  Buffer.clear t.buf;
  let rec header () =
    match find (Buffer.contents t.buf) "\r\n\r\n" 0 with
    | Some i -> i
    | None -> if fill t then header () else failwith "connection closed"
  in
  let hend = header () in
  let head = Buffer.sub t.buf 0 hend in
  let len = content_length head in
  while Buffer.length t.buf < hend + 4 + len do
    if not (fill t) then failwith "connection closed mid-body"
  done;
  let status = int_of_string (String.sub head 9 3) in
  (status, Buffer.sub t.buf (hend + 4) len, hend + 4 + len)
