(* The blocking TCP client: connect, send a request frame, read the
   response frame.  Used by [quillsh --connect] and the server tests.
   One request in flight at a time per connection (the protocol allows a
   lone 'X' cancel frame mid-query; see {!send_cancel}). *)

module Value = Quill_storage.Value

type t = { fd : Unix.file_descr }

(** [connect ?host ~port ()] opens a connection. *)
let connect ?(host = "127.0.0.1") ~port () =
  Wire.ignore_sigpipe ();
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  { fd }

(** [request c req] sends one request and waits for the response. *)
let request c req =
  Wire.write_frame c.fd (Wire.encode_request req);
  Wire.decode_response (Wire.read_frame c.fd)

(** [query c sql] runs one statement on the server. *)
let query c sql = request c (Wire.Query sql)

(** [prepare c sql] registers a statement; returns its id. *)
let prepare c sql =
  match request c (Wire.Prepare sql) with
  | Wire.Prepared id -> Ok id
  | Wire.Err (_, m) -> Error m
  | _ -> Error "unexpected response to prepare"

(** [execute c id params] runs a prepared statement with [$n] bound to
    [params.(n-1)]. *)
let execute c id params = request c (Wire.Execute (id, params))

(** [send_cancel c] fires an out-of-band cancel at the in-flight query;
    the pending response (an abort error, usually) still arrives on the
    normal reply stream. *)
let send_cancel c = Wire.write_frame c.fd (Wire.encode_request Wire.Cancel)

(** [close c] says goodbye and closes the socket. *)
let close c =
  (try Wire.write_frame c.fd (Wire.encode_request Wire.Quit)
   with Wire.Protocol_error _ | Unix.Unix_error _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()
