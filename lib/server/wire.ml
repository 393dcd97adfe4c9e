(* The wire protocol: length-prefixed frames over a byte stream.

   Layout: [u32 LE payload length][payload]; the payload's first byte is
   the message type, the rest the body.  Integers are little-endian,
   strings are u32-length-prefixed bytes.  The codec is pure (string in,
   message out) so it can be fuzzed without sockets; every read is
   bounds-checked and every malformed input raises {!Protocol_error} —
   never [Invalid_argument], never an out-of-bounds access.

   Requests (client -> server):
     'Q' sql                          run one SQL statement
     'P' sql                          prepare, replied with ['p' id]
     'E' u32 id, u16 n, n values      execute a prepared statement
     'X'                              cancel the in-flight query
     'q'                              goodbye; the server closes

   Responses (server -> client):
     'R' u16 ncols, ncols * (str name, dtype), u32 nrows, row-major values
     'A' i64 affected-row count
     'T' str text                     e.g. EXPLAIN output
     'p' u32 statement id
     'e' kind, str message            kind: 'g' generic, 'c' conflict,
                                      'a' governor abort, 'p' protocol

   Values are tagged: 'n' null; 'i' i64; 'f' float64 bits; 'b' u8 bool;
   's' str; 'd' i64 days (DATE).  Dtypes: 'I' 'F' 'S' 'B' 'D'. *)

module Value = Quill_storage.Value

exception Protocol_error of string

(* Upper bound on a frame; a length prefix beyond it is garbage (or an
   attack), not a result set we should try to buffer. *)
let max_frame = 16 * 1024 * 1024

type request =
  | Query of string
  | Prepare of string
  | Execute of int * Value.t array
  | Cancel
  | Quit

type err_kind = Generic | Conflict_err | Aborted_err | Protocol_err

type response =
  | Result of (string * Value.dtype) list * Value.t array list
  | Affected of int
  | Text of string
  | Prepared of int
  | Err of err_kind * string

let bad fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* --- encoding ----------------------------------------------------------- *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let put_u16 b v = Buffer.add_uint16_le b v
let put_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let put_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_value b = function
  | Value.Null -> Buffer.add_char b 'n'
  | Value.Int i ->
      Buffer.add_char b 'i';
      put_i64 b i
  | Value.Float f ->
      Buffer.add_char b 'f';
      Buffer.add_int64_le b (Int64.bits_of_float f)
  | Value.Bool v ->
      Buffer.add_char b 'b';
      put_u8 b (if v then 1 else 0)
  | Value.Str s ->
      Buffer.add_char b 's';
      put_str b s
  | Value.Date d ->
      Buffer.add_char b 'd';
      put_i64 b d

let dtype_tag = function
  | Value.Int_t -> 'I'
  | Value.Float_t -> 'F'
  | Value.Str_t -> 'S'
  | Value.Bool_t -> 'B'
  | Value.Date_t -> 'D'

let err_tag = function
  | Generic -> 'g'
  | Conflict_err -> 'c'
  | Aborted_err -> 'a'
  | Protocol_err -> 'p'

let encode_request req =
  let b = Buffer.create 64 in
  (match req with
  | Query sql ->
      Buffer.add_char b 'Q';
      Buffer.add_string b sql
  | Prepare sql ->
      Buffer.add_char b 'P';
      Buffer.add_string b sql
  | Execute (id, params) ->
      Buffer.add_char b 'E';
      put_u32 b id;
      put_u16 b (Array.length params);
      Array.iter (put_value b) params
  | Cancel -> Buffer.add_char b 'X'
  | Quit -> Buffer.add_char b 'q');
  Buffer.contents b

let encode_response resp =
  let b = Buffer.create 256 in
  (match resp with
  | Result (cols, rows) ->
      Buffer.add_char b 'R';
      put_u16 b (List.length cols);
      List.iter
        (fun (name, dt) ->
          put_str b name;
          Buffer.add_char b (dtype_tag dt))
        cols;
      put_u32 b (List.length rows);
      List.iter (fun row -> Array.iter (put_value b) row) rows
  | Affected n ->
      Buffer.add_char b 'A';
      put_i64 b n
  | Text s ->
      Buffer.add_char b 'T';
      put_str b s
  | Prepared id ->
      Buffer.add_char b 'p';
      put_u32 b id
  | Err (kind, msg) ->
      Buffer.add_char b 'e';
      Buffer.add_char b (err_tag kind);
      put_str b msg);
  Buffer.contents b

(* --- decoding ----------------------------------------------------------- *)

(* Every reader takes (s, pos ref) and advances pos; [need] is the single
   bounds check they all funnel through. *)
let need s pos n =
  if n < 0 || !pos < 0 || !pos + n > String.length s then
    bad "truncated frame: need %d bytes at offset %d of %d" n !pos
      (String.length s)

let get_u8 s pos =
  need s pos 1;
  let v = Char.code s.[!pos] in
  incr pos;
  v

let get_u16 s pos =
  need s pos 2;
  let v = String.get_uint16_le s !pos in
  pos := !pos + 2;
  v

let get_u32 s pos =
  need s pos 4;
  let v = Int32.to_int (String.get_int32_le s !pos) land 0xFFFFFFFF in
  pos := !pos + 4;
  v

let get_i64 s pos =
  need s pos 8;
  let v = String.get_int64_le s !pos in
  pos := !pos + 8;
  Int64.to_int v

let get_str s pos =
  let len = get_u32 s pos in
  if len > max_frame then bad "string length %d exceeds frame bound" len;
  need s pos len;
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

let get_value s pos =
  match Char.chr (get_u8 s pos) with
  | 'n' -> Value.Null
  | 'i' -> Value.Int (get_i64 s pos)
  | 'f' ->
      need s pos 8;
      let v = Int64.float_of_bits (String.get_int64_le s !pos) in
      pos := !pos + 8;
      Value.Float v
  | 'b' -> Value.Bool (get_u8 s pos <> 0)
  | 's' -> Value.Str (get_str s pos)
  | 'd' -> Value.Date (get_i64 s pos)
  | c -> bad "unknown value tag %C" c

let get_dtype s pos =
  match Char.chr (get_u8 s pos) with
  | 'I' -> Value.Int_t
  | 'F' -> Value.Float_t
  | 'S' -> Value.Str_t
  | 'B' -> Value.Bool_t
  | 'D' -> Value.Date_t
  | c -> bad "unknown dtype tag %C" c

let rest s pos =
  let v = String.sub s !pos (String.length s - !pos) in
  pos := String.length s;
  v

let at_end name s pos =
  if !pos <> String.length s then
    bad "%s: %d trailing bytes" name (String.length s - !pos)

let decode_request s =
  if s = "" then bad "empty frame";
  let pos = ref 0 in
  let req =
    match Char.chr (get_u8 s pos) with
    | 'Q' -> Query (rest s pos)
    | 'P' -> Prepare (rest s pos)
    | 'E' ->
        let id = get_u32 s pos in
        let n = get_u16 s pos in
        let params = Array.init n (fun _ -> get_value s pos) in
        Execute (id, params)
    | 'X' -> Cancel
    | 'q' -> Quit
    | c -> bad "unknown request type %C" c
  in
  at_end "request" s pos;
  req

let decode_response s =
  if s = "" then bad "empty frame";
  let pos = ref 0 in
  let resp =
    match Char.chr (get_u8 s pos) with
    | 'R' ->
        let ncols = get_u16 s pos in
        let cols =
          List.init ncols (fun _ ->
              let name = get_str s pos in
              let dt = get_dtype s pos in
              (name, dt))
        in
        let nrows = get_u32 s pos in
        (* Guard before allocating: each value takes >= 1 byte, so a row
           count the remaining bytes cannot hold is malformed. *)
        if nrows * max 1 ncols > String.length s - !pos then
          bad "row count %d does not fit the frame" nrows;
        let rows =
          List.init nrows (fun _ -> Array.init ncols (fun _ -> get_value s pos))
        in
        Result (cols, rows)
    | 'A' -> Affected (get_i64 s pos)
    | 'T' -> Text (get_str s pos)
    | 'p' -> Prepared (get_u32 s pos)
    | 'e' ->
        let kind =
          match Char.chr (get_u8 s pos) with
          | 'g' -> Generic
          | 'c' -> Conflict_err
          | 'a' -> Aborted_err
          | 'p' -> Protocol_err
          | c -> bad "unknown error kind %C" c
        in
        Err (kind, get_str s pos)
    | c -> bad "unknown response type %C" c
  in
  at_end "response" s pos;
  resp

(* --- framed socket I/O -------------------------------------------------- *)

(** [ignore_sigpipe ()] makes a write to a socket whose peer has gone
    fail with [EPIPE] instead of killing the process (SIGPIPE's default
    action).  Called by the server and the client before they touch a
    socket; process-wide and idempotent. *)
let ignore_sigpipe () = if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Loop [Unix.read] to fill exactly [len] bytes; 0 bytes = peer closed. *)
let really_read fd buf ofs len =
  let got = ref 0 in
  while !got < len do
    let n = Unix.read fd buf (ofs + !got) (len - !got) in
    if n = 0 then raise End_of_file;
    got := !got + n
  done

(** [read_frame fd] reads one length-prefixed frame and returns its
    payload.  Raises {!Protocol_error} on an oversized or zero-length
    prefix and [End_of_file] when the peer closed cleanly between
    frames. *)
let read_frame fd =
  let hdr = Bytes.create 4 in
  really_read fd hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_le hdr 0) land 0xFFFFFFFF in
  if len = 0 then bad "zero-length frame";
  if len > max_frame then bad "frame length %d exceeds limit %d" len max_frame;
  let payload = Bytes.create len in
  really_read fd payload 0 len;
  Bytes.unsafe_to_string payload

(** [write_frame fd payload] writes one frame (length prefix + payload). *)
let write_frame fd payload =
  let len = String.length payload in
  if len = 0 || len > max_frame then bad "refusing to send %d-byte frame" len;
  let msg = Bytes.create (4 + len) in
  Bytes.set_int32_le msg 0 (Int32.of_int len);
  Bytes.blit_string payload 0 msg 4 len;
  let sent = ref 0 in
  while !sent < Bytes.length msg do
    sent := !sent + Unix.write fd msg !sent (Bytes.length msg - !sent)
  done
