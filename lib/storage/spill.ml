(* Spill-file manager: out-of-core runs for budget-pressured operators.

   When the governor's soft watermark fires, hash-join builds, group
   tables and sort buffers dump their state here as *runs*: append-only
   files of length-prefixed, CRC32-checked row batches (the WAL's frame
   convention, reusing {!Quill_util.Hashing.crc32}).  Every byte goes
   through {!Sim_fs}, so the crash/torn-write/fsync-failure faults the
   durability tests inject also cover spill I/O; reads verify each
   frame's checksum and raise {!Error} on any corruption, so a damaged
   spill can abort a query but never feed it wrong rows.

   Layout: one *session* per governed query, a directory
   [<root>/spill/q<n>] holding [run-<k>.spl] files.  The session is
   deleted when the query ends (normally, by abort, or by cancel); runs
   consumed mid-query are deleted eagerly.  Directories that survive a
   crash are garbage by construction — {!prune_orphans} removes the
   whole [<root>/spill] tree during recovery, mirroring snapshot
   generation pruning. *)

module Hashing = Quill_util.Hashing
module Metrics = Quill_obs.Metrics

exception Error of string
(** Corrupt or unreadable spill data (CRC mismatch, torn frame, missing
    file).  Surfaced to callers as a storage error, never as rows. *)

(* The accounting the acceptance criteria ask for: bytes and runs
   written, partition fan-outs performed and run merges executed. *)
let m_bytes = Metrics.counter "quill.spill.bytes"
let m_runs = Metrics.counter "quill.spill.runs"
let m_partitions = Metrics.counter "quill.spill.partitions"
let m_merges = Metrics.counter "quill.spill.merges"

(** [note_partitions k] records a Grace-join fan-out into [k] partitions. *)
let note_partitions k = Metrics.add m_partitions k

(** [note_merge ()] records one multi-run merge (external sort, spilled
    group tables, partition recursion). *)
let note_merge () = Metrics.incr m_merges

(* --- Row codec ---------------------------------------------------------- *)

let header = "QSPL1\n"

let put_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let get_u32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let put_i64 buf n =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((n asr (8 * i)) land 0xff))
  done

let get_i64 s pos =
  let n = ref 0 in
  for i = 7 downto 0 do
    n := (!n lsl 8) lor Char.code s.[pos + i]
  done;
  !n

let encode_value buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_char buf 'N'
  | Value.Int i ->
      Buffer.add_char buf 'i';
      put_i64 buf i
  | Value.Float f ->
      Buffer.add_char buf 'f';
      (* All 64 float bits: squeezing them through a 63-bit OCaml int
         corrupts the sign/exponent boundary (any |f| >= 2.0). *)
      let bits = Int64.bits_of_float f in
      for i = 0 to 7 do
        Buffer.add_char buf
          (Char.chr
             (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
      done
  | Value.Str s ->
      Buffer.add_char buf 's';
      put_u32 buf (String.length s);
      Buffer.add_string buf s
  | Value.Bool b ->
      Buffer.add_char buf 'b';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Date d ->
      Buffer.add_char buf 'd';
      put_i64 buf d

let encode_row buf (row : Value.t array) =
  put_u32 buf (Array.length row);
  Array.iter (encode_value buf) row

let bad what = raise (Error ("spill: corrupt run: " ^ what))

let decode_value s pos =
  if !pos >= String.length s then bad "truncated value";
  let tag = s.[!pos] in
  incr pos;
  let need n = if !pos + n > String.length s then bad "truncated value" in
  match tag with
  | 'N' -> Value.Null
  | 'i' ->
      need 8;
      let v = Value.Int (get_i64 s !pos) in
      pos := !pos + 8;
      v
  | 'f' ->
      need 8;
      let bits = ref 0L in
      for i = 7 downto 0 do
        bits :=
          Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (Char.code s.[!pos + i]))
      done;
      let v = Value.Float (Int64.float_of_bits !bits) in
      pos := !pos + 8;
      v
  | 's' ->
      need 4;
      let len = get_u32 s !pos in
      pos := !pos + 4;
      need len;
      let v = Value.Str (String.sub s !pos len) in
      pos := !pos + len;
      v
  | 'b' ->
      need 1;
      let v = Value.Bool (s.[!pos] <> '\000') in
      incr pos;
      v
  | 'd' ->
      need 8;
      let v = Value.Date (get_i64 s !pos) in
      pos := !pos + 8;
      v
  | c -> bad (Printf.sprintf "unknown value tag %C" c)

let decode_rows payload =
  let pos = ref 0 in
  let out = ref [] in
  while !pos < String.length payload do
    if !pos + 4 > String.length payload then bad "truncated row header";
    let arity = get_u32 payload !pos in
    pos := !pos + 4;
    if arity < 0 || arity > 1 lsl 20 then bad "implausible row arity";
    let row = Array.init arity (fun _ -> decode_value payload pos) in
    out := row :: !out
  done;
  Array.of_list (List.rev !out)

(* --- Sessions ----------------------------------------------------------- *)

type t = {
  dir : string;  (** this query's spill directory *)
  mutable made : bool;  (** directory created on first run *)
  mutable next_run : int;
  mutable bytes : int;  (** total bytes written by this session *)
  mutable runs : int;  (** total runs written by this session *)
  lock : Mutex.t;  (** sessions are shared across pool domains *)
}

type run = { r_path : string; r_rows : int; r_bytes : int; mutable r_deleted : bool }

let run_rows r = r.r_rows
let run_bytes r = r.r_bytes

(** [spill_root root] is the directory all spill sessions of a data
    directory live under. *)
let spill_root root = Filename.concat root "spill"

let session_counter = Atomic.make 0

(** [default_root ()] is the per-process spill root for sessions with no
    durable data directory. *)
let default_root () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "quill-spill-%d" (Unix.getpid ()))

(** [fresh_session root] makes a session whose directory will be
    [<root>/spill/q<n>]; nothing touches the disk until the first run. *)
let fresh_session root =
  let n = Atomic.fetch_and_add session_counter 1 in
  {
    dir = Filename.concat (spill_root root) (Printf.sprintf "q%d" n);
    made = false;
    next_run = 0;
    bytes = 0;
    runs = 0;
    lock = Mutex.create ();
  }

let dir t = t.dir
let bytes_spilled t = t.bytes
let runs_written t = t.runs

(* Create the session dir (and any missing ancestors — the tmpdir-based
   default root starts from nothing) through Sim_fs, so a crash budget
   can land on the mkdir itself. *)
let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path then mkdir_p parent;
    Sim_fs.mkdir path
  end

let ensure_dir t =
  if not t.made then begin
    mkdir_p t.dir;
    t.made <- true
  end

(* --- Run writers -------------------------------------------------------- *)

(* Frames batch rows so tiny spills don't pay a write syscall per row;
   64 KiB keeps the reader's working set bounded. *)
let frame_target = 64 * 1024

type writer = {
  w_session : t;
  w_path : string;
  w_file : Sim_fs.t;
  w_buf : Buffer.t;
  mutable w_rows : int;
  mutable w_bytes : int;
  mutable w_closed : bool;
}

let flush_frame w =
  if Buffer.length w.w_buf > 0 then begin
    let payload = Buffer.contents w.w_buf in
    Buffer.clear w.w_buf;
    let frame = Buffer.create (String.length payload + 8) in
    put_u32 frame (String.length payload);
    put_u32 frame (Hashing.crc32 payload);
    Buffer.add_string frame payload;
    let s = Buffer.contents frame in
    Sim_fs.write w.w_file s;
    w.w_bytes <- w.w_bytes + String.length s
  end

(** [start_run t] opens a fresh run file in the session directory. *)
let start_run t =
  Mutex.lock t.lock;
  let path =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        ensure_dir t;
        let n = t.next_run in
        t.next_run <- n + 1;
        Filename.concat t.dir (Printf.sprintf "run-%d.spl" n))
  in
  let f = Sim_fs.create path in
  Sim_fs.write f header;
  {
    w_session = t;
    w_path = path;
    w_file = f;
    w_buf = Buffer.create frame_target;
    w_rows = 0;
    w_bytes = String.length header;
    w_closed = false;
  }

(** [add_row w row] appends one row; frames flush at ~64 KiB. *)
let add_row w (row : Value.t array) =
  encode_row w.w_buf row;
  w.w_rows <- w.w_rows + 1;
  if Buffer.length w.w_buf >= frame_target then flush_frame w

(** [finish_run w] flushes, fsyncs and closes the run; accounts it to the
    session and the [quill.spill.*] registry. *)
let finish_run w =
  let t = w.w_session in
  Fun.protect
    ~finally:(fun () ->
      w.w_closed <- true;
      Sim_fs.close w.w_file)
    (fun () ->
      flush_frame w;
      Sim_fs.fsync w.w_file);
  Mutex.lock t.lock;
  t.bytes <- t.bytes + w.w_bytes;
  t.runs <- t.runs + 1;
  Mutex.unlock t.lock;
  Metrics.add m_bytes w.w_bytes;
  Metrics.incr m_runs;
  { r_path = w.w_path; r_rows = w.w_rows; r_bytes = w.w_bytes; r_deleted = false }

(** [abandon w] closes a writer without producing a run (error unwind);
    the file is left for session cleanup. *)
let abandon w =
  if not w.w_closed then begin
    w.w_closed <- true;
    Sim_fs.close w.w_file
  end

(* --- Run readers -------------------------------------------------------- *)

(* Reads bypass Sim_fs (reads are never fault-injected — the "disk"
   holds what it holds), but every frame's CRC is verified, so a torn or
   bit-flipped run raises {!Error} instead of yielding wrong rows. *)
type reader = {
  rd_run : run;
  rd_ic : in_channel;
  mutable rd_done : bool;
}

let open_run run =
  if run.r_deleted then bad ("run already deleted: " ^ run.r_path);
  let ic =
    try open_in_bin run.r_path
    with Sys_error m -> raise (Error ("spill: cannot open run: " ^ m))
  in
  let h = Bytes.create (String.length header) in
  (try really_input ic h 0 (String.length header)
   with End_of_file ->
     close_in_noerr ic;
     bad "missing header");
  if Bytes.to_string h <> header then begin
    close_in_noerr ic;
    bad "bad header"
  end;
  { rd_run = run; rd_ic = ic; rd_done = false }

(** [next_batch rd] is the next frame's rows, or [None] at end of run. *)
let next_batch rd =
  if rd.rd_done then None
  else begin
    let hdr = Bytes.create 8 in
    match really_input rd.rd_ic hdr 0 8 with
    | exception End_of_file ->
        rd.rd_done <- true;
        None
    | () ->
        let hdr = Bytes.to_string hdr in
        let len = get_u32 hdr 0 and crc = get_u32 hdr 4 in
        if len < 0 || len > 1 lsl 28 then bad "implausible frame length";
        let payload = Bytes.create len in
        (try really_input rd.rd_ic payload 0 len
         with End_of_file -> bad "torn frame");
        let payload = Bytes.to_string payload in
        if Hashing.crc32 payload <> crc then bad "frame checksum mismatch";
        Some (decode_rows payload)
  end

let delete_run run =
  if not run.r_deleted then begin
    run.r_deleted <- true;
    try Sys.remove run.r_path with Sys_error _ -> ()
  end

(** [close_reader ?delete rd] closes the channel; [~delete:true] also
    removes the consumed run file eagerly. *)
let close_reader ?(delete = false) rd =
  close_in_noerr rd.rd_ic;
  if delete then delete_run rd.rd_run

(** [iter_run ?delete run f] streams every row of [run] through [f]. *)
let iter_run ?(delete = false) run f =
  let rd = open_run run in
  Fun.protect
    ~finally:(fun () -> close_reader ~delete rd)
    (fun () ->
      let rec go () =
        match next_batch rd with
        | Some rows ->
            Array.iter f rows;
            go ()
        | None -> ()
      in
      go ())

(* --- Cleanup and orphan pruning ----------------------------------------- *)

(* Deleting spill garbage is not a durability event: it goes through the
   plain filesystem (best-effort), never consuming Sim_fs op budgets or
   masking an armed fault.  After a simulated crash nothing is deleted —
   the "machine is off", and recovery's prune owns the garbage. *)
let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(** [cleanup t] deletes the session directory and everything in it,
    then the [<root>/spill] parent (and the tmpdir-style root above it)
    if this was the last session — [rmdir] only takes empty directories,
    so concurrent sessions are safe.  Best-effort and exception-free (it
    runs in [Fun.protect] finalizers); skipped entirely while the
    simulated machine is crashed. *)
let cleanup t =
  if t.made && not (Sim_fs.crashed ()) then begin
    remove_tree t.dir;
    let parent = Filename.dirname t.dir in
    (try Unix.rmdir parent with Unix.Unix_error _ -> ());
    (* Only ever remove a root we invented ourselves; a durable data
       directory is not ours to touch. *)
    let root = Filename.dirname parent in
    if String.length (Filename.basename root) >= 12
       && String.sub (Filename.basename root) 0 12 = "quill-spill-"
    then (try Unix.rmdir root with Unix.Unix_error _ -> ())
  end

(** [prune_orphans root] removes [<root>/spill] wholesale — every spill
    directory under a data dir belongs to a query that is no longer
    running, so at recovery time all of them are orphans.  Returns the
    number of session directories removed. *)
let prune_orphans root =
  let sr = spill_root root in
  match Sys.is_directory sr with
  | true ->
      let n = Array.length (Sys.readdir sr) in
      remove_tree sr;
      n
  | false | (exception Sys_error _) -> 0
