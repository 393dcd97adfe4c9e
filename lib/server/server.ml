(* The TCP server: one lightweight session per connection.

   Each accepted connection gets its own [Db.session] on the shared MVCC
   store and a dedicated systhread that owns the socket.  Query frames
   are not executed on that thread: they are scheduled onto the shared
   {!Quill_parallel.Pool} as submitted jobs, bounded by a counting
   semaphore (admission control — at most [max_concurrent_queries]
   queries execute at once; the rest wait their turn, which keeps one
   chatty client from starving the pool).  While a query is in flight
   the connection thread keeps watching the socket through a
   select-on-two-fds loop (socket + a self-pipe the job completion
   writes to), so an 'X' cancel frame interrupts the running query via
   the session governor instead of waiting behind it.

   Per-session fairness and resource limits ride on the existing
   governor: every session starts with the server's default deadline and
   memory budget, so a runaway query aborts with a clean error frame
   instead of wedging its worker.

   Shutdown: [stop] closes the listener, wakes every connection and
   joins the threads (graceful — in-flight queries finish and their
   responses are written).  [kill] closes every socket immediately and
   does not wait: connection threads die on their next socket op, acked
   commits are already fsynced by the store's WAL protocol, and a
   recovery ([Db.open_durable]) sees exactly the committed transactions
   — this is the crash lever the recovery tests pull. *)

module Db = Quill.Db
module Metrics = Quill_obs.Metrics
module Pool = Quill_parallel.Pool

let m_connections = Metrics.counter "quill.server.connections"
let m_queries = Metrics.counter "quill.server.queries"
let m_errors = Metrics.counter "quill.server.errors"
let m_cancels = Metrics.counter "quill.server.cancels"
let m_rejected = Metrics.counter "quill.server.rejected"
let g_sessions = Metrics.gauge "quill.server.active_sessions"

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  max_sessions : int;  (** connections beyond this are refused *)
  max_concurrent_queries : int;  (** admission: queries executing at once *)
  session_timeout_ms : int option;  (** governor deadline per statement *)
  session_budget_bytes : int option;  (** governor memory budget *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7878;
    max_sessions = 64;
    max_concurrent_queries = 4;
    session_timeout_ms = None;
    session_budget_bytes = None;
  }

type t = {
  store : Db.store;
  config : config;
  lsock : Unix.file_descr;
  port : int;  (** the port actually bound *)
  stopping : bool Atomic.t;
  admission : Semaphore.Counting.t;
  sessions : int Atomic.t;
  mutable accept_thread : Thread.t option;
  conn_mutex : Mutex.t;
  mutable conns : (Unix.file_descr * Thread.t) list;
}

(** [port t] is the TCP port the server listens on (useful with
    [config.port = 0]). *)
let port t = t.port

let register_conn t fd thread =
  Mutex.protect t.conn_mutex (fun () -> t.conns <- (fd, thread) :: t.conns)

let forget_conn t fd =
  Mutex.protect t.conn_mutex (fun () ->
      t.conns <- List.filter (fun (fd', _) -> fd' <> fd) t.conns)

(* Close a socket at most once, swallowing the EBADF of a racing close. *)
let quiet_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Wake a thread blocked on this socket: [shutdown] makes pending and
   future reads return EOF and writes fail, unlike [close], which on
   Linux leaves a blocked [read]/[accept] blocked forever.  The owning
   thread still closes the fd itself — nobody else may, or the fd number
   could be reused (say, by a reopened WAL) before the owner's close. *)
let quiet_shutdown fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* --- per-connection protocol loop -------------------------------------- *)

let response_of_result = function
  | Db.Rows table ->
      let schema = Quill_storage.Table.schema table in
      let cols =
        List.map
          (fun c -> (c.Quill_storage.Schema.name, c.Quill_storage.Schema.dtype))
          (Quill_storage.Schema.columns schema)
      in
      let arity = List.length cols in
      let rows = ref [] in
      for i = Quill_storage.Table.row_count table - 1 downto 0 do
        rows :=
          Array.init arity (fun j -> Quill_storage.Table.get table i j) :: !rows
      done;
      Wire.Result (cols, !rows)
  | Db.Affected n -> Wire.Affected n
  | Db.Text s -> Wire.Text s

let response_of_error db = function
  | Db.Conflict m -> Wire.Err (Wire.Conflict_err, m)
  | Db.Aborted r ->
      (* The governor's account (peak bytes, budget, what spilling did)
         beats the bare reason name when the session recorded one. *)
      let detail =
        match Db.last_abort_detail db with
        | Some d -> d
        | None -> Db.abort_reason_name r
      in
      Wire.Err (Wire.Aborted_err, detail)
  | Db.Error m -> Wire.Err (Wire.Generic, m)
  | Wire.Protocol_error m -> Wire.Err (Wire.Protocol_err, m)
  | e -> Wire.Err (Wire.Generic, Printexc.to_string e)

(* Run one statement as a pool job; watch the socket for cancel frames
   while it runs.  Returns [response, quit_after]: [quit_after] is set
   when the client sent 'q' (or vanished) mid-query — the cancel flag is
   raised so the query unwinds quickly, and the connection closes after
   the response is discarded.  Once the client is gone only the job's
   wake-up pipe is watched, and however this returns it first waits for
   the job: closing the pipe under a running job would let its wake-up
   write land on a recycled fd number (a WAL file, another client's
   socket). *)
let run_statement t db fd exec =
  Metrics.incr m_queries;
  let result = ref (Wire.Err (Wire.Generic, "query did not run")) in
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  let job () =
    (result := try response_of_result (exec ()) with e -> response_of_error db e);
    (* Wake the select loop; EPIPE just means the watcher already left. *)
    try ignore (Unix.write pipe_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  in
  let quit = ref false and running = ref true in
  let hang_up () =
    quit := true;
    Db.cancel db
  in
  Semaphore.Counting.acquire t.admission;
  let finally () =
    (try
       while !running do
         match Unix.read pipe_r (Bytes.create 1) 0 1 with
         | _ -> running := false
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       done
     with Unix.Unix_error _ -> ());
    Semaphore.Counting.release t.admission;
    quiet_close pipe_r;
    quiet_close pipe_w
  in
  Fun.protect ~finally (fun () ->
      Pool.submit job;
      while !running do
        let watched = if !quit then [ pipe_r ] else [ fd; pipe_r ] in
        match Unix.select watched [] [] (-1.0) with
        | readable, _, _ ->
            if List.mem pipe_r readable then running := false
            else if List.mem fd readable then begin
              (* A frame arrived mid-query: only cancel (or goodbye) is
                 meaningful; anything else is a pipelining mistake. *)
              match Wire.decode_request (Wire.read_frame fd) with
              | Wire.Cancel ->
                  Metrics.incr m_cancels;
                  Db.cancel db
              | Wire.Quit -> hang_up ()
              | _ -> (
                  try
                    Wire.write_frame fd
                      (Wire.encode_response
                         (Wire.Err
                            ( Wire.Protocol_err,
                              "a query is already in flight on this session" )))
                  with Unix.Unix_error _ -> hang_up ())
              | exception (End_of_file | Unix.Unix_error _ | Wire.Protocol_error _)
                ->
                  (* Client vanished or sent garbage: abort the query and
                     drop the connection once it unwinds. *)
                  hang_up ()
            end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      (!result, !quit))

let handle_conn t fd =
  Atomic.incr t.sessions;
  Metrics.incr m_connections;
  Metrics.set g_sessions (Atomic.get t.sessions);
  let db = Db.session t.store in
  Db.set_timeout db t.config.session_timeout_ms;
  Db.set_budget db t.config.session_budget_bytes;
  let prepared : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let next_stmt = ref 0 in
  let respond resp = Wire.write_frame fd (Wire.encode_response resp) in
  (try
     let alive = ref true in
     while !alive && not (Atomic.get t.stopping) do
       match Wire.decode_request (Wire.read_frame fd) with
       | Wire.Query sql ->
           let resp, quit = run_statement t db fd (fun () -> Db.exec db sql) in
           if quit then alive := false else respond resp
       | Wire.Prepare sql ->
           incr next_stmt;
           Hashtbl.replace prepared !next_stmt sql;
           respond (Wire.Prepared !next_stmt)
       | Wire.Execute (id, params) -> (
           match Hashtbl.find_opt prepared id with
           | None ->
               Metrics.incr m_errors;
               respond
                 (Wire.Err
                    (Wire.Generic, Printf.sprintf "no prepared statement %d" id))
           | Some sql ->
               (* Prepared executions take the plan-cached path: at high
                  QPS re-planning per execution dominates, and the cache
                  re-picks per selectivity band when parameters shift. *)
               let resp, quit =
                 run_statement t db fd (fun () -> Db.exec_prepared db ~params sql)
               in
               if quit then alive := false else respond resp)
       | Wire.Cancel -> ()  (* nothing in flight; a benign race *)
       | Wire.Quit -> alive := false
       | exception Wire.Protocol_error m ->
           (* Garbage framing: report once, then drop the connection —
              the stream offset can no longer be trusted. *)
           Metrics.incr m_errors;
           (try respond (Wire.Err (Wire.Protocol_err, m))
            with Wire.Protocol_error _ | Unix.Unix_error _ -> ());
           alive := false
       | exception (End_of_file | Unix.Unix_error _) -> alive := false
     done
   with _ -> ());
  (* Abandon any open transaction so its conflict footprint dies with the
     connection rather than staying pinned. *)
  (try if Db.in_transaction db then Db.rollback_transaction db with _ -> ());
  Db.close db;
  forget_conn t fd;
  quiet_close fd;
  Atomic.decr t.sessions;
  Metrics.set g_sessions (Atomic.get t.sessions)

(* --- lifecycle ---------------------------------------------------------- *)

let accept_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.accept ~cloexec:true t.lsock with
    | fd, _ ->
        if Atomic.get t.stopping then quiet_close fd
        else if Atomic.get t.sessions >= t.config.max_sessions then begin
          Metrics.incr m_rejected;
          (try
             Wire.write_frame fd
               (Wire.encode_response
                  (Wire.Err (Wire.Generic, "server full: too many sessions")))
           with _ -> ());
          quiet_close fd
        end
        else begin
          let thread = Thread.create (fun () -> handle_conn t fd) () in
          register_conn t fd thread
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* Listener closed by [stop]/[kill] (or fatally broken): leave. *)
        Atomic.set t.stopping true
  done

(** [start ?config store] binds the listener and spawns the accept
    thread.  The caller keeps the root session; every connection gets
    its own [Db.session store]. *)
let start ?(config = default_config) store =
  (* A client that hangs up mid-reply must cost its session, not the
     process. *)
  Wire.ignore_sigpipe ();
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  (try
     Unix.bind lsock
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen lsock 64
   with e ->
     quiet_close lsock;
     raise e);
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let t =
    {
      store;
      config;
      lsock;
      port;
      stopping = Atomic.make false;
      admission = Semaphore.Counting.make (max 1 config.max_concurrent_queries);
      sessions = Atomic.make 0;
      accept_thread = None;
      conn_mutex = Mutex.create ();
      conns = [];
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let live_conns t = Mutex.protect t.conn_mutex (fun () -> t.conns)

(* A blocked [accept] is not woken by closing the listener; poke it with
   a throwaway loopback connection (accepted, seen as a late arrival
   under [stopping], and closed), then the accept thread can be joined
   and the listener closed for real. *)
let stop_listener t =
  Atomic.set t.stopping true;
  (try
     let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
     (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port))
      with Unix.Unix_error _ -> ());
     quiet_close fd
   with Unix.Unix_error _ -> ());
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  t.accept_thread <- None;
  quiet_close t.lsock

(** [stop t] shuts down gracefully: no new connections, existing ones
    are woken (their sockets shut down, so blocked reads see EOF) and
    their threads joined — an in-flight query finishes and its session
    unwinds before the thread exits. *)
let stop t =
  stop_listener t;
  let conns = live_conns t in
  List.iter (fun (fd, _) -> quiet_shutdown fd) conns;
  List.iter (fun (_, th) -> try Thread.join th with _ -> ()) conns

(** [kill t] is the abrupt lever for crash tests: shut every socket down
    and return without waiting for connection threads.  Clients see the
    connection die mid-conversation; whatever the store's WAL acked is
    already on disk, and nothing further can be acknowledged. *)
let kill t =
  stop_listener t;
  List.iter (fun (fd, _) -> quiet_shutdown fd) (live_conns t)
