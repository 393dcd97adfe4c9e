(* The TCP server and its wire protocol.

   Codec round-trips, framing fuzz (truncated / torn / garbage byte
   streams must yield clean protocol errors or closed connections, never
   a crash or hang), a differential test with 8 concurrent sessions
   (mixed readers and writers: every read sees a consistent committed
   snapshot, write-write conflicts abort exactly one loser), and the
   crash lever: [Server.kill] mid-workload, then [Db.open_durable]
   recovery where every acknowledged commit survives atomically. *)

module Db = Quill.Db
module Wire = Quill_server.Wire
module Server = Quill_server.Server
module Client = Quill_server.Client
module Value = Quill_storage.Value
module Table = Quill_storage.Table
module Sim_fs = Quill_storage.Sim_fs

let tmpdir () =
  let p = Filename.temp_file "quill_srv" "" in
  Sys.remove p;
  p

let rec rmrf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else Sys.remove path

let run db sql = ignore (Db.exec db sql)

(* A server on an ephemeral port over a fresh in-memory store. *)
let with_server ?config setup f =
  let root = Db.create () in
  setup root;
  let srv = Server.start ?config (Db.share root) in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f (Server.port srv))

let expect_affected = function
  | Wire.Affected _ -> ()
  | Wire.Err (_, m) -> Alcotest.failf "unexpected error response: %s" m
  | _ -> Alcotest.fail "expected an Affected response"

let one_int = function
  | Wire.Result (_, [ [| Value.Int n |] ]) -> n
  | Wire.Err (_, m) -> Alcotest.failf "unexpected error response: %s" m
  | _ -> Alcotest.fail "expected a one-int result"

(* --- codec -------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let reqs =
    [
      Wire.Query "SELECT * FROM t WHERE a = 'x''y'";
      Wire.Query "";
      Wire.Prepare "SELECT * FROM t WHERE a = $1";
      Wire.Execute
        ( 42,
          [|
            Value.Null; Value.Int (-7); Value.Float 1.5; Value.Bool true;
            Value.Str "hi\x00bin"; Value.Date 20000;
          |] );
      Wire.Cancel;
      Wire.Quit;
    ]
  in
  List.iter
    (fun req ->
      Alcotest.(check bool)
        "request round-trips" true
        (Wire.decode_request (Wire.encode_request req) = req))
    reqs;
  let resps =
    [
      Wire.Result
        ( [ ("a", Value.Int_t); ("b", Value.Str_t); ("c", Value.Float_t) ],
          [
            [| Value.Int 1; Value.Str "x"; Value.Float 0.25 |];
            [| Value.Null; Value.Str ""; Value.Float (-1e30) |];
          ] );
      Wire.Result ([], []);
      Wire.Affected 0;
      Wire.Affected max_int;
      Wire.Text "plan:\n  scan t";
      Wire.Prepared 7;
      Wire.Err (Wire.Conflict_err, "write-write conflict on t");
      Wire.Err (Wire.Protocol_err, "");
    ]
  in
  List.iter
    (fun resp ->
      Alcotest.(check bool)
        "response round-trips" true
        (Wire.decode_response (Wire.encode_response resp) = resp))
    resps

(* --- framing fuzz (pure codec) ------------------------------------------ *)

(* Any byte string either decodes or raises Protocol_error — nothing
   else, ever.  This is the no-crash guarantee for garbage frames. *)
let decodes_cleanly decode s =
  match decode s with
  | _ -> true
  | exception Wire.Protocol_error _ -> true
  | exception e ->
      QCheck2.Test.fail_reportf "decoder leaked %s on %S" (Printexc.to_string e)
        s

let gen_bytes = QCheck2.Gen.(string_size ~gen:char (int_range 0 64))

let prop_garbage_requests =
  Tutil.qtest ~count:500 "fuzz: garbage request frames decode cleanly"
    gen_bytes
    (decodes_cleanly Wire.decode_request)

let prop_garbage_responses =
  Tutil.qtest ~count:500 "fuzz: garbage response frames decode cleanly"
    gen_bytes
    (decodes_cleanly Wire.decode_response)

(* Torn frames: every strict prefix of a valid response is rejected with
   Protocol_error (responses have no variable-tail message, so a
   truncation is always detectable). *)
let gen_response =
  QCheck2.Gen.(
    let value =
      oneof
        [
          pure Value.Null;
          map (fun i -> Value.Int i) int;
          map (fun b -> Value.Bool b) bool;
          map (fun s -> Value.Str s) (string_size (int_range 0 8));
        ]
    in
    let col = pair (string_size (int_range 0 6)) (oneofl Value.[ Int_t; Str_t; Bool_t ]) in
    oneof
      [
        (let* ncols = int_range 0 3 in
         let* cols = list_repeat ncols col in
         let* nrows = int_range 0 3 in
         let* rows = list_repeat nrows (array_repeat ncols value) in
         pure (Wire.Result (cols, rows)));
        map (fun n -> Wire.Affected n) int;
        map (fun s -> Wire.Text s) (string_size (int_range 0 12));
        map (fun id -> Wire.Prepared id) (int_range 0 10000);
        map
          (fun (k, m) -> Wire.Err (k, m))
          (pair
             (oneofl Wire.[ Generic; Conflict_err; Aborted_err; Protocol_err ])
             (string_size (int_range 0 12)));
      ])

let prop_torn_responses =
  Tutil.qtest ~count:300 "fuzz: torn response frames are rejected" gen_response
    (fun resp ->
      let s = Wire.encode_response resp in
      let ok = ref true in
      for cut = 0 to String.length s - 1 do
        match Wire.decode_response (String.sub s 0 cut) with
        | _ -> ok := false
        | exception Wire.Protocol_error _ -> ()
        | exception _ -> ok := false
      done;
      if not !ok then
        QCheck2.Test.fail_reportf "a torn prefix of %S decoded or crashed" s
      else true)

(* --- framing fuzz (live sockets) ---------------------------------------- *)

let raw_connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let sent = ref 0 in
  while !sent < Bytes.length b do
    sent := !sent + Unix.write fd b !sent (Bytes.length b - !sent)
  done

(* Drain until the peer closes; returns the protocol-error responses seen.
   A clean close (End_of_file) and a reset (ECONNRESET/EPIPE) both count
   as the server dropping us, which is the contract for garbage. *)
let drain_till_close fd =
  let errs = ref [] in
  (try
     let rec loop () =
       (match Wire.decode_response (Wire.read_frame fd) with
       | Wire.Err (k, _) -> errs := k :: !errs
       | _ -> ());
       loop ()
     in
     loop ()
   with
  | End_of_file | Wire.Protocol_error _ -> ()
  | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
  Unix.close fd;
  !errs

let u32le n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.to_string b

let test_socket_garbage () =
  with_server
    (fun root -> run root "CREATE TABLE t (a INT NOT NULL)")
    (fun port ->
      (* Unknown request type: server reports a protocol error, then
         drops the connection (the stream offset is untrustworthy). *)
      let fd = raw_connect port in
      write_all fd (u32le 5 ^ "ZZZZZ");
      let errs = drain_till_close fd in
      Alcotest.(check bool)
        "unknown type reported as protocol error" true
        (List.mem Wire.Protocol_err errs);
      (* Zero-length frame. *)
      let fd = raw_connect port in
      write_all fd (u32le 0);
      ignore (drain_till_close fd);
      (* Absurd length prefix: must be refused without buffering 2GB. *)
      let fd = raw_connect port in
      write_all fd (u32le 0x7FFFFFFF ^ "whatever");
      ignore (drain_till_close fd);
      (* Torn frame: claim 100 bytes, send 10, close.  The server just
         sees EOF mid-frame and drops the session. *)
      let fd = raw_connect port in
      write_all fd (u32le 100 ^ "only ten b");
      Unix.close fd;
      (* Raw non-frame garbage. *)
      let fd = raw_connect port in
      write_all fd "\xff\xfe\xfd\xfc not a frame at all \x00\x01";
      ignore (drain_till_close fd);
      (* After all that abuse a well-formed client still gets served. *)
      let c = Client.connect ~port () in
      expect_affected (Client.query c "INSERT INTO t VALUES (1)");
      Alcotest.(check int)
        "server survived the fuzz" 1
        (one_int (Client.query c "SELECT COUNT(*) FROM t"));
      Client.close c)

(* --- sessions: prepare/execute, txn control, conflicts ------------------ *)

let test_prepare_execute () =
  with_server
    (fun root ->
      run root "CREATE TABLE t (a INT NOT NULL, s TEXT)";
      run root "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
    (fun port ->
      let c = Client.connect ~port () in
      (match Client.prepare c "SELECT s FROM t WHERE a = $1" with
      | Error m -> Alcotest.failf "prepare failed: %s" m
      | Ok id -> (
          match Client.execute c id [| Value.Int 2 |] with
          | Wire.Result (_, [ [| Value.Str "two" |] ]) -> ()
          | _ -> Alcotest.fail "parameterized execute returned wrong rows"));
      (match Client.execute c 9999 [||] with
      | Wire.Err (Wire.Generic, _) -> ()
      | _ -> Alcotest.fail "unknown statement id must error");
      Client.close c)

let test_conflict_exactly_one_loser () =
  with_server
    (fun root ->
      run root "CREATE TABLE t (a INT NOT NULL)";
      run root "INSERT INTO t VALUES (0)")
    (fun port ->
      let c1 = Client.connect ~port () in
      let c2 = Client.connect ~port () in
      expect_affected (Client.query c1 "BEGIN");
      expect_affected (Client.query c2 "BEGIN");
      expect_affected (Client.query c1 "UPDATE t SET a = 1");
      expect_affected (Client.query c2 "UPDATE t SET a = 2");
      let r1 = Client.query c1 "COMMIT" in
      let r2 = Client.query c2 "COMMIT" in
      let losers =
        List.filter
          (function Wire.Err (Wire.Conflict_err, _) -> true | _ -> false)
          [ r1; r2 ]
      in
      Alcotest.(check int) "exactly one loser" 1 (List.length losers);
      expect_affected r1;
      let c3 = Client.connect ~port () in
      Alcotest.(check int)
        "winner's value committed" 1
        (one_int (Client.query c3 "SELECT MAX(a) FROM t"));
      Client.close c1; Client.close c2; Client.close c3)

(* Row-granular conflict detection over TCP: sessions updating disjoint
   chunk-aligned row ranges of one hot table all commit (zero
   conflicts), while overlapping ranges keep exactly one loser (covered
   above — both whole-table UPDATEs of [test_conflict_exactly_one_loser]
   share every chunk). *)
let test_tcp_disjoint_writers () =
  let writers = 4 in
  let old = !Table.default_chunk_rows in
  Table.default_chunk_rows := 16;
  Fun.protect ~finally:(fun () -> Table.default_chunk_rows := old) (fun () ->
      with_server
        (fun root ->
          run root "CREATE TABLE hot (id INT NOT NULL, v INT NOT NULL)";
          let b = Buffer.create 1024 in
          for i = 0 to (writers * 16) - 1 do
            if i > 0 then Buffer.add_string b ", ";
            Buffer.add_string b (Printf.sprintf "(%d, 0)" i)
          done;
          run root ("INSERT INTO hot VALUES " ^ Buffer.contents b))
        (fun port ->
          let cs = List.init writers (fun _ -> Client.connect ~port ()) in
          List.iter (fun c -> expect_affected (Client.query c "BEGIN")) cs;
          List.iteri
            (fun w c ->
              expect_affected
                (Client.query c
                   (Printf.sprintf
                      "UPDATE hot SET v = v + 1 WHERE id >= %d AND id < %d"
                      (w * 16)
                      ((w + 1) * 16))))
            cs;
          List.iteri
            (fun w c ->
              match Client.query c "COMMIT" with
              | Wire.Affected _ -> ()
              | Wire.Err (_, m) ->
                  Alcotest.failf "disjoint TCP writer %d conflicted: %s" w m
              | _ -> Alcotest.fail "unexpected response to COMMIT")
            cs;
          let c = Client.connect ~port () in
          Alcotest.(check int)
            "every range's update survived" (writers * 16)
            (one_int (Client.query c "SELECT SUM(v) FROM hot"));
          Client.close c;
          List.iter Client.close cs))

(* Disconnecting mid-transaction must roll the transaction back, not
   leave the table pinned against future writers. *)
let test_disconnect_rolls_back () =
  with_server
    (fun root ->
      run root "CREATE TABLE t (a INT NOT NULL)";
      run root "INSERT INTO t VALUES (0)")
    (fun port ->
      let c1 = Client.connect ~port () in
      expect_affected (Client.query c1 "BEGIN");
      expect_affected (Client.query c1 "UPDATE t SET a = 99");
      Client.close c1;
      let c2 = Client.connect ~port () in
      let rec wait_clean tries =
        if tries = 0 then Alcotest.fail "dropped txn never rolled back";
        if one_int (Client.query c2 "SELECT MAX(a) FROM t") <> 0 then
          Alcotest.fail "dropped txn leaked its writes";
        expect_affected (Client.query c2 "BEGIN");
        expect_affected (Client.query c2 "UPDATE t SET a = 7");
        match Client.query c2 "COMMIT" with
        | Wire.Affected _ -> ()
        | Wire.Err (Wire.Conflict_err, _) ->
            (* The server may still be unwinding c1's session. *)
            Thread.delay 0.02;
            wait_clean (tries - 1)
        | _ -> Alcotest.fail "unexpected response to COMMIT"
      in
      wait_clean 100;
      Alcotest.(check int)
        "writer proceeded after disconnect" 7
        (one_int (Client.query c2 "SELECT MAX(a) FROM t"));
      Client.close c2)

(* A client that asks for a large result, reads 10 bytes and hangs up
   leaves the server writing into a dead socket.  That must cost the
   server (here: the test process) nothing but the session: its
   transaction rolls back, its admission permit comes back, and another
   session keeps being served.  The result (~5 MB) is larger than the
   kernel's largest TCP send buffer, so the reply write is still blocked
   when the client goes. *)
let test_reader_hangs_up_mid_reply () =
  let root = Db.create () in
  let schema =
    Quill_storage.Schema.create
      [ Quill_storage.Schema.col "a" Value.Int_t; Quill_storage.Schema.col "pad" Value.Str_t ]
  in
  let pad = String.make 250 'p' in
  Quill_storage.Catalog.add (Db.catalog root)
    (Table.of_rows ~name:"big" schema
       (List.init 20000 (fun i -> [| Value.Int i; Value.Str pad |])));
  let config = { Server.default_config with port = 0; max_concurrent_queries = 1 } in
  let srv = Server.start ~config (Db.share root) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let port = Server.port srv in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* A small receive window keeps the server blocked in its reply write
     when the client hangs up. *)
  Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let send sql = Wire.write_frame fd (Wire.encode_request (Wire.Query sql)) in
  let reply () = Wire.decode_response (Wire.read_frame fd) in
  send "BEGIN";
  expect_affected (reply ());
  send "INSERT INTO big VALUES (-1, 'x')";
  expect_affected (reply ());
  send "SELECT * FROM big";
  let head = Bytes.create 10 in
  Wire.really_read fd head 0 10;
  (* Half-close first: the reset the close then sends (data is still
     unread) lands on a server socket in CLOSE_WAIT, which reports EPIPE
     to the blocked reply write — the case that raises SIGPIPE. *)
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  Unix.close fd;
  let rec wait tries =
    if Atomic.get srv.Server.sessions > 0 then
      if tries = 0 then Alcotest.fail "the dropped session never unwound"
      else begin
        Thread.delay 0.01;
        wait (tries - 1)
      end
  in
  wait 500;
  Alcotest.(check int) "admission permit returned" 1
    (Semaphore.Counting.get_value srv.Server.admission);
  let c = Client.connect ~port () in
  Alcotest.(check int) "dropped transaction rolled back" 0
    (one_int (Client.query c "SELECT count(*) FROM big WHERE a < 0"));
  Alcotest.(check int) "second session served" 20000
    (one_int (Client.query c "SELECT count(*) FROM big"));
  Client.close c

(* --- the differential test: 8 concurrent sessions ----------------------- *)

(* 5 readers scan SUM(bal) — which transfers preserve — while 3 writers
   move money with explicit transactions, retrying on conflicts.  Every
   read must see exactly the invariant total (consistent committed
   snapshot, no torn reads); every writer must get all its transfers
   through (conflict aborts are retried, so losers make progress). *)
let test_differential_8_sessions () =
  let accounts = 16 and initial = 100 in
  let expected = accounts * initial in
  let writers = 3 and readers = 5 in
  let txns_per_writer = 10 and reads_per_reader = 40 in
  with_server
    (fun root ->
      run root "CREATE TABLE acct (id INT NOT NULL, bal INT NOT NULL)";
      let values =
        String.concat ", "
          (List.init accounts (fun i -> Printf.sprintf "(%d, %d)" i initial))
      in
      run root (Printf.sprintf "INSERT INTO acct VALUES %s" values))
    (fun port ->
      let torn = Atomic.make 0 in
      let commits = Atomic.make 0 in
      let conflicts = Atomic.make 0 in
      let failures = Atomic.make 0 in
      let writer w =
        let c = Client.connect ~port () in
        let transfer i =
          let a = (w + i) mod (accounts - 1) in
          let rec attempt tries =
            if tries > 200 then Atomic.incr failures
            else
              let aborted = ref false in
              let step sql =
                if not !aborted then
                  match Client.query c sql with
                  | Wire.Affected _ -> ()
                  | Wire.Err (Wire.Conflict_err, _) ->
                      Atomic.incr conflicts;
                      aborted := true
                  | Wire.Err (_, m) ->
                      Printf.eprintf "writer %d: %s\n%!" w m;
                      Atomic.incr failures;
                      aborted := true
                  | _ -> Atomic.incr failures
              in
              step "BEGIN";
              step
                (Printf.sprintf
                   "UPDATE acct SET bal = bal + CASE WHEN id = %d THEN -1 ELSE \
                    1 END WHERE id = %d OR id = %d"
                   a a (a + 1));
              step "COMMIT";
              if !aborted then attempt (tries + 1) else Atomic.incr commits
          in
          attempt 0
        in
        for i = 1 to txns_per_writer do
          transfer i
        done;
        Client.close c
      in
      let reader _ =
        let c = Client.connect ~port () in
        for _ = 1 to reads_per_reader do
          if one_int (Client.query c "SELECT SUM(bal) FROM acct") <> expected
          then Atomic.incr torn
        done;
        Client.close c
      in
      let threads =
        List.init writers (fun w -> Thread.create writer w)
        @ List.init readers (fun r -> Thread.create reader r)
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "no failed statements" 0 (Atomic.get failures);
      Alcotest.(check int) "no torn reads" 0 (Atomic.get torn);
      Alcotest.(check int)
        "every transfer committed" (writers * txns_per_writer)
        (Atomic.get commits);
      (* The final state reflects all transfers: SUM unchanged. *)
      let c = Client.connect ~port () in
      Alcotest.(check int)
        "final sum preserved" expected
        (one_int (Client.query c "SELECT SUM(bal) FROM acct"));
      Client.close c)

(* --- kill mid-workload, then recover ------------------------------------ *)

(* Writers stream two-insert transactions over TCP while the server is
   [kill]ed out from under them.  Recovery via [Db.open_durable] must
   show: every acknowledged commit present (the WAL fsyncs before the
   ack), nothing beyond what was attempted, and each recovered
   transaction whole (both halves or neither — no torn transactions). *)
let test_kill_recovers_acked_commits () =
  Sim_fs.reset ();
  let dir = tmpdir () in
  let root, _ = Db.open_durable dir in
  run root "CREATE TABLE log (wid INT NOT NULL, seq INT NOT NULL, half INT NOT NULL)";
  let store = Db.share root in
  let srv = Server.start ~config:{ Server.default_config with port = 0 } store in
  let port = Server.port srv in
  let writers = 3 in
  let acked = Array.make writers [] in
  let attempted = Array.make writers 0 in
  let total_acked = Atomic.make 0 in
  let writer w =
    match Client.connect ~port () with
    | exception _ -> ()
    | c -> (
        try
          let i = ref 0 in
          while true do
            incr i;
            attempted.(w) <- !i;
            let step sql =
              match Client.query c sql with
              | Wire.Affected _ -> true
              | Wire.Err (Wire.Conflict_err, _) -> false
              | Wire.Err (_, m) -> Alcotest.failf "writer %d: %s" w m
              | _ -> false
            in
            let ok =
              step "BEGIN"
              && step
                   (Printf.sprintf "INSERT INTO log VALUES (%d, %d, 1)" w !i)
              && step
                   (Printf.sprintf "INSERT INTO log VALUES (%d, %d, 2)" w !i)
              && step "COMMIT"
            in
            if ok then begin
              acked.(w) <- !i :: acked.(w);
              Atomic.incr total_acked
            end
          done
        with _ -> (try Unix.close c.Client.fd with _ -> ()))
  in
  let threads = List.init writers (fun w -> Thread.create writer w) in
  (* Let the workload build up some acked commits, then pull the plug. *)
  let rec wait_for n tries =
    if tries = 0 then Alcotest.fail "workload never made progress";
    if Atomic.get total_acked < n then begin
      Thread.delay 0.01;
      wait_for n (tries - 1)
    end
  in
  wait_for 10 1000;
  Server.kill srv;
  List.iter Thread.join threads;
  (* Give any commit that was mid-flight at the kill a moment to land —
     its client never saw the ack, but it may legitimately be durable. *)
  Thread.delay 0.2;
  let db2, report = Db.open_durable dir in
  Alcotest.(check bool) "log replayed without a torn tail" false
    report.Db.torn;
  let rows = Db.query db2 "SELECT wid, seq, half FROM log" in
  let seen = Hashtbl.create 64 in
  for i = 0 to Table.row_count rows - 1 do
    let geti j =
      match Table.get rows i j with
      | Value.Int n -> n
      | v -> Alcotest.failf "non-int in log: %s" (Value.to_string v)
    in
    let key = (geti 0, geti 1, geti 2) in
    if Hashtbl.mem seen key then
      Alcotest.failf "duplicate row (%d,%d,%d) after recovery" (geti 0)
        (geti 1) (geti 2);
    Hashtbl.replace seen key ()
  done;
  for w = 0 to writers - 1 do
    (* acked ⊆ recovered: an acknowledged commit can never be lost. *)
    List.iter
      (fun i ->
        if not (Hashtbl.mem seen (w, i, 1) && Hashtbl.mem seen (w, i, 2)) then
          Alcotest.failf "acked txn (writer %d, seq %d) lost by recovery" w i)
      acked.(w);
    (* recovered ⊆ attempted, and atomic: both halves or neither. *)
    Hashtbl.iter
      (fun (w', i, half) () ->
        if w' = w then begin
          if i < 1 || i > attempted.(w) then
            Alcotest.failf "recovered txn (writer %d, seq %d) was never sent" w
              i;
          let other = if half = 1 then 2 else 1 in
          if not (Hashtbl.mem seen (w, i, other)) then
            Alcotest.failf "torn txn after recovery: (writer %d, seq %d)" w i
        end)
      seen
  done;
  Alcotest.(check bool)
    "recovery kept at least the acked workload" true
    (Hashtbl.length seen >= 2 * Atomic.get total_acked);
  rmrf dir

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
          prop_garbage_requests;
          prop_garbage_responses;
          prop_torn_responses;
        ] );
      ( "framing fuzz",
        [ Alcotest.test_case "live socket garbage" `Quick test_socket_garbage ] );
      ( "sessions",
        [
          Alcotest.test_case "prepare/execute" `Quick test_prepare_execute;
          Alcotest.test_case "conflict: exactly one loser" `Quick
            test_conflict_exactly_one_loser;
          Alcotest.test_case "disjoint writers commit over TCP" `Quick
            test_tcp_disjoint_writers;
          Alcotest.test_case "disconnect rolls back" `Quick
            test_disconnect_rolls_back;
          Alcotest.test_case "reader hangs up mid-reply" `Quick
            test_reader_hangs_up_mid_reply;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "8-session differential" `Quick
            test_differential_8_sessions;
          Alcotest.test_case "kill recovers acked commits" `Quick
            test_kill_recovers_acked_commits;
        ] );
    ]
