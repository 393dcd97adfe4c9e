(* oltp_mixed: a Quill server in its own process over a durable store
   (WAL fsync on every commit), driven over TCP by one thread through two
   connections in lock-step.  About 90% of operations are prepared reads
   (point lookups, short ordered ranges, band-crossing grouped
   aggregates), about 10% auto-commit UPDATE-by-key and INSERT.  A model
   of the table checks every read and every acknowledgement; after the
   run the server is SIGKILLed and the recovered table must equal the
   model: every acked write present, nothing else. *)

module Db = Quill.Db
module Value = Quill_storage.Value
module Catalog = Quill_storage.Catalog
module Index_reg = Quill_storage.Index.Registry
module Metrics = Quill_obs.Metrics
module Server = Quill_server.Server
module Client = Quill_server.Client
module Wire = Quill_server.Wire
module Plan_cache = Quill_adaptive.Plan_cache
module Tiering = Quill_adaptive.Tiering
module Card = Quill_optimizer.Card
module Physical = Quill_optimizer.Physical
open Common

let groups = 16

(* The loaded table, a pure function of (rows, seed): the server loads
   it and the benchmark's model starts from it. *)
let initial_row rng =
  (Random.State.int rng groups, Random.State.int rng 1_000_000,
   Printf.sprintf "pad-%08x" (Random.State.bits rng))

let data_rng seed = Random.State.make [| seed; 0x0171 |]

let ddl = "CREATE TABLE kv (k INT, grp INT, v INT, pad TEXT)"

let load_sql dir ~rows ~seed =
  let csv = Filename.concat dir "kv.csv" in
  let oc = open_out csv in
  output_string oc "k,grp,v,pad\n";
  let rng = data_rng seed in
  for k = 1 to rows do
    let g, v, pad = initial_row rng in
    Printf.fprintf oc "%d,%d,%d,%s\n" k g v pad
  done;
  close_out oc;
  [ ddl; Printf.sprintf "COPY kv FROM '%s'" csv; "CREATE INDEX ON kv (k)" ]

(** [open_store dir ~rows ~seed] creates and loads the durable store. *)
let open_store dir ~rows ~seed =
  let db, _ = Db.open_durable ~policy:Db.On_commit dir in
  List.iter (fun sql -> ignore (Db.exec db sql)) (load_sql dir ~rows ~seed);
  Db.analyze db "kv";
  db

(* --- the server process ------------------------------------------------ *)

let dump_metrics path =
  let oc = open_out path in
  List.iter
    (function
      | Metrics.Counter_value (n, v) -> Printf.fprintf oc "%s %d\n" n v
      | Metrics.Gauge_value _ -> ()
      | Metrics.Histogram_value (n, c, s, _) ->
          Printf.fprintf oc "%s.count %d\n%s.sum %.17g\n" n c n s)
    (Metrics.snapshot ());
  let g = Gc.quick_stat () in
  Printf.fprintf oc "gc.minor_words %.17g\ngc.promoted_words %.17g\ngc.major_collections %d\n"
    g.Gc.minor_words g.Gc.promoted_words g.Gc.major_collections;
  close_out oc

(** The server process: load, serve on an ephemeral port, report
    ["ready PORT LOAD_S"], then answer ["dump PATH"] commands on stdin
    until stdin closes or the benchmark kills it. *)
let serve dir ~rows ~seed =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t0 = now () in
  let db = open_store dir ~rows ~seed in
  let load_s = now () -. t0 in
  let store = Db.share db in
  let server = Server.start ~config:{ Server.default_config with Server.port = 0 } store in
  Printf.printf "ready %d %.6f\n%!" (Server.port server) load_s;
  let rec loop () =
    match input_line stdin with
    | line when String.length line > 5 && String.sub line 0 5 = "dump " ->
        dump_metrics (String.sub line 5 (String.length line - 5));
        print_endline "ok";
        loop ()
    | _ -> loop ()
    | exception End_of_file -> ()
  in
  loop ();
  Server.kill server;
  exit 0

type server = { pid : int; ic : in_channel; oc : out_channel; port : int; load_s : float }

let spawn dir ~rows ~seed =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; dir; string_of_int rows; string_of_int seed |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r and oc = Unix.out_channel_of_descr in_w in
  match Scanf.sscanf (input_line ic) "ready %d %f" (fun p l -> (p, l)) with
  | port, load_s -> { pid; ic; oc; port; load_s }
  | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise e

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  close_in_noerr s.ic;
  close_out_noerr s.oc

let dump s path =
  output_string s.oc ("dump " ^ path ^ "\n");
  flush s.oc;
  ignore (input_line s.ic);
  let h = Hashtbl.create 64 in
  let ic = open_in path in
  (try
     while true do
       Scanf.sscanf (input_line ic) "%s %f" (fun n v -> Hashtbl.replace h n v)
     done
   with End_of_file -> close_in ic);
  h

(* --- the model and the operation mix ----------------------------------- *)

type model = { mutable rows : (int * int * string) array; mutable max_key : int }

let model_of ~rows ~seed =
  let rng = data_rng seed in
  let a = Array.make (rows * 2) (0, 0, "") in
  for k = 1 to rows do
    a.(k) <- initial_row rng
  done;
  { rows = a; max_key = rows }

let set m k row =
  if k >= Array.length m.rows then begin
    let b = Array.make (2 * k) (0, 0, "") in
    Array.blit m.rows 0 b 0 (Array.length m.rows);
    m.rows <- b
  end;
  m.rows.(k) <- row;
  if k > m.max_key then m.max_key <- k

type op =
  | Point of int
  | Range of int * int
  | Agg of int * int
  | Update of int * int
  | Insert of int * int * int * string

let kind = function
  | Point _ -> "point"
  | Range _ -> "range"
  | Agg _ -> "agg"
  | Update _ -> "update"
  | Insert _ -> "insert"

let is_write = function Update _ | Insert _ -> true | _ -> false

let point_sql = "SELECT v, pad FROM kv WHERE k = $1"
let range_sql = "SELECT k, v FROM kv WHERE k BETWEEN $1 AND $2 ORDER BY k"
let agg_sql = "SELECT grp, COUNT(*), SUM(v) FROM kv WHERE k BETWEEN $1 AND $2 GROUP BY grp"

(* The mix follows a fixed schedule of 100 operation kinds (65 point
   reads, 20 ranges, 5 aggregates, 7 updates, 3 inserts) in an order that
   does not depend on the seed, so every seed has the same read/write
   mix; the seed picks the keys and values. *)
type kind_slot = K_point | K_range | K_agg_narrow | K_agg_wide | K_update | K_insert

let schedule =
  let slots =
    List.concat
      [ List.init 65 (fun _ -> K_point); List.init 20 (fun _ -> K_range);
        [ K_agg_narrow; K_agg_wide; K_agg_narrow; K_agg_wide; K_agg_narrow ];
        List.init 7 (fun _ -> K_update); List.init 3 (fun _ -> K_insert) ]
  in
  let a = Array.of_list slots in
  let rng = Random.State.make [| 0x5c4ed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let next_op rng m i =
  let key () = 1 + Random.State.int rng m.max_key in
  (* Narrow and wide aggregate ranges fall in different selectivity
     bands, so the plan cache keeps a variant per band and re-picks
     between them. *)
  let agg width =
    let a = 1 + Random.State.int rng (max 1 (m.max_key - width)) in
    Agg (a, a + width)
  in
  match schedule.(i mod Array.length schedule) with
  | K_point -> Point (key ())
  | K_range ->
      let a = key () in
      Range (a, a + 5 + Random.State.int rng 45)
  | K_agg_narrow -> agg 20
  | K_agg_wide -> agg (m.max_key / 2)
  | K_update -> Update (key (), Random.State.int rng 1_000_000)
  | K_insert ->
      Insert
        (m.max_key + 1, Random.State.int rng groups, Random.State.int rng 1_000_000,
         Printf.sprintf "new-%08x" (Random.State.bits rng))

let sql_of = function
  | Point _ -> point_sql
  | Range _ -> range_sql
  | Agg _ -> agg_sql
  | Update (k, v) -> Printf.sprintf "UPDATE kv SET v = %d WHERE k = %d" v k
  | Insert (k, g, v, pad) -> Printf.sprintf "INSERT INTO kv VALUES (%d, %d, %d, '%s')" k g v pad

let params_of = function
  | Point k -> [| Value.Int k |]
  | Range (a, b) | Agg (a, b) -> [| Value.Int a; Value.Int b |]
  | Update _ | Insert _ -> [||]

(** The expected rows of a read. *)
let expected m = function
  | Point k ->
      if k <= m.max_key then
        let _, v, pad = m.rows.(k) in
        [| [| Value.Int v; Value.Str pad |] |]
      else [||]
  | Range (a, b) ->
      let b = min b m.max_key in
      Array.init (max 0 (b - a + 1)) (fun i ->
          let _, v, _ = m.rows.(a + i) in
          [| Value.Int (a + i); Value.Int v |])
  | Agg (a, b) ->
      let count = Array.make groups 0 and sum = Array.make groups 0 in
      for k = a to min b m.max_key do
        let g, v, _ = m.rows.(k) in
        count.(g) <- count.(g) + 1;
        sum.(g) <- sum.(g) + v
      done;
      List.filter_map
        (fun g ->
          if count.(g) = 0 then None
          else Some [| Value.Int g; Value.Int count.(g); Value.Int sum.(g) |])
        (List.init groups Fun.id)
      |> Array.of_list
  | Update _ | Insert _ -> [||]

let apply m = function
  | Update (k, v) ->
      let g, _, pad = m.rows.(k) in
      set m k (g, v, pad)
  | Insert (k, g, v, pad) -> set m k (g, v, pad)
  | _ -> ()

(** Check a response against the model; a write's model update happens
    only once it is acknowledged. *)
let check m op resp =
  match (op, resp) with
  | (Update _ | Insert _), Wire.Affected 1 -> apply m op
  | (Point _ | Range _ | Agg _), Wire.Result (_, rows) ->
      let ordered = match op with Range _ -> true | _ -> false in
      Oracle.check ~what:(kind op) ~ordered (expected m op)
        (Oracle.maybe_poison ~ordered (Array.of_list rows))
  | _, Wire.Err (_, msg) -> oracle_fail "%s failed: %s" (kind op) msg
  | _ -> oracle_fail "%s: unexpected response" (kind op)

(* --- connections ------------------------------------------------------- *)

type conn = { c : Client.t; point : int; range : int; agg : int }

let connect port =
  let c = Client.connect ~port () in
  let prep sql =
    match Client.prepare c sql with Ok id -> id | Error m -> failwith ("prepare: " ^ m)
  in
  { c; point = prep point_sql; range = prep range_sql; agg = prep agg_sql }

let request_of conn op =
  match op with
  | Point _ -> Wire.Execute (conn.point, params_of op)
  | Range _ -> Wire.Execute (conn.range, params_of op)
  | Agg _ -> Wire.Execute (conn.agg, params_of op)
  | Update _ | Insert _ -> Wire.Query (sql_of op)

(* [Client.request], with a span around each of its three steps. *)
let request ~traced conn req =
  if not traced then Client.request conn.c req
  else begin
    let fd = conn.c.Client.fd in
    let payload = Span.with_ "server.encode" (fun () -> Wire.encode_request req) in
    let frame =
      Span.with_ "server.roundtrip" (fun () ->
          Wire.write_frame fd payload;
          Wire.read_frame fd)
    in
    Span.with_ "server.decode" (fun () -> Wire.decode_response frame)
  end

(* --- one run ----------------------------------------------------------- *)

(* The driver's state: which connection is next, how many commits were
   acknowledged, and the commit count each connection last read at. *)
type driver = {
  m : model;
  rng : Random.State.t;
  conns : conn array;
  mutable next : int;
  mutable issued : int;
  mutable commits : int;
  read_at : int array;
}

type cls = Read | First_read | Write

(** [step d ~traced] runs one operation and returns it, the connection
    index, its class, the response and its latency. *)
let step d ~traced =
  let op = next_op d.rng d.m d.issued in
  d.issued <- d.issued + 1;
  let ci = d.next in
  d.next <- (d.next + 1) mod Array.length d.conns;
  let cls =
    if is_write op then Write
    else if d.commits > d.read_at.(ci) then First_read
    else Read
  in
  let req = request_of d.conns.(ci) op in
  let t0 = now () in
  let resp =
    if traced then Span.request_ (fun () -> request ~traced d.conns.(ci) req)
    else request ~traced d.conns.(ci) req
  in
  let dt = now () -. t0 in
  check d.m op resp;
  (match cls with
  | Write -> d.commits <- d.commits + 1
  | Read | First_read -> d.read_at.(ci) <- d.commits);
  (op, ci, cls, req, resp, dt)

let rows_for ~small = if small then 2_000 else 20_000

let warmup_ops = 300

type setup = { srv : server; d : driver; dir : string; setup_s : float }

let teardown s =
  Array.iter (fun c -> Client.close c.c) s.d.conns;
  kill s.srv;
  rm_rf s.dir

let setup ~small ~seed ~tag =
  let t0 = now () in
  let rows = rows_for ~small in
  let dir = Filename.concat (work_dir ()) (Printf.sprintf "oltp-%d-%s" (Unix.getpid ()) tag) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let srv = spawn dir ~rows ~seed in
  let d =
    {
      m = model_of ~rows ~seed;
      rng = Random.State.make [| seed; 0x0a11 |];
      conns = [| connect srv.port; connect srv.port |];
      next = 0;
      issued = 0;
      commits = 0;
      read_at = [| 0; 0 |];
    }
  in
  let s = { srv; d; dir; setup_s = 0.0 } in
  match
    for _ = 1 to warmup_ops do
      ignore (step d ~traced:false)
    done
  with
  | () -> { s with setup_s = now () -. t0 }
  | exception e ->
      teardown s;
      raise e

(** Crash the server and check recovery against the model. *)
let crash_and_recover s =
  Array.iter (fun c -> Client.close c.c) s.d.conns;
  kill s.srv;
  if !Oracle.poison = "lost_write" then begin
    (* An acknowledged write the store forgot: the model holds it, the
       recovered table cannot. *)
    let g, v, pad = s.d.m.rows.(1) in
    s.d.m.rows.(1) <- (g, v + 1, pad)
  end;
  Fun.protect ~finally:(fun () -> rm_rf s.dir) @@ fun () ->
  let db, _ = Db.open_durable s.dir in
  let got =
    Oracle.rows_of_table (Db.query db "SELECT k, grp, v, pad FROM kv")
  in
  Db.close db;
  let m = s.d.m in
  let want =
    Array.init m.max_key (fun i ->
        let g, v, pad = m.rows.(i + 1) in
        [| Value.Int (i + 1); Value.Int g; Value.Int v; Value.Str pad |])
  in
  Oracle.check ~what:"recovery" ~ordered:false want got

let with_setup s f =
  match f () with
  | v -> v
  | exception e ->
      (try teardown s with _ -> ());
      raise e

(* --- untraced run ------------------------------------------------------ *)

let setup_reps = 5

let run_untraced ~small ~seed ~seconds =
  let times = ref [] in
  let s = ref None in
  for rep = 1 to setup_reps do
    Option.iter teardown !s;
    let x = setup ~small ~seed ~tag:(string_of_int rep) in
    times := x.setup_s :: !times;
    Printf.printf "setup: %.3f s\n%!" x.setup_s;
    s := Some x
  done;
  let s = Option.get !s in
  with_setup s @@ fun () ->
  let read = Pool.create () and first = Pool.create () and write = Pool.create () in
  let busy = ref 0.0 and attempted = ref 0 in
  let by_kind = Hashtbl.create 4 in
  let probes = ref [ probe_miter_per_s () ] in
  for _ = 1 to stretches do
    let stop = now () +. (seconds /. float_of_int stretches) in
    while now () < stop do
      incr attempted;
      let op, _, cls, _, _, dt = step s.d ~traced:false in
      busy := !busy +. dt;
      Pool.add (match cls with Read -> read | First_read -> first | Write -> write) dt;
      if cls = Read then begin
        let k = kind op in
        let p = match Hashtbl.find_opt by_kind k with Some p -> p | None -> Pool.create () in
        Pool.add p dt;
        Hashtbl.replace by_kind k p
      end
    done;
    probes := probe_miter_per_s () :: !probes
  done;
  let rss = hwm_mb (string_of_int s.srv.pid) in
  crash_and_recover s;
  Printf.printf "probe_miter_per_s: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !probes));
  Printf.printf "samples: read=%d first_read=%d write=%d\n" (Pool.count read)
    (Pool.count first) (Pool.count write);
  Hashtbl.iter
    (fun k p ->
      Printf.printf "read %s: n=%d p50_ms=%.4f p90_ms=%.4f\n" k (Pool.count p)
        (1e3 *. Pool.percentile p 0.5) (1e3 *. Pool.percentile p 0.9))
    by_kind;
  Printf.printf "first_read_p50_ms: %.4f write_p50_ms: %.4f write_p90_ms: %.4f\n%!"
    (1e3 *. Pool.percentile first 0.5) (1e3 *. Pool.percentile write 0.5)
    (1e3 *. Pool.percentile write 0.9);
  ( !attempted,
    0,
    [ ("setup_s", "s", median !times);
      ("ops_per_s", "1/s", float_of_int !attempted /. !busy);
      ("peak_rss_mb", "MB", rss);
      ("latency_p50_ms", "ms", 1e3 *. Pool.percentile read 0.5);
      ("latency_p90_ms", "ms", 1e3 *. Pool.percentile read 0.9) ] )

(* --- traced run -------------------------------------------------------- *)

(* The in-process mirror: the same store, loaded the same way but not
   served, with one session per connection.  It gives the in-process
   service time of each statement and the catalog the replay plans
   against. *)
type mirror = {
  root : Db.t;
  sessions : Db.t array;
  replays : (Replay.t * Plan_cache.t) array;
  index : Quill_storage.Index.Ordered_index.t option array;
  mutable builds : int;
  mutable build_s : float;
}

let mirror dir ~rows ~seed =
  let root = open_store dir ~rows ~seed in
  let store = Db.share root in
  let sessions = [| Db.session store; Db.session store |] in
  let replays =
    Array.map
      (fun s ->
        let indexes = Index_reg.create () in
        Index_reg.declare indexes ~table:"kv" ~col:"k";
        (Replay.create ~indexes (Db.catalog s), Plan_cache.create ()))
      sessions
  in
  { root; sessions; replays; index = [| None; None |]; builds = 0; build_s = 0.0 }

(* [Db.exec_prepared]'s read path (plan-cache lookup, planning on a
   miss, index fetch, tiered execution), step by step. *)
let replay_read mr ci op =
  let rp, cache = mr.replays.(ci) in
  let sql = sql_of op and params = params_of op in
  let param_types = Replay.param_types params in
  let version = Catalog.version rp.Replay.catalog in
  let entry =
    match
      Span.with_ "adaptive.lookup" (fun () ->
          Plan_cache.find cache ~sql ~param_types ~params ~catalog_version:version)
    with
    | Some e -> e
    | None ->
        let phys, lplan, cenv = Replay.plan rp ~params sql in
        let classifier =
          Card.param_selectivity cenv lplan
          |> Option.map (fun sel ps -> Card.selectivity_band (sel ps))
        in
        Plan_cache.add cache ~sql ~param_types ~params ?classifier ~catalog_version:version phys
  in
  let t0 = now () in
  let idx =
    Span.with_ "storage.index_get" (fun () ->
        Index_reg.get rp.Replay.indexes rp.Replay.catalog ~table:"kv" ~col:"k")
  in
  let rebuilt =
    match (idx, mr.index.(ci)) with
    | Some a, Some b -> a != b
    | Some _, None -> true
    | None, _ -> false
  in
  if rebuilt then begin
    mr.index.(ci) <- idx;
    mr.builds <- mr.builds + 1;
    mr.build_s <- mr.build_s +. (now () -. t0)
  end;
  let ctx =
    Quill_exec.Exec_ctx.create ~params ~indexes:rp.Replay.indexes rp.Replay.catalog
  in
  let rows =
    Span.with_ "exec.run" (fun () ->
        Tiering.execute ~cache ~policy:(Tiering.Tiered Tiering.default_hot_threshold) ~ctx
          entry)
  in
  (Quill_util.Vec.to_array rows, Array.length (Physical.preorder entry.Plan_cache.plan),
   Replay.scanned rp entry.Plan_cache.plan)

let run_traced ~small ~seed ~seconds ~spans_path =
  let s = setup ~small ~seed ~tag:"t" in
  with_setup s @@ fun () ->
  let rows = rows_for ~small in
  let mdir = s.dir ^ "-mirror" in
  rm_rf mdir;
  Sys.mkdir mdir 0o755;
  let mr = mirror mdir ~rows ~seed in
  Fun.protect ~finally:(fun () -> Db.close mr.root; rm_rf mdir) @@ fun () ->
  let collect_s = Replay.analyze (fst mr.replays.(0)) in
  (* The mirror replays the warm-up's writes so it holds the same rows. *)
  let mirror_write ci op = ignore (Db.exec mr.sessions.(ci) (sql_of op)) in
  let replay_rng = Random.State.make [| seed; 0x0a11 |] in
  let shadow = model_of ~rows ~seed in
  for i = 0 to warmup_ops - 1 do
    let op = next_op replay_rng shadow i in
    apply shadow op;
    if is_write op then mirror_write (i mod 2) op
  done;
  let half = seconds /. 2.0 in
  (* Phase 1: traced requests, each followed by its in-process service
     and replay.  Counts cover the first [count_ops] operations after the
     warm-up, a fixed sequence, so they repeat exactly. *)
  let count_ops = if small then 300 else 1500 in
  let dump_path = Filename.concat (work_dir ()) "server-metrics.txt" in
  let d0 = dump s.srv dump_path in
  let d1 = ref d0 and g_builds = ref 0 and g_commits = ref 0 and nodes = ref 0 and scanned = ref 0 in
  let first = Pool.create () and write = Pool.create () in
  let overhead = ref 0.0 and reads = ref 0 and commit_s = ref 0.0 and writes = ref 0 in
  let attempted = ref 0 in
  Span.on := true;
  let stop = now () +. half in
  while now () < stop || !attempted < count_ops do
    incr attempted;
    let op, ci, cls, req, resp, dt = step s.d ~traced:true in
    (match cls with
    | Write -> Pool.add write dt
    | First_read -> Pool.add first dt
    | Read -> ());
    (* The server's side of the codec, timed on the same messages. *)
    Span.with_ "replay" (fun () ->
        ignore (Span.with_ "server.encode" (fun () -> Wire.encode_response resp));
        let frame = Wire.encode_request req in
        ignore (Span.with_ "server.decode" (fun () -> Wire.decode_request frame)));
    if is_write op then begin
      let t0 = now () in
      mirror_write ci op;
      commit_s := !commit_s +. (now () -. t0);
      incr writes
    end
    else begin
      let t0 = now () in
      let served = Db.exec_prepared mr.sessions.(ci) ~params:(params_of op) (sql_of op) in
      overhead := !overhead +. (dt -. (now () -. t0));
      incr reads;
      let got, n, sc = Span.with_ "replay" (fun () -> replay_read mr ci op) in
      let want =
        match served with Db.Rows t -> Oracle.rows_of_table t | _ -> [||]
      in
      let ordered = match op with Range _ -> true | _ -> false in
      Oracle.check ~what:("replay " ^ kind op) ~ordered want got;
      if !attempted <= count_ops then begin
        nodes := !nodes + n;
        scanned := !scanned + sc
      end
    end;
    if !attempted = count_ops then begin
      d1 := dump s.srv dump_path;
      g_builds := mr.builds;
      g_commits := !writes
    end
  done;
  Span.on := false;
  (* Phase 2: untraced requests, the tracing-overhead baseline. *)
  let untraced = Pool.create () in
  let stop = now () +. half in
  while now () < stop do
    let _, _, _, _, _, dt = step s.d ~traced:false in
    Pool.add untraced dt
  done;
  let per_req, unattributed, mean_root, _ = Span.summary () in
  Span.write spans_path;
  crash_and_recover s;
  let c = float_of_int count_ops in
  let dv name =
    Option.value ~default:0.0 (Hashtbl.find_opt !d1 name)
    -. Option.value ~default:0.0 (Hashtbl.find_opt d0 name)
  in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let commits = dv "quill.txn.commits" in
  let hits = dv "quill.plan_cache.hits" and misses = dv "quill.plan_cache.misses" in
  let s_hits = dv "quill.codegen.stencil_hits" and s_miss = dv "quill.codegen.stencil_misses" in
  let us name = 1e6 *. per_req name in
  let mean_untraced = Pool.sum untraced /. float_of_int (Pool.count untraced) in
  let mix = Hashtbl.create 8 and inputs = Buffer.create 4096 in
  let mrng = Random.State.make [| seed; 0x0a11 |] and mm = model_of ~rows ~seed in
  for i = 0 to warmup_ops + count_ops - 1 do
    let op = next_op mrng mm i in
    apply mm op;
    Buffer.add_string inputs (sql_of op);
    Array.iter (fun v -> Buffer.add_string inputs (Value.to_string v)) (params_of op);
    Hashtbl.replace mix (kind op) (1 + Option.value ~default:0 (Hashtbl.find_opt mix (kind op)))
  done;
  Printf.printf "inputs: %s\n" (Digest.to_hex (Digest.string (Buffer.contents inputs)));
  Printf.printf "mix (first %d operations): %s\n" (warmup_ops + count_ops)
    (String.concat " "
       (List.sort compare (Hashtbl.fold (fun k v acc -> Printf.sprintf "%s=%d" k v :: acc) mix [])));
  ( !attempted,
    0,
    [ ("sql.parse_us", "us", us "sql.parse");
      ("plan.bind_us", "us", us "plan.bind");
      ("optimizer.rewrite_us", "us", us "optimizer.rewrite");
      ("optimizer.join_order_us", "us", us "optimizer.join_order");
      ("optimizer.pick_us", "us", us "optimizer.pick");
      ("optimizer.plan_nodes", "count", float_of_int !nodes /. c);
      ("stats.collect_ms", "ms", 1e3 *. collect_s);
      ("compile.stencil_bind_us", "us", 1e6 *. dv "quill.codegen.stencil_bind_seconds.sum" /. c);
      ("compile.codegen_us", "us", 1e6 *. dv "quill.codegen.seconds.sum" /. c);
      ("compile.stencil_hit_frac", "frac", ratio s_hits (s_hits +. s_miss));
      ("exec.run_ms", "ms", 1e3 *. per_req "exec.run");
      ("exec.rows_scanned", "count", float_of_int !scanned /. c);
      ("parallel.morsels", "count", dv "quill.parallel.morsels" /. c);
      ("parallel.dispatches", "count", dv "quill.parallel.dispatches" /. c);
      ("adaptive.plan_cache_hit_frac", "frac", ratio hits (hits +. misses));
      ("adaptive.lookup_us", "us", us "adaptive.lookup");
      ("adaptive.repicks", "count", dv "quill.plan_cache.repicks");
      ("storage.index_build_ms", "ms", 1e3 *. ratio mr.build_s (float_of_int mr.builds));
      ("storage.index_builds_per_commit", "count",
       ratio (float_of_int !g_builds) (float_of_int !g_commits));
      ("storage.wal_bytes_per_commit", "B", ratio (dv "quill.wal.bytes") commits);
      ("storage.wal_syncs_per_commit", "count", ratio (dv "quill.wal.syncs") commits);
      ("txn.commit_us", "us", 1e6 *. ratio !commit_s (float_of_int !writes));
      ("txn.stripe_waits", "count", dv "quill.txn.stripe_waits");
      ("txn.conflicts_per_commit", "count", ratio (dv "quill.txn.conflicts") commits);
      ("storage.load_s", "s", s.srv.load_s);
      ("server.overhead_us", "us", 1e6 *. ratio !overhead (float_of_int !reads));
      ("server.encode_us", "us", us "server.encode");
      ("server.decode_us", "us", us "server.decode");
      ("gc.minor_words_per_op", "words", dv "gc.minor_words" /. c);
      ("gc.promoted_words_per_op", "words", dv "gc.promoted_words" /. c);
      ("gc.major_collections_per_kop", "count", 1e3 *. dv "gc.major_collections" /. c);
      ("oltp.first_read_p50_ms", "ms", 1e3 *. Pool.percentile first 0.5);
      ("oltp.write_p50_ms", "ms", 1e3 *. Pool.percentile write 0.5);
      ("oltp.write_p90_ms", "ms", 1e3 *. Pool.percentile write 0.9);
      ("unattributed_frac", "frac", unattributed);
      ("trace_overhead_frac", "frac", (mean_root -. mean_untraced) /. mean_untraced) ] )

let run ~small ~seed ~seconds ~traced ~spans_path =
  Printf.printf "flush policy: WAL fsync on every commit (On_commit)\n%!";
  if traced then run_traced ~small ~seed ~seconds ~spans_path
  else run_untraced ~small ~seed ~seconds
