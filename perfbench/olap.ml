(* The two in-process SELECT workloads, tpch_suite and adhoc_small.  One
   caller runs operations back to back through [Db.query] (closed loop);
   an operation is a fixed list of statements.  Every result is checked
   against the Volcano engine's, computed before the measured run. *)

module Db = Quill.Db
module Catalog = Quill_storage.Catalog
module Metrics = Quill_obs.Metrics
module Tpch = Quill_workload.Tpch
open Common

type spec = {
  sf : float;  (** TPC-H scale factor of the database *)
  data_seed : int;  (** seed of the generated database *)
  parallelism : int;
  ops : Adhoc.stmt array array;  (** run in order, cycling *)
  warmup_ops : int;
  count_ops : int;  (** operations in the traced run's count window *)
  setup_reps : int;  (** set-ups per untraced run; setup_s is their median *)
}

let tpch_stmts =
  Array.of_list
    (List.map
       (fun (label, sql) -> { Adhoc.sql; label; ordered = label <> "Q6" })
       Tpch.queries)

let tpch_suite ~small ~seed =
  { sf = (if small then 0.002 else 0.02); data_seed = seed; parallelism = 2;
    ops = [| tpch_stmts |];
    warmup_ops = 2; count_ops = 2; setup_reps = 5 }

let adhoc_small ~small ~seed =
  let sf = 0.0005 in
  let orders = (Tpch.sizes_of_sf sf).Tpch.orders in
  let per_shape = if small then 20 else 250 in
  let pool = Adhoc.pool ~seed ~per_shape ~orders in
  (* One database for every seed: the seed varies the statements'
     literals (see Adhoc). *)
  { sf; data_seed = 1; parallelism = 1; ops = Array.map (fun s -> [| s |]) pool;
    warmup_ops = min 300 (Array.length pool); count_ops = Array.length pool;
    setup_reps = 9 }

type loaded = { db : Db.t; load_s : float; setup_s : float }

(* Load, analyze and warm up one database.  Setup is everything a user
   waits for before the first measured statement. *)
let setup spec =
  let t0 = now () in
  let db = Db.create () in
  Db.set_parallelism db spec.parallelism;
  Tpch.load (Db.catalog db) ~sf:spec.sf ~seed:spec.data_seed;
  let load_s = now () -. t0 in
  List.iter (Db.analyze db) (Catalog.names (Db.catalog db));
  for i = 0 to spec.warmup_ops - 1 do
    Array.iter
      (fun s -> ignore (Db.query db s.Adhoc.sql))
      spec.ops.(i mod Array.length spec.ops)
  done;
  { db; load_s; setup_s = now () -. t0 }

(* Set up [reps] times and keep the last database; setup_s is the
   median, so one slow repetition does not move it. *)
let setup_median spec ~reps =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    Option.iter (fun l -> Db.close l.db) !last;
    last := None;
    Gc.compact ();
    let l = setup spec in
    times := l.setup_s :: !times;
    Printf.printf "setup: %.3f s\n%!" l.setup_s;
    last := Some l
  done;
  (Option.get !last, median !times)

(* The distinct statements of the spec, keyed by SQL. *)
let distinct spec =
  let h = Hashtbl.create 2048 in
  Array.iter (Array.iter (fun s -> Hashtbl.replace h s.Adhoc.sql s)) spec.ops;
  h

let rows db ?engine sql = Oracle.rows_of_table (Db.query db ?engine sql)

(** The Volcano engine's result for every distinct statement. *)
let reference db spec =
  let refs = Hashtbl.create 2048 in
  Hashtbl.iter (fun sql _ -> Hashtbl.replace refs sql (rows db ~engine:Db.Volcano sql)) (distinct spec);
  refs

let check_stmt refs (s : Adhoc.stmt) actual =
  Oracle.check ~what:s.Adhoc.label ~ordered:s.Adhoc.ordered (Hashtbl.find refs s.Adhoc.sql)
    (Oracle.maybe_poison ~ordered:s.Adhoc.ordered actual)

(* --- untraced run ------------------------------------------------------ *)

let run_untraced spec ~seconds =
  let l, setup_s = setup_median spec ~reps:spec.setup_reps in
  let t0 = now () in
  let refs = reference l.db spec in
  Printf.printf "reference: %d statements in %.2f s\n" (Hashtbl.length refs) (now () -. t0);
  (* Every run starts measuring from the same compacted heap. *)
  Gc.compact ();
  let lat = Pool.create () in
  let failed = ref 0 and attempted = ref 0 and busy = ref 0.0 in
  let probes = ref [ probe_miter_per_s () ] in
  let stretch = seconds /. float_of_int stretches in
  let i = ref 0 in
  let rates = ref [] in
  for _ = 1 to stretches do
    let stop = now () +. stretch in
    let ops0 = Pool.count lat and busy0 = !busy in
    while now () < stop do
      let stmts = spec.ops.(!i mod Array.length spec.ops) in
      incr i;
      incr attempted;
      let t0 = now () in
      match Array.map (fun s -> Db.query l.db s.Adhoc.sql) stmts with
      | results ->
          let dt = now () -. t0 in
          Pool.add lat dt;
          busy := !busy +. dt;
          Array.iteri (fun k s -> check_stmt refs s (Oracle.rows_of_table results.(k))) stmts
      | exception (Db.Error _ | Db.Aborted _) -> incr failed
    done;
    rates := float_of_int (Pool.count lat - ops0) /. (!busy -. busy0) :: !rates;
    probes := probe_miter_per_s () :: !probes
  done;
  Printf.printf "probe_miter_per_s: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !probes));
  Printf.printf "stretch_ops_per_s: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4g") !rates));
  Printf.printf "samples: %d operations, pooled over %.1f s busy\n%!" (Pool.count lat) !busy;
  let completed = !attempted - !failed in
  let metrics =
    [ ("setup_s", "s", setup_s);
      ("ops_per_s", "1/s", float_of_int completed /. !busy);
      ("peak_rss_mb", "MB", hwm_mb "self");
      ("latency_p50_ms", "ms", 1e3 *. Pool.percentile lat 0.5);
      ("latency_p90_ms", "ms", 1e3 *. Pool.percentile lat 0.9) ]
  in
  Db.close l.db;
  (!attempted, !failed, metrics)

(* --- traced run -------------------------------------------------------- *)

let counter snap name =
  List.fold_left
    (fun acc -> function
      | Metrics.Counter_value (n, v) when n = name -> float_of_int v
      | _ -> acc)
    0.0 snap

let run_traced spec ~seconds ~spans_path =
  let l = setup spec in
  let refs = reference l.db spec in
  (* The pipeline's own answers, which the replay must reproduce. *)
  let db_rows = Hashtbl.create 2048 in
  Hashtbl.iter
    (fun sql (s : Adhoc.stmt) ->
      let r = rows l.db sql in
      check_stmt refs s r;
      Hashtbl.replace db_rows sql r)
    (distinct spec);
  let rp = Replay.create (Db.catalog l.db) in
  let collect_s = Replay.analyze rp in
  (* Phase 1: the untraced pipeline, for the tracing-overhead baseline. *)
  let n_ops = Array.length spec.ops in
  let half = seconds /. 2.0 in
  let untraced = Pool.create () in
  let stop = now () +. half in
  let i = ref 0 in
  while now () < stop do
    let stmts = spec.ops.(!i mod n_ops) in
    incr i;
    let t0 = now () in
    Array.iter (fun s -> ignore (Db.query l.db s.Adhoc.sql)) stmts;
    Pool.add untraced (now () -. t0)
  done;
  (* Phase 2: the traced replay.  Counts are taken over the first
     [count_ops] operations, a fixed sequence, so they repeat exactly. *)
  Span.on := true;
  let nodes = ref 0 and scanned = ref 0 and hits = ref 0 and compiles = ref 0 and peak = ref 0 in
  let snap0 = Metrics.snapshot () in
  let snap1 = ref snap0 and gc = ref { minor = 0.0; promoted = 0.0; majors = 0 } in
  let attempted = ref 0 in
  let stop = now () +. half in
  let i = ref 0 in
  while now () < stop || !i < spec.count_ops do
    let stmts = spec.ops.(!i mod n_ops) in
    incr i;
    incr attempted;
    let g0 = gc_counts () in
    let outcomes = Span.request_ (fun () -> Array.map (fun s -> Replay.select rp s.Adhoc.sql) stmts) in
    if !i <= spec.count_ops then gc := gc_add !gc (gc_delta g0 (gc_counts ()));
    Array.iteri
      (fun k (o : Replay.outcome) ->
        let s = stmts.(k) in
        Oracle.check ~what:("replay " ^ s.Adhoc.label) ~ordered:s.Adhoc.ordered
          (Hashtbl.find db_rows s.Adhoc.sql) o.Replay.rows;
        if !i <= spec.count_ops then begin
          nodes := !nodes + o.Replay.nodes;
          scanned := !scanned + o.Replay.scanned;
          incr compiles;
          if o.Replay.stencil_hit then incr hits;
          peak := !peak + o.Replay.peak_bytes
        end)
      outcomes;
    if !i = spec.count_ops then begin
      snap1 := Metrics.snapshot ()
    end
  done;
  Span.on := false;
  let per_req, unattributed, mean_root, _ = Span.summary () in
  Span.write spans_path;
  let c = float_of_int spec.count_ops in
  let delta name = (counter !snap1 name -. counter snap0 name) /. c in
  let g = !gc in
  let us name = 1e6 *. per_req name in
  let mean_untraced = Pool.sum untraced /. float_of_int (Pool.count untraced) in
  let metrics =
    [ ("sql.parse_us", "us", us "sql.parse");
      ("plan.bind_us", "us", us "plan.bind");
      ("optimizer.rewrite_us", "us", us "optimizer.rewrite");
      ("optimizer.join_order_us", "us", us "optimizer.join_order");
      ("optimizer.pick_us", "us", us "optimizer.pick");
      ("optimizer.plan_nodes", "count", float_of_int !nodes /. c);
      ("stats.collect_ms", "ms", 1e3 *. collect_s);
      ("compile.stencil_bind_us", "us", us "compile.stencil_bind");
      ("compile.codegen_us", "us", us "compile.codegen");
      ("compile.stencil_hit_frac", "frac", float_of_int !hits /. float_of_int !compiles);
      ("exec.run_ms", "ms", 1e3 *. per_req "exec.run");
      ("exec.rows_scanned", "count", float_of_int !scanned /. c);
      ("exec.peak_bytes", "B", float_of_int !peak /. c);
      ("parallel.morsels", "count", delta "quill.parallel.morsels");
      ("parallel.dispatches", "count", delta "quill.parallel.dispatches");
      ("storage.load_s", "s", l.load_s);
      ("gc.minor_words_per_op", "words", g.minor /. c);
      ("gc.promoted_words_per_op", "words", g.promoted /. c);
      ("gc.major_collections_per_kop", "count", 1e3 *. float_of_int g.majors /. c);
      ("unattributed_frac", "frac", unattributed);
      ("trace_overhead_frac", "frac", (mean_root -. mean_untraced) /. mean_untraced) ]
  in
  let shapes = Hashtbl.create 8 in
  Array.iter
    (Array.iter (fun (s : Adhoc.stmt) ->
         Hashtbl.replace shapes s.Adhoc.label
           (1 + Option.value ~default:0 (Hashtbl.find_opt shapes s.Adhoc.label))))
    spec.ops;
  (* The seed's inputs: statements and the data behind their answers. *)
  let inputs = Buffer.create 4096 in
  Array.iter
    (Array.iter (fun (s : Adhoc.stmt) ->
         Buffer.add_string inputs s.Adhoc.sql;
         Array.iter (fun r -> Buffer.add_string inputs (Oracle.show_row r)) (Hashtbl.find refs s.Adhoc.sql)))
    spec.ops;
  Printf.printf "inputs: %s\n" (Digest.to_hex (Digest.string (Buffer.contents inputs)));
  Printf.printf "shapes: %s\n"
    (String.concat " "
       (List.sort compare
          (Hashtbl.fold (fun k v acc -> Printf.sprintf "%s=%d" k v :: acc) shapes [])));
  Db.close l.db;
  (!attempted, 0, metrics)
