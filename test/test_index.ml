(* Index scans: registry lifecycle, access-path selection, execution
   correctness across engines, staleness under DML, and indexes carried
   across MVCC commits (derived from the commit footprint, never
   rebuilt). *)

module Value = Quill_storage.Value
module Table = Quill_storage.Table
module Catalog = Quill_storage.Catalog
module Index = Quill_storage.Index
module Physical = Quill_optimizer.Physical
module Picker = Quill_optimizer.Picker
module Metrics = Quill_obs.Metrics
module Store = Quill_txn.Store

let engines = [ Quill.Db.Volcano; Quill.Db.Vectorized; Quill.Db.Compiled ]

let mk_db ?(rows = 5000) () =
  let db = Quill.Db.create () in
  Catalog.add (Quill.Db.catalog db)
    (Quill_workload.Micro.ints_table ~name:"t" ~rows ~cols:3 ~seed:7 ());
  Quill.Db.analyze db "t";
  db

let rec has_index_scan = function
  | Physical.Index_scan _ -> true
  | Physical.Scan _ | Physical.One_row -> false
  | Physical.Filter (_, i, _) | Physical.Project (_, i, _) | Physical.Distinct (i, _) ->
      has_index_scan i
  | Physical.Join { left; right; _ } -> has_index_scan left || has_index_scan right
  | Physical.Aggregate { input; _ } | Physical.Window { input; _ }
  | Physical.Sort { input; _ } | Physical.Top_k { input; _ }
  | Physical.Limit { input; _ } ->
      has_index_scan input

let test_registry_lifecycle () =
  let db = mk_db ~rows:100 () in
  let cat = Quill.Db.catalog db in
  let reg = Index.Registry.create () in
  Alcotest.(check bool) "undeclared" true (Index.Registry.get reg cat ~table:"t" ~col:"c0" = None);
  Index.Registry.declare reg ~table:"t" ~col:"c0";
  Alcotest.(check (list string)) "declared" [ "c0" ] (Index.Registry.declared reg "t");
  let idx = Option.get (Index.Registry.get reg cat ~table:"t" ~col:"c0") in
  Alcotest.(check int) "size" 100 (Index.Ordered_index.size idx);
  (* Same version -> cached object. *)
  let idx2 = Option.get (Index.Registry.get reg cat ~table:"t" ~col:"c0") in
  Alcotest.(check bool) "cached" true (idx == idx2);
  (* Version bump -> rebuilt. *)
  Table.insert (Catalog.find_exn cat "t") [| Value.Int 9999; Value.Int 0; Value.Int 0 |];
  Catalog.bump cat;
  let idx3 = Option.get (Index.Registry.get reg cat ~table:"t" ~col:"c0") in
  Alcotest.(check bool) "rebuilt" true (idx != idx3);
  Alcotest.(check int) "fresh size" 101 (Index.Ordered_index.size idx3);
  Index.Registry.drop_table reg "t";
  Alcotest.(check (list string)) "dropped" [] (Index.Registry.declared reg "t")

let test_picker_chooses_index () =
  let db = mk_db () in
  ignore (Quill.Db.exec db "CREATE INDEX ON t (c0)");
  (* Selective range -> index scan. *)
  Alcotest.(check bool) "selective uses index" true
    (has_index_scan (Quill.Db.plan db "SELECT c1 FROM t WHERE c0 >= 10 AND c0 < 20"));
  (* Equality -> index scan. *)
  Alcotest.(check bool) "eq uses index" true
    (has_index_scan (Quill.Db.plan db "SELECT c1 FROM t WHERE c0 = 42"));
  (* Unselective predicate -> full scan. *)
  Alcotest.(check bool) "unselective stays scan" false
    (has_index_scan (Quill.Db.plan db "SELECT c1 FROM t WHERE c0 >= 0"));
  (* Predicate on a non-indexed column -> full scan. *)
  Alcotest.(check bool) "wrong column" false
    (has_index_scan (Quill.Db.plan db "SELECT c1 FROM t WHERE c1 = 42"));
  (* Ablation switch. *)
  Quill.Db.set_options db { Picker.default_options with Picker.enable_index = false };
  Alcotest.(check bool) "disabled" false
    (has_index_scan (Quill.Db.plan db "SELECT c1 FROM t WHERE c0 = 42"));
  Quill.Db.set_options db Picker.default_options

let test_results_match_full_scan () =
  let db = mk_db () in
  let queries =
    [ "SELECT c1 FROM t WHERE c0 = 123";
      "SELECT c1, c2 FROM t WHERE c0 >= 100 AND c0 <= 200";
      "SELECT c1 FROM t WHERE c0 > 100 AND c0 < 110 AND c2 > 500";
      "SELECT count(*) FROM t WHERE c0 BETWEEN 40 AND 90";
      "SELECT c1 FROM t WHERE c0 = 77 OR c0 = 78" (* OR: not index-servable *) ]
  in
  let before = List.map (fun q -> Tutil.table_rows (Quill.Db.query db q)) queries in
  ignore (Quill.Db.exec db "CREATE INDEX ON t (c0)");
  List.iter2
    (fun q expect ->
      List.iter
        (fun engine ->
          let got = Tutil.table_rows (Quill.Db.query db ~engine q) in
          if not (Tutil.same_rows_unordered expect got) then
            Alcotest.failf "index result mismatch on %s (%s)" q
              (Quill.Db.engine_name engine))
        engines)
    queries before

let test_param_bounds () =
  let db = mk_db () in
  ignore (Quill.Db.exec db "CREATE INDEX ON t (c0)");
  let sql = "SELECT c1 FROM t WHERE c0 = $1" in
  Alcotest.(check bool) "param bound uses index" true
    (has_index_scan (Quill.Db.plan db ~params:[| Value.Int 5 |] sql));
  let r = Quill.Db.query db ~params:[| Value.Int 5 |] sql in
  Alcotest.(check int) "one row (unique key)" 1 (Table.row_count r);
  (* A NULL bound matches nothing (index path must return empty, not all). *)
  let r2 = Quill.Db.query db "SELECT c1 FROM t WHERE c0 = NULL" in
  Alcotest.(check int) "null matches nothing" 0 (Table.row_count r2)

let test_dml_staleness () =
  let db = mk_db ~rows:500 () in
  ignore (Quill.Db.exec db "CREATE INDEX ON t (c0)");
  let count () =
    Table.row_count (Quill.Db.query db "SELECT c0 FROM t WHERE c0 >= 100 AND c0 < 110")
  in
  Alcotest.(check int) "before insert" 10 (count ());
  ignore (Quill.Db.exec db "INSERT INTO t VALUES (105, 1, 1)");
  Alcotest.(check int) "sees insert" 11 (count ());
  ignore (Quill.Db.exec db "DELETE FROM t WHERE c0 = 105");
  Alcotest.(check int) "sees delete" 9 (count ())

let test_create_index_errors () =
  let db = mk_db ~rows:10 () in
  Alcotest.(check bool) "bad column" true
    (try
       ignore (Quill.Db.exec db "CREATE INDEX ON t (nope)");
       false
     with Quill.Db.Error _ -> true);
  Alcotest.(check bool) "bad table" true
    (try
       ignore (Quill.Db.exec db "CREATE INDEX ON missing (c0)");
       false
     with Quill.Db.Error _ -> true)

let test_index_on_strings_and_dates () =
  let db = Tutil.random_db ~seed:55 ~rows:400 in
  let before_tag = Tutil.table_rows (Quill.Db.query db "SELECT id FROM r WHERE tag = 'beta'") in
  let before_dt =
    Tutil.table_rows
      (Quill.Db.query db "SELECT id FROM r WHERE dt >= DATE '1994-10-01' AND dt < DATE '1994-11-01'")
  in
  ignore (Quill.Db.exec db "CREATE INDEX ON r (tag)");
  ignore (Quill.Db.exec db "CREATE INDEX ON r (dt)");
  let after_tag = Tutil.table_rows (Quill.Db.query db "SELECT id FROM r WHERE tag = 'beta'") in
  let after_dt =
    Tutil.table_rows
      (Quill.Db.query db "SELECT id FROM r WHERE dt >= DATE '1994-10-01' AND dt < DATE '1994-11-01'")
  in
  Alcotest.(check bool) "string index" true (Tutil.same_rows_unordered before_tag after_tag);
  Alcotest.(check bool) "date index" true (Tutil.same_rows_unordered before_dt after_dt)

let prop_index_vs_scan =
  Tutil.qtest ~count:60 "index scan = full scan on random ranges"
    QCheck2.Gen.(
      let* lo = int_range 0 999 in
      let* len = int_range 0 200 in
      pure (lo, lo + len))
    (fun (lo, hi) ->
      let db = mk_db ~rows:1000 () in
      let sql = Printf.sprintf "SELECT c1 FROM t WHERE c0 >= %d AND c0 <= %d" lo hi in
      let scan = Tutil.table_rows (Quill.Db.query db sql) in
      ignore (Quill.Db.exec db "CREATE INDEX ON t (c0)");
      let indexed = Tutil.table_rows (Quill.Db.query db sql) in
      Tutil.same_rows_unordered scan indexed)

let rec has_sort = function
  | Physical.Sort _ | Physical.Top_k _ -> true
  | Physical.Scan _ | Physical.Index_scan _ | Physical.One_row -> false
  | Physical.Filter (_, i, _) | Physical.Project (_, i, _) | Physical.Distinct (i, _) ->
      has_sort i
  | Physical.Join { left; right; _ } -> has_sort left || has_sort right
  | Physical.Aggregate { input; _ } | Physical.Window { input; _ }
  | Physical.Limit { input; _ } ->
      has_sort input

let test_sort_elision () =
  let db = mk_db () in
  ignore (Quill.Db.exec db "CREATE INDEX ON t (c0)");
  (* Selective enough that the index path beats the typed-batch filtered
     scan (whose per-row cost dropped with the unboxed kernels, moving the
     break-even towards more selective predicates). *)
  let sql = "SELECT c0, c1 FROM t WHERE c0 >= 100 AND c0 < 130 ORDER BY c0" in
  (* The index scan already delivers c0-ascending order: no Sort node. *)
  let plan = Quill.Db.plan db sql in
  Alcotest.(check bool) "index scan used" true (has_index_scan plan);
  Alcotest.(check bool) "sort elided" false (has_sort plan);
  (* And the output is genuinely sorted, matching the explicit-sort plan. *)
  let got = Tutil.table_rows (Quill.Db.query db sql) in
  Quill.Db.set_options db { Picker.default_options with Picker.enable_index = false };
  let reference = Tutil.table_rows (Quill.Db.query db sql) in
  Quill.Db.set_options db Picker.default_options;
  Alcotest.(check bool) "sorted output" true
    (Array.to_list (Array.map (fun r -> r.(0)) got)
    = Array.to_list (Array.map (fun r -> r.(0)) reference));
  (* DESC order is not satisfied by an ascending index: Sort stays. *)
  let plan_desc =
    Quill.Db.plan db "SELECT c0 FROM t WHERE c0 >= 100 AND c0 < 150 ORDER BY c0 DESC"
  in
  Alcotest.(check bool) "desc keeps sort" true (has_sort plan_desc);
  (* ORDER BY indexed col + LIMIT becomes a streaming limit (no TopK)
     when the index path is selective enough to be chosen. *)
  let plan_limit =
    Quill.Db.plan db "SELECT c0 FROM t WHERE c0 >= 100 AND c0 < 140 ORDER BY c0 LIMIT 5"
  in
  Alcotest.(check bool) "index chosen" true (has_index_scan plan_limit);
  Alcotest.(check bool) "no topk either" false (has_sort plan_limit);
  let r = Quill.Db.query db "SELECT c0 FROM t WHERE c0 >= 100 AND c0 < 200 ORDER BY c0 LIMIT 5" in
  Alcotest.(check bool) "limit works" true
    (Array.to_list (Array.map (fun row -> row.(0)) (Tutil.table_rows r))
    = [ Value.Int 100; Value.Int 101; Value.Int 102; Value.Int 103; Value.Int 104 ])

(* --- indexes across commits ---------------------------------------------- *)

let m_builds = Metrics.counter "quill.index.builds"
let m_derives = Metrics.counter "quill.index.derives"
let m_merges = Metrics.counter "quill.txn.merged_installs"

let with_chunk_rows n f =
  let old = !Table.default_chunk_rows in
  Table.default_chunk_rows := n;
  Fun.protect ~finally:(fun () -> Table.default_chunk_rows := old) f

let run db sql = ignore (Quill.Db.exec db sql)

(* Table [t (id, k, v)]: [id] is the row number, [k] the indexed key. *)
let seed_kv db keys =
  run db "CREATE TABLE t (id INT NOT NULL, k INT, v INT NOT NULL)";
  let vals =
    List.mapi
      (fun i k ->
        Printf.sprintf "(%d, %s, %d)" i
          (match k with Some k -> string_of_int k | None -> "NULL")
          i)
      keys
  in
  run db ("INSERT INTO t VALUES " ^ String.concat ", " vals);
  run db "CREATE INDEX ON t (k)"

let committed store name =
  List.find (fun t -> Table.name t = name) (Store.snapshot store).Store.tables

let same_index (a : Index.Ordered_index.t) (b : Index.Ordered_index.t) =
  Array.length a.keys = Array.length b.keys
  && Array.for_all2 (fun x y -> Value.compare x y = 0) a.keys b.keys
  && a.rowids = b.rowids

(* One build, then N non-key UPDATE commits, each read through the index
   from both sessions: every later version inherits the index. *)
let test_index_metrics () =
  let root = Quill.Db.create () in
  seed_kv root (List.init 2000 (fun i -> Some (i * 7 mod 2000)));
  let store = Quill.Db.share root in
  let s1 = Quill.Db.session store and s2 = Quill.Db.session store in
  let read s = Quill.Db.query s "SELECT v FROM t WHERE k = 42" in
  Alcotest.(check bool) "point read uses the index" true
    (has_index_scan (Quill.Db.plan s1 "SELECT v FROM t WHERE k = 42"));
  let b0 = Metrics.value m_builds and d0 = Metrics.value m_derives in
  ignore (read s1);
  ignore (read s2);
  Alcotest.(check int) "one build" 1 (Metrics.value m_builds - b0);
  for i = 1 to 20 do
    run s1 (Printf.sprintf "UPDATE t SET v = %d WHERE id = %d" (i * 3) (i * 97));
    ignore (read s1);
    ignore (read s2)
  done;
  Alcotest.(check int) "still one build" 1 (Metrics.value m_builds - b0);
  Alcotest.(check int) "one derive per commit" 20 (Metrics.value m_derives - d0);
  Alcotest.(check bool) "derived index = fresh build" true
    (let v = committed store "t" in
     same_index (Option.get (Table.cached_index v 1)) (Index.Ordered_index.build v 1))

(* Random two-session histories over [t]: key and non-key UPDATEs (keys
   to and from NULL), INSERTs (NULL keys included), DELETEs (a whole-table
   footprint), ROLLBACKs, and explicit transactions that commit
   concurrently and merge.  After every commit the committed version's
   cached index must equal a fresh build, and indexed queries must equal
   a Volcano full scan in both sessions.  Finally recovery from the WAL
   must answer the same. *)
type hop =
  | Begin of int
  | Commit of int
  | Rollback of int
  | Set_key of int * int * int * int option  (** session, first id, count, key *)
  | Set_val of int * int * int * int  (** session, first id, count, value *)
  | Insert of int * int option  (** session, key *)
  | Delete of int * int  (** session, id *)

let kv_rows = 1000
let kv_chunk = 64

let show_hop = function
  | Begin s -> Printf.sprintf "s%d BEGIN" s
  | Commit s -> Printf.sprintf "s%d COMMIT" s
  | Rollback s -> Printf.sprintf "s%d ROLLBACK" s
  | Set_key (s, id, n, k) ->
      Printf.sprintf "s%d k=%s ids %d+%d" s
        (match k with Some k -> string_of_int k | None -> "NULL") id n
  | Set_val (s, id, n, v) -> Printf.sprintf "s%d v=%d ids %d+%d" s v id n
  | Insert (s, k) ->
      Printf.sprintf "s%d insert k=%s" s (match k with Some k -> string_of_int k | None -> "NULL")
  | Delete (s, id) -> Printf.sprintf "s%d delete id %d" s id

let hop_gen =
  let open QCheck2.Gen in
  let key = frequency [ (5, map Option.some (int_range 0 99)); (1, pure None) ] in
  let sess = int_range 0 1 in
  let id = int_range 0 (kv_rows - 1) in
  frequency
    [
      (2, map (fun s -> Begin s) sess);
      (2, map (fun s -> Commit s) sess);
      (1, map (fun s -> Rollback s) sess);
      (4, map4 (fun s i n k -> Set_key (s, i, n, k)) sess id (int_range 1 3) key);
      (3, map4 (fun s i n v -> Set_val (s, i, n, v)) sess id (int_range 1 20) (int_range 0 99));
      (2, map2 (fun s k -> Insert (s, k)) sess key);
      (1, map2 (fun s i -> Delete (s, i)) sess id);
    ]

(* The seed rows come from a seed rather than a generated list, so
   shrinking a failure keeps a realistic key distribution. *)
let seed_keys seed =
  let rng = Random.State.make [| seed |] in
  List.init kv_rows (fun _ ->
      if Random.State.int rng 7 = 0 then None else Some (Random.State.int rng 100))

let history_gen =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let* hops = list_size (int_range 4 14) hop_gen in
  pure (seed, hops)

let check_committed_index store =
  let v = committed store "t" in
  (match Table.cached_index v 1 with
  | Some idx ->
      if not (same_index idx (Index.Ordered_index.build v 1)) then
        Alcotest.fail "committed version's index differs from a fresh build"
  | None -> ());
  (* Build it if absent, so the next commit has an index to derive from. *)
  ignore (Index.Ordered_index.of_table v 1)

let indexed_queries =
  [ "SELECT id, v FROM t WHERE k = 7";
    "SELECT id, k FROM t WHERE k = 0";
    "SELECT id, k, v FROM t WHERE k >= 10 AND k < 13";
    "SELECT id FROM t WHERE k > 97";
    "SELECT count(*), sum(v) FROM t WHERE k BETWEEN 3 AND 5" ]

let check_queries db =
  List.iter
    (fun sql ->
      let indexed = Tutil.table_rows (Quill.Db.query db sql) in
      Quill.Db.set_options db { Picker.default_options with Picker.enable_index = false };
      let scan = Tutil.table_rows (Quill.Db.query db ~engine:Quill.Db.Volcano sql) in
      Quill.Db.set_options db Picker.default_options;
      Tutil.check_same_unordered ("index vs scan: " ^ sql) scan indexed)
    indexed_queries

let sql_of_hop = function
  | Set_key (_, id, n, k) ->
      Printf.sprintf "UPDATE t SET k = %s WHERE id >= %d AND id < %d"
        (match k with Some k -> string_of_int k | None -> "NULL") id (id + n)
  | Set_val (_, id, n, v) ->
      Printf.sprintf "UPDATE t SET v = v + %d WHERE id >= %d AND id < %d" v id (id + n)
  | Insert (_, k) ->
      Printf.sprintf "INSERT INTO t VALUES (%d, %s, 0)" kv_rows
        (match k with Some k -> string_of_int k | None -> "NULL")
  | Delete (_, id) -> Printf.sprintf "DELETE FROM t WHERE id = %d" id
  | Begin _ -> "BEGIN"
  | Commit _ -> "COMMIT"
  | Rollback _ -> "ROLLBACK"

let session_of = function
  | Begin s | Commit s | Rollback s | Set_key (s, _, _, _) | Set_val (s, _, _, _)
  | Insert (s, _) | Delete (s, _) ->
      s

(* Every history starts with two explicit transactions on distant
   chunks that commit in turn: the first installs a derived index, the
   second merges onto it. *)
let prefix =
  [ Begin 0; Begin 1; Set_val (0, 0, 3, 5); Set_key (1, 6 * kv_chunk, 2, Some 99);
    Commit 0; Commit 1 ]

let replay_history (seed, hops) =
  let dir = Filename.temp_file "quill_index" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
  @@ fun () ->
  with_chunk_rows kv_chunk @@ fun () ->
  let root, _ = Quill.Db.open_durable ~policy:Quill_storage.Wal.Never dir in
  seed_kv root (seed_keys seed);
  let store = Quill.Db.share root in
  let sessions = [| Quill.Db.session store; Quill.Db.session store |] in
  if not (has_index_scan (Quill.Db.plan sessions.(0) (List.hd indexed_queries))) then
    Alcotest.fail "point query does not use the index";
  check_committed_index store;
  let d0 = Metrics.value m_derives and g0 = Metrics.value m_merges in
  let committed () =
    check_committed_index store;
    Array.iter check_queries sessions
  in
  List.iter
    (fun hop ->
      let s = sessions.(session_of hop) in
      let in_txn = Quill.Db.in_transaction s in
      match hop with
      | Begin _ -> if not in_txn then run s "BEGIN"
      | Rollback _ -> if in_txn then run s "ROLLBACK"
      | Commit _ ->
          if in_txn then begin
            (try run s "COMMIT" with Quill.Db.Conflict _ -> ());
            committed ()
          end
      | _ ->
          run s (sql_of_hop hop);
          if not in_txn then committed ())
    (prefix @ hops);
  Array.iter (fun s -> if Quill.Db.in_transaction s then run s "ROLLBACK") sessions;
  if Metrics.value m_derives - d0 < 2 then Alcotest.fail "no index was derived";
  if Metrics.value m_merges - g0 < 1 then Alcotest.fail "no install merged";
  let live = Tutil.table_rows (Quill.Db.query sessions.(0) "SELECT id, k, v FROM t") in
  let recovered, _ = Quill.Db.open_durable ~policy:Quill_storage.Wal.Never dir in
  Tutil.check_same_unordered "recovered rows" live
    (Tutil.table_rows (Quill.Db.query recovered "SELECT id, k, v FROM t"));
  check_queries recovered;
  true

let prop_derivation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"derived index = build; index = scan"
       ~print:(fun (seed, hops) ->
         Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map show_hop hops)))
       history_gen replay_history)

let () =
  Alcotest.run "index"
    [
      ("registry", [ Alcotest.test_case "lifecycle" `Quick test_registry_lifecycle ]);
      ( "picker",
        [
          Alcotest.test_case "access path choice" `Quick test_picker_chooses_index;
          Alcotest.test_case "create errors" `Quick test_create_index_errors;
        ] );
      ( "execution",
        [
          Alcotest.test_case "matches full scan" `Quick test_results_match_full_scan;
          Alcotest.test_case "param bounds" `Quick test_param_bounds;
          Alcotest.test_case "dml staleness" `Quick test_dml_staleness;
          Alcotest.test_case "strings and dates" `Quick test_index_on_strings_and_dates;
          prop_index_vs_scan;
          Alcotest.test_case "sort elision" `Quick test_sort_elision;
        ] );
      ( "commits",
        [
          Alcotest.test_case "index metrics: 1 build, N derives" `Quick test_index_metrics;
          prop_derivation;
        ] );
    ]
