(* The morsel-driven parallel execution subsystem (quill.parallel):
   pool/dispatcher/driver units, partial-aggregate merging, and
   parallel-vs-serial agreement of the engines on scan/filter, grouped
   aggregation, hash joins and the TPC-H analogs.

   The suite must pass regardless of the machine's core count: on a
   single-core box the pool still spawns domains and the morsel dispatcher
   still interleaves, so the correctness surface (merge logic, order
   re-assembly, empty morsels, NULL handling) is fully exercised even when
   there is no speedup to observe. *)

module Value = Quill_storage.Value
module Catalog = Quill_storage.Catalog
module Pool = Quill_parallel.Pool
module Morsel = Quill_parallel.Morsel
module Driver = Quill_parallel.Driver
module Agg_algos = Quill_exec.Agg_algos
module Lplan = Quill_plan.Lplan

(* --- Float-tolerant row comparison -------------------------------------

   Parallel aggregation reorders float additions, so SUM/AVG floats may
   differ in the last bits; everything else must match exactly. *)

let value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> Value.equal a b

let rows_close a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun r1 r2 -> Array.for_all2 value_close r1 r2) a b

(* Unordered variant: sort both sides first.  Polymorphic compare on rows
   is a total order; grouped results have exact (non-float) keys leading,
   so epsilon-sized float jitter cannot flip the sort. *)
let rows_close_unordered a b =
  let norm rows =
    let c = Array.copy rows in
    Array.sort compare c;
    c
  in
  rows_close (norm a) (norm b)

let check_close ~ordered msg a b =
  let ok = if ordered then rows_close a b else rows_close_unordered a b in
  if not ok then
    Alcotest.failf "%s:\nserial:\n%s\nparallel:\n%s" msg (Tutil.rows_to_string a)
      (Tutil.rows_to_string b)

(* --- Pool --------------------------------------------------------------- *)

let test_parse_env () =
  let check s exp = Alcotest.(check (option int)) s exp (Pool.parse_env s) in
  check "4" (Some 4);
  check " 8 " (Some 8);
  check "1" (Some 1);
  check "0" None;
  check "-3" None;
  check "abc" None;
  check "" None;
  check "99999" (Some Pool.max_parallelism)

let test_set_parallelism_clamps () =
  let before = Pool.parallelism () in
  Pool.set_parallelism 0;
  Alcotest.(check int) "clamped up" 1 (Pool.parallelism ());
  Pool.set_parallelism 100_000;
  Alcotest.(check int) "clamped down" Pool.max_parallelism (Pool.parallelism ());
  Pool.set_parallelism 3;
  Alcotest.(check int) "set" 3 (Pool.parallelism ());
  Pool.set_parallelism before

let test_run_covers_all_slots () =
  let workers = 5 in
  let hits = Array.make workers 0 in
  Pool.run ~workers (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (array int)) "each slot once" (Array.make workers 1) hits

let test_run_reraises () =
  Alcotest.check_raises "worker exception surfaces" (Failure "boom") (fun () ->
      Pool.run ~workers:4 (fun i -> if i = 2 then failwith "boom"))

let test_nested_run_is_serial () =
  (* A parallel region reached from inside a worker degrades to inline
     serial execution instead of deadlocking the pool. *)
  let total = Atomic.make 0 in
  Pool.run ~workers:3 (fun _ ->
      Pool.run ~workers:4 (fun _ -> ignore (Atomic.fetch_and_add total 1)));
  Alcotest.(check int) "all inner slots ran" 12 (Atomic.get total)

let test_shutdown_and_revive () =
  Pool.run ~workers:3 (fun _ -> ());
  Alcotest.(check bool) "workers spawned" true (Pool.spawned () >= 2);
  Pool.shutdown ();
  Alcotest.(check int) "all joined" 0 (Pool.spawned ());
  Pool.shutdown ();
  (* idempotent *)
  let n = ref 0 in
  let lock = Mutex.create () in
  Pool.run ~workers:2 (fun _ ->
      Mutex.lock lock;
      incr n;
      Mutex.unlock lock);
  Alcotest.(check int) "pool revived after shutdown" 2 !n;
  Pool.shutdown ()

(* --- Morsel dispatcher --------------------------------------------------- *)

let test_morsel_iter_covers_range () =
  Morsel.with_size 7 (fun () ->
      let n = 100 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      (* Workers only record; Alcotest's formatter is not domain-safe, so
         every check runs here on the calling domain. *)
      let widest = Atomic.make 0 in
      let rec note w =
        let cur = Atomic.get widest in
        if w > cur && not (Atomic.compare_and_set widest cur w) then note w
      in
      Morsel.iter ~workers:4 ~n (fun ~worker:_ ~lo ~hi ->
          note (hi - lo);
          for i = lo to hi - 1 do
            ignore (Atomic.fetch_and_add hits.(i) 1)
          done);
      Alcotest.(check bool) "hi - lo <= morsel" true (Atomic.get widest <= 7);
      Array.iteri
        (fun i c ->
          Alcotest.(check int) (Printf.sprintf "row %d exactly once" i) 1 (Atomic.get c))
        hits)

let test_morsel_iter_empty () =
  Morsel.iter ~workers:4 ~n:0 (fun ~worker:_ ~lo:_ ~hi:_ ->
      Alcotest.fail "no morsels expected for n = 0")

let test_with_size_restores () =
  let before = !Morsel.size in
  (try Morsel.with_size 3 (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "restored after exception" before !Morsel.size

let test_effective_workers () =
  Morsel.with_size 10 (fun () ->
      Alcotest.(check int) "capped by morsel count" 3
        (Morsel.effective_workers ~workers:8 25);
      Alcotest.(check int) "at least one" 1 (Morsel.effective_workers ~workers:8 0);
      Alcotest.(check int) "workers bound" 2 (Morsel.effective_workers ~workers:2 1000))

(* --- Drivers ------------------------------------------------------------- *)

let test_fold_sums () =
  Morsel.with_size 16 (fun () ->
      let n = 10_000 in
      let total =
        Driver.fold ~workers:4 ~n
          ~init:(fun () -> ref 0)
          ~range:(fun acc lo hi ->
            for i = lo to hi - 1 do
              acc := !acc + i
            done)
          ~merge:(fun dst src -> dst := !dst + !src)
      in
      Alcotest.(check int) "sum 0..n-1" (n * (n - 1) / 2) !total)

let test_fold_empty_input () =
  (* The serial path may call [range st 0 0]; it must never see rows or
     merge anything. *)
  let st =
    Driver.fold ~workers:4 ~n:0
      ~init:(fun () -> ref 42)
      ~range:(fun _ lo hi -> if hi > lo then Alcotest.fail "nonempty range on n = 0")
      ~merge:(fun _ _ -> Alcotest.fail "no merge expected")
  in
  Alcotest.(check int) "init state returned" 42 !st

let test_collect_preserves_order () =
  Morsel.with_size 13 (fun () ->
      let n = 2_000 in
      (* Emit only every third index; the result must be in ascending order
         exactly as a serial sweep would produce. *)
      let out =
        Driver.collect ~workers:4 ~n ~dummy:(-1) (fun ~lo ~hi ~emit ->
            for i = lo to hi - 1 do
              if i mod 3 = 0 then emit i
            done)
      in
      let expect = Array.init ((n + 2) / 3) (fun k -> 3 * k) in
      Alcotest.(check (array int)) "row order preserved" expect out)

let test_for_range_scatter () =
  Morsel.with_size 8 (fun () ->
      let n = 500 in
      let out = Array.make n 0 in
      Driver.for_range ~workers:4 ~n (fun i -> out.(i) <- i * i);
      Alcotest.(check bool) "all slots written" true
        (Array.for_all Fun.id (Array.mapi (fun i v -> v = i * i) out)))

(* --- Partial aggregate merging ------------------------------------------- *)

let mk_spec ?(distinct = false) ?arg kind out_dtype =
  { Agg_algos.kind; arg; distinct; out_dtype }

let col0 (row : Value.t array) = row.(0)

let feed_all spec rows =
  let st = Agg_algos.new_state spec in
  List.iter (Agg_algos.feed spec st) rows;
  st

let test_merge_state_matches_serial () =
  (* Feeding rows [a @ b] into one state must equal feeding a and b into
     separate states and merging — including NULL inputs, all-NULL
     partials and empty partials (the empty-morsel case). *)
  let specs =
    [ mk_spec Lplan.Count Value.Int_t;  (* COUNT star *)
      mk_spec ~arg:col0 Lplan.Count Value.Int_t;
      mk_spec ~arg:col0 Lplan.Sum Value.Int_t;
      mk_spec ~arg:col0 Lplan.Avg Value.Float_t;
      mk_spec ~arg:col0 Lplan.Min Value.Int_t;
      mk_spec ~arg:col0 Lplan.Max Value.Int_t ]
  in
  let parts =
    [ [ [| Value.Int 5 |]; [| Value.Null |]; [| Value.Int (-2) |] ];
      [];  (* empty morsel *)
      [ [| Value.Null |]; [| Value.Null |] ];  (* all-NULL morsel *)
      [ [| Value.Int 9 |] ] ]
  in
  let whole = List.concat parts in
  List.iter
    (fun spec ->
      let serial = feed_all spec whole in
      let merged =
        match List.map (feed_all spec) parts with
        | [] -> assert false
        | first :: rest ->
            List.iter (Agg_algos.merge_state spec first) rest;
            first
      in
      Alcotest.check Tutil.value_testable "same finish"
        (Agg_algos.finish spec serial) (Agg_algos.finish spec merged))
    specs

let test_merge_state_rejects_distinct () =
  let spec = mk_spec ~distinct:true ~arg:col0 Lplan.Count Value.Int_t in
  let a = Agg_algos.new_state spec and b = Agg_algos.new_state spec in
  Alcotest.check_raises "DISTINCT cannot merge"
    (Invalid_argument "Agg_algos.merge_state: DISTINCT states cannot be merged")
    (fun () -> Agg_algos.merge_state spec a b)

let test_par_hash_agg_matches_serial () =
  Morsel.with_size 16 (fun () ->
      let rng = Quill_util.Rng.create 11 in
      let rows =
        Array.init 3000 (fun _ ->
            [| (if Quill_util.Rng.int rng 8 = 0 then Value.Null
                else Value.Int (Quill_util.Rng.int rng 7));
               Value.Int (Quill_util.Rng.int rng 1000) |])
      in
      let keys = [ (fun (r : Value.t array) -> r.(0)) ] in
      let arg = Some (fun (r : Value.t array) -> r.(1)) in
      let specs =
        [ mk_spec Lplan.Count Value.Int_t;
          mk_spec ?arg Lplan.Sum Value.Int_t;
          mk_spec ?arg Lplan.Min Value.Int_t ]
      in
      let serial = Quill_util.Vec.to_array (Agg_algos.hash_agg ~keys ~specs rows) in
      let par =
        Quill_util.Vec.to_array (Agg_algos.par_hash_agg ~workers:4 ~keys ~specs rows)
      in
      check_close ~ordered:false "par_hash_agg" serial par)

(* --- Engine-level agreement: parallel == serial -------------------------- *)

(* Run [sql] serially on Volcano (the never-parallel reference) and at
   parallelism [w] on the vectorized and compiled engines, with a small
   morsel size so modest tables still split into many morsels (empty and
   partial morsels included). *)
let check_query_parallel ?(morsel = 64) ?(ordered = false) db sql =
  Quill.Db.set_parallelism db 1;
  let reference = Tutil.table_rows (Quill.Db.query db ~engine:Quill.Db.Volcano sql) in
  List.iter
    (fun w ->
      Quill.Db.set_parallelism db w;
      Morsel.with_size morsel (fun () ->
          List.iter
            (fun engine ->
              let got = Tutil.table_rows (Quill.Db.query db ~engine sql) in
              check_close ~ordered
                (Printf.sprintf "%s @ parallelism %d (%s)" sql w
                   (Quill.Db.engine_name engine))
                reference got)
            [ Quill.Db.Vectorized; Quill.Db.Compiled ]))
    [ 1; 2; Pool.hardware_parallelism () + 2 ];
  Quill.Db.set_parallelism db 1

let test_parallel_scan_filter () =
  let db = Tutil.random_db ~seed:31 ~rows:5_000 in
  check_query_parallel db "SELECT id, k, v FROM r WHERE k > 4 AND v < 60.0";
  check_query_parallel ~ordered:true db
    "SELECT id, tag FROM r WHERE tag LIKE 'a%' ORDER BY id";
  (* Selective-to-empty result, exercising all-empty morsel chunks. *)
  check_query_parallel db "SELECT id FROM r WHERE k > 1000"

let test_parallel_grouped_agg () =
  let db = Tutil.random_db ~seed:32 ~rows:5_000 in
  (* NULL keys and NULL agg inputs; unordered group emission. *)
  check_query_parallel db
    "SELECT k, count(*), count(v), sum(id), min(v), max(v), avg(v) FROM r GROUP BY k";
  check_query_parallel ~ordered:true db
    "SELECT k, count(*) AS n FROM r WHERE dt >= DATE '1994-09-01' GROUP BY k ORDER BY k"

let test_parallel_global_agg () =
  let db = Quill.Db.create () in
  Catalog.add (Quill.Db.catalog db)
    (Quill_workload.Micro.grouped_table ~rows:50_000 ~groups:100 ~seed:5 ());
  check_query_parallel db
    "SELECT count(*), sum(v), min(v), max(v), avg(v) FROM grouped WHERE v > 250";
  (* Empty input: a global aggregate still emits exactly one row. *)
  check_query_parallel db "SELECT count(*), sum(v), min(v) FROM grouped WHERE v > 99999"

let test_parallel_hash_join () =
  let db = Quill.Db.create () in
  let build, probe = Quill_workload.Micro.keyed_pair ~build_rows:500 ~probe_rows:8_000 ~seed:6 () in
  Catalog.add (Quill.Db.catalog db) build;
  Catalog.add (Quill.Db.catalog db) probe;
  check_query_parallel db
    "SELECT b_k, sum(p_payload) FROM build_side JOIN probe_side ON b_k = p_k GROUP BY b_k"
    ~morsel:128;
  check_query_parallel ~ordered:true db
    "SELECT p_k, b_payload FROM probe_side LEFT JOIN build_side ON p_k = b_k ORDER BY p_k, b_payload"

let test_parallel_tpch () =
  let db = Quill.Db.create () in
  Quill_workload.Tpch.load (Quill.Db.catalog db) ~sf:0.01 ~seed:7;
  List.iter
    (fun (name, sql) ->
      ignore name;
      check_query_parallel ~morsel:97 db sql)
    Quill_workload.Tpch.queries

let test_db_close_revives () =
  let db = Tutil.random_db ~seed:33 ~rows:2_000 in
  Quill.Db.set_parallelism db 4;
  let sql = "SELECT k, count(*) FROM r GROUP BY k" in
  let a =
    Morsel.with_size 32 (fun () -> Tutil.table_rows (Quill.Db.query db sql))
  in
  Quill.Db.close db;
  Alcotest.(check int) "pool drained on close" 0 (Pool.spawned ());
  (* A query after close lazily revives the pool. *)
  let b =
    Morsel.with_size 32 (fun () -> Tutil.table_rows (Quill.Db.query db sql))
  in
  check_close ~ordered:false "same result after close/revive" a b;
  Quill.Db.set_parallelism db 1;
  Quill.Db.close db

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "parse_env" `Quick test_parse_env;
          Alcotest.test_case "set_parallelism clamps" `Quick test_set_parallelism_clamps;
          Alcotest.test_case "run covers all slots" `Quick test_run_covers_all_slots;
          Alcotest.test_case "run re-raises" `Quick test_run_reraises;
          Alcotest.test_case "nested run is serial" `Quick test_nested_run_is_serial;
          Alcotest.test_case "shutdown and revive" `Quick test_shutdown_and_revive ] );
      ( "morsel",
        [ Alcotest.test_case "iter covers range once" `Quick test_morsel_iter_covers_range;
          Alcotest.test_case "iter on empty range" `Quick test_morsel_iter_empty;
          Alcotest.test_case "with_size restores" `Quick test_with_size_restores;
          Alcotest.test_case "effective_workers" `Quick test_effective_workers ] );
      ( "driver",
        [ Alcotest.test_case "fold sums" `Quick test_fold_sums;
          Alcotest.test_case "fold empty input" `Quick test_fold_empty_input;
          Alcotest.test_case "collect preserves order" `Quick test_collect_preserves_order;
          Alcotest.test_case "for_range scatter" `Quick test_for_range_scatter ] );
      ( "agg merge",
        [ Alcotest.test_case "merge matches serial" `Quick test_merge_state_matches_serial;
          Alcotest.test_case "merge rejects DISTINCT" `Quick test_merge_state_rejects_distinct;
          Alcotest.test_case "par_hash_agg" `Quick test_par_hash_agg_matches_serial ] );
      ( "engines",
        [ Alcotest.test_case "scan+filter" `Quick test_parallel_scan_filter;
          Alcotest.test_case "grouped agg" `Quick test_parallel_grouped_agg;
          Alcotest.test_case "global agg" `Quick test_parallel_global_agg;
          Alcotest.test_case "hash join" `Quick test_parallel_hash_join;
          Alcotest.test_case "tpch analogs" `Quick test_parallel_tpch;
          Alcotest.test_case "db close revives pool" `Quick test_db_close_revives ] ) ]
