(* The compiled query engine: data-centric produce/consume staging.

   [compile] walks the physical plan ONCE and stages it into a network of
   OCaml closures, HyPer-style: each pipeline (scan up to the next
   pipeline breaker) becomes a single fused loop in which a row flows
   through filter, projection and probe logic without operator dispatch.
   Scans over columnar tables evaluate qualifying predicates directly on
   the typed arrays (see {!Col_pred}) and materialize only the columns the
   pipeline actually reads.

   The returned [compiled] value can be executed many times with different
   parameter vectors; the staging cost is paid once.  That separation is
   what the tiering experiment (E5) measures. *)

module Value = Quill_storage.Value
module Table = Quill_storage.Table
module Catalog = Quill_storage.Catalog
module Column = Quill_storage.Column
module Schema = Quill_storage.Schema
module Bitset = Quill_util.Bitset
module Vec = Quill_util.Vec
module Bexpr = Quill_plan.Bexpr
module Lplan = Quill_plan.Lplan
module Physical = Quill_optimizer.Physical
module Governor = Quill_exec.Governor
module Join_algos = Quill_exec.Join_algos
module Agg_algos = Quill_exec.Agg_algos
module Sort_algos = Quill_exec.Sort_algos
module Topk = Quill_exec.Topk
module Spool = Quill_exec.Spool
module Pool = Quill_parallel.Pool
module Pdriver = Quill_parallel.Driver
module IntSet = Set.Make (Int)

exception Limit_reached

(* Ablation switches for the fusion benchmarks (E14): disabling them falls
   back to the generic staged paths. *)
let enable_scan_agg_fusion = ref true
let enable_col_pred = ref true

type compiled = Governor.t -> Value.t array -> Value.t array Vec.t
(** [run gov params] executes the staged plan under resource governor
    [gov] and returns the result rows.  Pass {!Governor.none} for an
    ungoverned run. *)

type consume = Value.t array -> unit

(* The parameter vector and governor of the current execution, read by
   staged closures through these cells. *)
type stage_ctx = {
  catalog : Catalog.t;
  params : Value.t array ref;
  gov : Governor.t ref;
}

let cols_of_expr e = IntSet.of_list (Bexpr.cols e)

let compile_expr sctx e =
  let f = Expr_compile.compile e in
  fun row -> f !(sctx.params) row

let compile_pred sctx e =
  let f = Expr_compile.compile_pred e in
  fun row -> f !(sctx.params) row

(* Scan->aggregate fusion: a global (ungrouped) aggregate directly over a
   columnar scan compiles to one unboxed loop over the typed arrays — the
   "hand-written TPC-H Q6 loop" that data-centric compilation is known
   for.  The attempt runs at execution time (columns and parameter values
   in hand); [None] means the caller uses the general staged path. *)

(* The mergeable unboxed accumulators live in {!Agg_fuse}, shared with
   the global-aggregate stencil so both compiled tiers run the identical
   fused loop. *)

(* Parallelism comes from the shared morsel-driven pool ({!Quill_parallel}):
   the session goal is [Pool.parallelism ()] (set via [Db.set_parallelism]
   or QUILL_DOMAINS) and defaults to 1, because parallel float aggregation
   reorders additions and can differ in the last bits from the sequential
   plan (see experiments E13/E15).  The drivers degrade to the serial loop
   for small inputs and nested parallel regions. *)

let fuse_scan_agg sctx ~table ~filter ~(aggs : (Lplan.agg * string) list) () :
    (Value.t array -> unit) -> (unit -> unit) option =
 fun consume ->
  let t = Catalog.find_exn sctx.catalog table in
  let cols = Table.columnar t in
  let params = !(sctx.params) in
  let gov = !(sctx.gov) in
  let n = Table.row_count t in
  let pred =
    match filter with
    | None -> Some (fun _ -> true)
    | Some f -> Col_pred.compile cols params f
  in
  match pred with
  | None -> None
  | Some pred ->
      let steps =
        List.map (fun ((a : Lplan.agg), _) -> Agg_fuse.mk_step cols params a) aggs
      in
      if List.exists Option.is_none steps then None
      else begin
        let steps = Array.of_list (List.map Option.get steps) in
        let nsteps = Array.length steps in
        let run_range accs lo hi =
          for i = lo to hi - 1 do
            Governor.tick gov;
            if pred i then
              for j = 0 to nsteps - 1 do
                steps.(j).Agg_fuse.step accs.(j) i
              done
          done
        in
        Some
          (fun () ->
            (* Each pool worker aggregates the morsels it wins into private
               accumulators (all shared state is read-only); partials merge
               in worker order at the end. *)
            let accs =
              Pdriver.fold ~workers:(Pool.parallelism ()) ~n
                ~init:(fun () -> Array.init nsteps (fun _ -> Agg_fuse.new_acc ()))
                ~range:run_range
                ~merge:(fun dst src ->
                  Array.iteri (fun j acc -> steps.(j).Agg_fuse.merge dst.(j) acc) src)
            in
            consume (Array.mapi (fun j acc -> steps.(j).Agg_fuse.finish acc) accs))
      end

(* [stage_col_scan_ranges sctx ~table ~filter ~arity ~needed] stages a
   columnar scan as a range-runnable producer: the returned thunk is
   invoked once per execution (parameters in hand) and yields
   [(n, run)] where [run lo hi consume] streams the qualifying rows of
   [\[lo, hi)] in ascending row order.  [run] touches only read-only
   shared state, so disjoint ranges may execute on different domains —
   this is the morsel substrate for parallel scan/filter, parallel
   grouped aggregation and the parallel hash-join probe. *)
let stage_col_scan_ranges sctx ~table ~filter ~arity ~needed =
  let needed =
    IntSet.union needed
      (match filter with None -> IntSet.empty | Some f -> cols_of_expr f)
  in
  let needed_list = IntSet.elements (IntSet.filter (fun c -> c < arity) needed) in
  let row_pred = Option.map (compile_pred sctx) filter in
  let t = Catalog.find_exn sctx.catalog table in
  fun () ->
    let gov = !(sctx.gov) in
    let cols = Table.columnar t in
    let n = Table.row_count t in
    (* Per-execution predicate specialization: parameters are known now,
       so constant-vs-column shapes compile to unboxed tests. *)
    let fast_pred =
      if !enable_col_pred then
        Option.bind filter (fun f -> Col_pred.compile cols !(sctx.params) f)
      else None
    in
    let fetchers =
      List.map (fun c -> fun (row : Value.t array) i -> row.(c) <- Column.get cols.(c) i)
        needed_list
    in
    let build_row i =
      let row = Array.make arity Value.Null in
      List.iter (fun f -> f row i) fetchers;
      row
    in
    let run lo hi (consume : consume) =
      match (fast_pred, row_pred) with
      | Some p, _ ->
          for i = lo to hi - 1 do
            Governor.tick gov;
            if p i then consume (build_row i)
          done
      | None, Some p ->
          for i = lo to hi - 1 do
            Governor.tick gov;
            let row = build_row i in
            if p row then consume row
          done
      | None, None ->
          for i = lo to hi - 1 do
            Governor.tick gov;
            consume (build_row i)
          done
    in
    (n, run)

(* [produce sctx plan ~needed consume] stages the subtree rooted at [plan];
   the returned thunk streams every output row into [consume]. [needed]
   lists the output columns the consumer will read — scans skip the rest. *)
let rec produce sctx (plan : Physical.t) ~needed (consume : consume) : unit -> unit =
  match plan with
  | Physical.One_row -> fun () -> consume [||]
  | Physical.Scan { table; layout; filter; schema; _ } ->
      let t = Catalog.find_exn sctx.catalog table in
      let arity = Schema.arity schema in
      let needed =
        IntSet.union needed
          (match filter with None -> IntSet.empty | Some f -> cols_of_expr f)
      in
      (match layout with
      | Physical.Row_layout ->
          let pred = Option.map (compile_pred sctx) filter in
          fun () ->
            let gov = !(sctx.gov) in
            let n = Table.row_count t in
            (match pred with
            | None ->
                for i = 0 to n - 1 do
                  Governor.tick gov;
                  consume (Array.copy (Table.get_row t i))
                done
            | Some p ->
                for i = 0 to n - 1 do
                  Governor.tick gov;
                  let row = Table.get_row t i in
                  if p row then consume (Array.copy row)
                done)
      | Physical.Col_layout ->
          let staged = stage_col_scan_ranges sctx ~table ~filter ~arity ~needed in
          fun () ->
            let n, run = staged () in
            run 0 n consume)
  | Physical.Index_scan { table; col; lo; hi; residual; _ } ->
      let t = Catalog.find_exn sctx.catalog table in
      let residual_p = Option.map (compile_pred sctx) residual in
      fun () ->
        let params = !(sctx.params) in
        let lo = Quill_exec.Index_access.eval_bound ~params lo in
        let hi = Quill_exec.Index_access.eval_bound ~params hi in
        let ids = Quill_exec.Index_access.rowids t ~col ~lo ~hi in
        let gov = !(sctx.gov) in
        List.iter
          (fun i ->
            Governor.tick gov;
            let row = Array.copy (Table.get_row t i) in
            match residual_p with
            | Some p when not (p row) -> ()
            | _ -> consume row)
          ids
  | Physical.Filter (pred, input, _) ->
      let p = compile_pred sctx pred in
      let needed_in = IntSet.union needed (cols_of_expr pred) in
      produce sctx input ~needed:needed_in (fun row -> if p row then consume row)
  | Physical.Project (items, input, _) ->
      let fns = Array.of_list (List.map (fun (e, _) -> compile_expr sctx e) items) in
      let needed_in =
        List.fold_left (fun acc (e, _) -> IntSet.union acc (cols_of_expr e)) IntSet.empty items
      in
      let n = Array.length fns in
      produce sctx input ~needed:needed_in (fun row ->
          let out = Array.make n Value.Null in
          for i = 0 to n - 1 do
            out.(i) <- fns.(i) row
          done;
          consume out)
  | Physical.Join { algo; kind; keys; residual; build_left; left; right; _ } ->
      let la = Schema.arity (Physical.schema_of left) in
      let mode =
        match kind with
        | Lplan.Inner -> Join_algos.Inner
        | Lplan.Left_outer -> Join_algos.Left_outer
      in
      let right_arity = Schema.arity (Physical.schema_of right) in
      let cond_cols =
        match residual with None -> IntSet.empty | Some e -> cols_of_expr e
      in
      let key_cols =
        List.fold_left
          (fun acc (l, r) -> IntSet.add l (IntSet.add (r + la) acc))
          IntSet.empty keys
      in
      let all = IntSet.union needed (IntSet.union cond_cols key_cols) in
      let needed_l = IntSet.filter (fun i -> i < la) all in
      let needed_r = IntSet.map (fun i -> i - la) (IntSet.filter (fun i -> i >= la) all) in
      (match algo with
      | Physical.Hash_join ->
          (* Streaming probe: the probe side pipeline stays fused. *)
          let bkeys = List.map (if build_left then fst else snd) keys in
          let pkeys = List.map (if build_left then snd else fst) keys in
          let residual_p = Option.map (compile_pred sctx) residual in
          let table :
              (int, (Value.t list * Value.t array) list ref) Hashtbl.t =
            Hashtbl.create 1024
          in
          (* The build pipeline is staged once against a dispatching sink:
             each execution points it at the in-memory table (fast path)
             or a spillable spool (out-of-core path). *)
          let build_sink : consume ref = ref ignore in
          let build_consume (row : Value.t array) =
            match Join_algos.key_of bkeys row with
            | None -> ()
            | Some k ->
                Governor.charge_row ~overhead:48 !(sctx.gov) row;
                let h = Join_algos.hash_key k in
                (match Hashtbl.find_opt table h with
                | Some l -> l := (k, row) :: !l
                | None -> Hashtbl.add table h (ref [ (k, row) ]))
          in
          let build_thunk =
            if build_left then
              produce sctx left ~needed:needed_l (fun row -> !build_sink row)
            else produce sctx right ~needed:needed_r (fun row -> !build_sink row)
          in
          (* For a left-outer join the picker pins build_left=false, so
             the probe side is the preserved side and padding can happen
             inline while the pipeline stays fused. *)
          let padding = Array.make right_arity Value.Null in
          (* [probe_row] only reads the build table and emits via its
             argument, so probe work over disjoint row ranges can run on
             different domains (Hashtbl reads don't mutate). *)
          let probe_row ~(on_emit : consume) (prow : Value.t array) =
            let emitted = ref false in
            let emit l r =
              let row = Join_algos.concat_rows l r in
              match residual_p with
              | Some p when not (p row) -> ()
              | _ ->
                  emitted := true;
                  on_emit row
            in
            (match Join_algos.key_of pkeys prow with
            | None -> ()
            | Some k -> (
                match Hashtbl.find_opt table (Join_algos.hash_key k) with
                | None -> ()
                | Some bucket ->
                    List.iter
                      (fun (bk, brow) ->
                        if Join_algos.keys_equal bk k then
                          if build_left then emit brow prow else emit prow brow)
                      !bucket));
            if mode = Join_algos.Left_outer && not !emitted then
              on_emit (Join_algos.concat_rows prow padding)
          in
          let probe_plan = if build_left then right else left in
          let probe_needed = if build_left then needed_r else needed_l in
          (* Morsel-parallel probe when the probe side is a bare columnar
             scan: serial build, workers probe the shared read-only table
             over scan morsels, output re-assembled in row order and
             replayed into the (serial) downstream consumer. *)
          let par_probe =
            match probe_plan with
            | Physical.Scan { table = ptable; layout = Physical.Col_layout; filter; schema; _ }
              ->
                Some
                  (stage_col_scan_ranges sctx ~table:ptable ~filter
                     ~arity:(Schema.arity schema) ~needed:probe_needed)
            | _ -> None
          in
          let probe_thunk =
            match par_probe with
            | Some staged ->
                fun () ->
                  let n, run = staged () in
                  let workers = Pool.parallelism () in
                  if Pdriver.serial ~workers n then
                    (* Stay streaming: no point materializing the output
                       just to replay it. *)
                    run 0 n (probe_row ~on_emit:consume)
                  else begin
                    let rows =
                      Pdriver.collect ~workers ~n ~dummy:[||] (fun ~lo ~hi ~emit ->
                          run lo hi (probe_row ~on_emit:emit))
                    in
                    Array.iter consume rows
                  end
            | None -> produce sctx probe_plan ~needed:probe_needed (probe_row ~on_emit:consume)
          in
          (* A second, serial staging of the probe pipeline against a
             dispatching sink; only the out-of-core path runs it. *)
          let probe_sink : consume ref = ref ignore in
          let probe_spool_thunk =
            produce sctx probe_plan ~needed:probe_needed (fun row -> !probe_sink row)
          in
          fun () ->
            let gov = !(sctx.gov) in
            if Governor.can_spill gov then begin
              let bsp = Spool.create ~name:"join-input" gov in
              build_sink := Spool.add bsp;
              build_thunk ();
              let psp = Spool.create ~name:"join-input" gov in
              probe_sink := Spool.add psp;
              probe_spool_thunk ();
              let bset = Spool.finish bsp and pset = Spool.finish psp in
              let lset, rset = if build_left then (bset, pset) else (pset, bset) in
              Join_algos.spill_hash_join ~gov ~mode ~keys ~residual:residual_p
                ~build_left ~right_arity ~emit:consume lset rset
            end
            else begin
              build_sink := build_consume;
              Hashtbl.reset table;
              build_thunk ();
              probe_thunk ()
            end
      | Physical.Merge_join | Physical.Block_nl ->
          let lbuf = Vec.create ~dummy:[||] and rbuf = Vec.create ~dummy:[||] in
          let buffer buf row =
            Governor.charge_row !(sctx.gov) row;
            Vec.push buf row
          in
          let lthunk = produce sctx left ~needed:needed_l (buffer lbuf) in
          let rthunk = produce sctx right ~needed:needed_r (buffer rbuf) in
          let residual_p = Option.map (compile_pred sctx) residual in
          fun () ->
            Vec.clear lbuf;
            Vec.clear rbuf;
            lthunk ();
            rthunk ();
            let gov = !(sctx.gov) in
            let out =
              match algo with
              | Physical.Merge_join ->
                  Join_algos.merge_join ~gov ~mode ~right_arity ~keys ~residual:residual_p
                    (Vec.to_array lbuf) (Vec.to_array rbuf)
              | _ ->
                  Join_algos.block_nl_join ~gov ~mode ~right_arity ~pred:residual_p
                    (Vec.to_array lbuf) (Vec.to_array rbuf)
            in
            Vec.iter consume out)
  | Physical.Aggregate { algo; keys; aggs; input; _ } ->
      (* Global aggregate directly over a columnar scan: try the fully
         fused unboxed loop first; it decides per execution (it needs the
         parameter values) and falls back to the general staged path. *)
      let fused_attempt =
        match (algo, keys, input) with
        | Physical.Hash_agg, [],
          Physical.Scan { table; layout = Physical.Col_layout; filter; _ }
          when !enable_scan_agg_fusion
               && List.for_all (fun ((a : Lplan.agg), _) -> not a.Lplan.distinct) aggs ->
            Some (fun () -> fuse_scan_agg sctx ~table ~filter ~aggs () consume)
        | _ -> None
      in
      let general =
      let key_fns = List.map (fun (e, _) -> compile_expr sctx e) keys in
      let specs =
        List.map
          (fun (a, _) ->
            {
              Agg_algos.kind = a.Lplan.kind;
              arg = Option.map (compile_expr sctx) a.Lplan.arg;
              distinct = a.Lplan.distinct;
              out_dtype = a.Lplan.out_dtype;
            })
          aggs
      in
      let needed_in =
        List.fold_left (fun acc (e, _) -> IntSet.union acc (cols_of_expr e)) IntSet.empty keys
      in
      let needed_in =
        List.fold_left
          (fun acc (a, _) ->
            match a.Lplan.arg with
            | Some e -> IntSet.union acc (cols_of_expr e)
            | None -> acc)
          needed_in aggs
      in
      (match algo with
      | Physical.Hash_agg ->
          (* Streaming upsert into the group table: the input pipeline is
             fused with aggregation. *)
          let nspecs = List.length specs in
          let feed_into groups order row =
            let gov = !(sctx.gov) in
            Governor.tick gov;
            let k = List.map (fun f -> f row) key_fns in
            let states =
              match Hashtbl.find_opt groups k with
              | Some s -> s
              | None ->
                  Governor.charge gov (Agg_algos.group_bytes k nspecs);
                  let s = List.map Agg_algos.new_state specs in
                  Hashtbl.add groups k s;
                  Vec.push order k;
                  s
            in
            List.iter2 (fun spec st -> Agg_algos.feed spec st row) specs states
          in
          let emit_result (groups : (Value.t list, Agg_algos.state list) Hashtbl.t)
              order =
            if key_fns = [] && Vec.length order = 0 then
              consume
                (Agg_algos.output_row [] (List.map Agg_algos.new_state specs) specs)
            else
              Vec.iter
                (fun k -> consume (Agg_algos.output_row k (Hashtbl.find groups k) specs))
                order
          in
          (* Morsel-parallel grouped aggregation when the input is a bare
             columnar scan and no aggregate is DISTINCT: each worker
             upserts the morsels it wins into a private hash table, then
             partials merge group-wise ([Agg_algos.merge_state]).  Group
             emission order is first-seen order of the merged table, which
             under parallelism depends on morsel scheduling — unordered,
             as SQL grouping output is. *)
          let par_input =
            match input with
            | Physical.Scan { table; layout = Physical.Col_layout; filter; schema; _ }
              when List.for_all (fun (s : Agg_algos.spec) -> not s.distinct) specs ->
                Some
                  (stage_col_scan_ranges sctx ~table ~filter
                     ~arity:(Schema.arity schema) ~needed:needed_in)
            | _ -> None
          in
          (match par_input with
          | Some staged ->
              fun () ->
                let n, run = staged () in
                let gov = !(sctx.gov) in
                if Governor.can_spill gov then begin
                  (* Each worker feeds a private spillable builder (its
                     spill hook is domain-owned, so workers dump their own
                     partial tables); runs pool at merge and the final
                     merge is key-based. *)
                  let b =
                    Pdriver.fold ~workers:(Pool.parallelism ()) ~n
                      ~init:(fun () ->
                        Agg_algos.create_builder ~gov ~keys:key_fns ~specs ())
                      ~range:(fun b lo hi -> run lo hi (Agg_algos.feed_builder b))
                      ~merge:Agg_algos.merge_builders
                  in
                  Vec.iter consume (Agg_algos.finish_builder b)
                end
                else begin
                  let groups, order =
                    Pdriver.fold ~workers:(Pool.parallelism ()) ~n
                      ~init:(fun () ->
                        ( (Hashtbl.create 64
                            : (Value.t list, Agg_algos.state list) Hashtbl.t),
                          Vec.create ~dummy:([] : Value.t list) ))
                      ~range:(fun (g, o) lo hi -> run lo hi (feed_into g o))
                      ~merge:(Agg_algos.merge_group_tables ~specs)
                  in
                  emit_result groups order
                end
          | None ->
              let groups : (Value.t list, Agg_algos.state list) Hashtbl.t =
                Hashtbl.create 64
              in
              let order = Vec.create ~dummy:[] in
              let agg_sink : consume ref = ref ignore in
              let child =
                produce sctx input ~needed:needed_in (fun row -> !agg_sink row)
              in
              fun () ->
                let gov = !(sctx.gov) in
                if Governor.can_spill gov then begin
                  let b = Agg_algos.create_builder ~gov ~keys:key_fns ~specs () in
                  agg_sink := Agg_algos.feed_builder b;
                  child ();
                  Vec.iter consume (Agg_algos.finish_builder b)
                end
                else begin
                  agg_sink := feed_into groups order;
                  Hashtbl.reset groups;
                  Vec.clear order;
                  child ();
                  emit_result groups order
                end)
      | Physical.Sort_agg ->
          let buf = Vec.create ~dummy:[||] in
          let sink : consume ref = ref ignore in
          let child =
            produce sctx input ~needed:needed_in (fun row -> !sink row)
          in
          fun () ->
            let gov = !(sctx.gov) in
            if Governor.can_spill gov then begin
              let b = Agg_algos.create_builder ~gov ~keys:key_fns ~specs () in
              sink := Agg_algos.feed_builder b;
              child ();
              Vec.iter consume (Agg_algos.finish_builder ~ordered:true b)
            end
            else begin
              sink :=
                (fun row ->
                  Governor.charge_row gov row;
                  Vec.push buf row);
              Vec.clear buf;
              child ();
              Vec.iter consume
                (Agg_algos.sort_agg ~gov ~keys:key_fns ~specs (Vec.to_array buf))
            end)
      in
      (match fused_attempt with
      | None -> general
      | Some attempt ->
          fun () -> (match attempt () with Some run -> run () | None -> general ()))
  | Physical.Window { specs; input; _ } ->
      let in_arity = Schema.arity (Physical.schema_of input) in
      let all = IntSet.of_list (List.init in_arity Fun.id) in
      let wspecs =
        List.map
          (fun ((w : Lplan.wspec), _) ->
            {
              Quill_exec.Window_algos.kind = w.Lplan.wkind;
              arg = Option.map (compile_expr sctx) w.Lplan.warg;
              partition = List.map (compile_expr sctx) w.Lplan.partition;
              order = List.map (fun (e, d) -> (compile_expr sctx e, d)) w.Lplan.worder;
              out_dtype = w.Lplan.w_dtype;
            })
          specs
      in
      let buf = Vec.create ~dummy:[||] in
      let child =
        produce sctx input ~needed:all (fun row ->
            Governor.charge_row !(sctx.gov) row;
            Vec.push buf row)
      in
      fun () ->
        Vec.clear buf;
        child ();
        Array.iter consume
          (Quill_exec.Window_algos.run ~specs:wspecs (Vec.to_array buf))
  | Physical.Sort { keys; input; _ } ->
      let needed_in = IntSet.union needed (IntSet.of_list (List.map fst keys)) in
      let buf = Vec.create ~dummy:[||] in
      let sink : consume ref = ref ignore in
      let child = produce sctx input ~needed:needed_in (fun row -> !sink row) in
      fun () ->
        let gov = !(sctx.gov) in
        if Governor.can_spill gov then begin
          (* Out-of-core: a keyed spool is an external merge sort. *)
          let sp = Spool.create ~keys ~name:"sort" gov in
          sink := Spool.add sp;
          child ();
          Spool.consume (Spool.finish sp) consume
        end
        else begin
          sink :=
            (fun row ->
              Governor.charge_row gov row;
              Vec.push buf row);
          Vec.clear buf;
          child ();
          let rows = Vec.to_array buf in
          Sort_algos.sort_rows keys rows;
          Array.iter consume rows
        end
  | Physical.Top_k { k; offset; keys; input; _ } ->
      let needed_in = IntSet.union needed (IntSet.of_list (List.map fst keys)) in
      let cmp = Sort_algos.row_compare keys in
      let heap = ref (Topk.create ~cmp ~k:(k + offset) ~dummy:[||] ()) in
      let child = produce sctx input ~needed:needed_in (fun row -> Topk.offer !heap row) in
      fun () ->
        heap :=
          Topk.create ~gov:!(sctx.gov) ~bytes:Governor.row_bytes ~keys ~cmp
            ~k:(k + offset) ~dummy:[||] ();
        child ();
        let sorted = Topk.finish !heap in
        for i = offset to Array.length sorted - 1 do
          consume sorted.(i)
        done
  | Physical.Distinct (input, _) ->
      (* Streaming dedup keeps the pipeline fused. *)
      let seen : (Value.t list, unit) Hashtbl.t = Hashtbl.create 256 in
      let child =
        produce sctx input ~needed (fun row ->
            let k = Array.to_list row in
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              Governor.charge_row ~overhead:48 !(sctx.gov) row;
              consume row
            end)
      in
      fun () ->
        Hashtbl.reset seen;
        child ()
  | Physical.Limit { n; offset; input; _ } ->
      let emitted = ref 0 and skipped = ref 0 in
      let child =
        produce sctx input ~needed (fun row ->
            if !skipped < offset then incr skipped
            else begin
              (match n with
              | Some n when !emitted >= n -> raise Limit_reached
              | _ -> ());
              incr emitted;
              consume row;
              match n with
              | Some n when !emitted >= n -> raise Limit_reached
              | _ -> ()
            end)
      in
      fun () ->
        emitted := 0;
        skipped := 0;
        (try child () with Limit_reached -> ())

(* Stagings performed and time spent staging, fed to the registry so the
   managed-runtime economics (E5) are observable in production. *)
let m_compilations = Quill_obs.Metrics.counter "quill.codegen.compilations"
let h_compile_seconds = Quill_obs.Metrics.histogram "quill.codegen.seconds"

(** [compile catalog plan] stages [plan] once; the result can be run many
    times with different parameters.  [indexes] is accepted for callers
    that thread a session registry and is not consulted: index scans read
    the index cached on the table version. *)
let compile ?indexes:(_ : Quill_storage.Index.Registry.t option) catalog (plan : Physical.t) :
    compiled =
  Quill_obs.Trace.with_span ~cat:"compile" "codegen" (fun () ->
      let (f : compiled), dt =
        Quill_util.Timer.time (fun () ->
            let sctx = { catalog; params = ref [||]; gov = ref Governor.none } in
            let out = Vec.create ~dummy:[||] in
            let out_arity = Schema.arity (Physical.schema_of plan) in
            let root =
              produce sctx plan
                ~needed:(IntSet.of_list (List.init out_arity Fun.id))
                (fun row ->
                  Governor.charge_result !(sctx.gov) row;
                  Vec.push out row)
            in
            fun gov params ->
              sctx.params := params;
              sctx.gov := gov;
              Vec.clear out;
              root ();
              (* Hand the caller a fresh vector; [out] is reused across
                 runs. *)
              let result = Vec.create ~dummy:[||] in
              Vec.iter (fun r -> Vec.push result r) out;
              result)
      in
      Quill_obs.Metrics.incr m_compilations;
      Quill_obs.Metrics.observe h_compile_seconds dt;
      f)

(* --- Tiered compilation ------------------------------------------------- *)

(** Which compiler produced a [compiled] value: the copy-and-patch
    stencil tier ({!Stencil_bind}, pre-composed drivers patched with
    per-query constants) or this module's full staging pass. *)
type tier = Tier_stencil | Tier_full

let tier_name = function Tier_stencil -> "stencil" | Tier_full -> "full"

(** [compile_tiered catalog plan] tries the cheap stencil tier first and
    falls back to full staging.  Covered shapes compile orders of
    magnitude faster (E23 measures the ratio), which is what makes
    compilation affordable for one-shot queries. *)
let compile_tiered catalog (plan : Physical.t) : compiled * tier =
  match Stencil_bind.bind catalog plan with
  | Some f ->
      (* Stencil drivers are pre-composed and cannot register spill
         hooks; executions under a spill-capable governor lazily fall
         back to the fully staged compile, which can. *)
      let full = lazy (compile catalog plan) in
      let dispatch gov params =
        if Governor.can_spill gov then (Lazy.force full) gov params
        else f gov params
      in
      (dispatch, Tier_stencil)
  | None -> (compile catalog plan, Tier_full)

(** [run ctx plan] one-shot compile-and-execute.  The fused loops carry no
    per-operator hooks (use the interpreted tiers for operator-level
    feedback), but the root operator's row count and wall time are
    recorded when a profile is attached, so EXPLAIN ANALYZE and the
    differential tests can cross-check any engine. *)
let run (ctx : Quill_exec.Exec_ctx.t) plan =
  let f, _tier =
    compile_tiered ctx.Quill_exec.Exec_ctx.catalog plan
  in
  let gov = ctx.Quill_exec.Exec_ctx.governor in
  match ctx.Quill_exec.Exec_ctx.profile with
  | None -> f gov ctx.Quill_exec.Exec_ctx.params
  | Some p ->
      let rows, dt =
        Quill_util.Timer.time (fun () -> f gov ctx.Quill_exec.Exec_ctx.params)
      in
      Quill_exec.Profile.add p 0 (Vec.length rows);
      Quill_exec.Profile.add_time p 0 dt;
      rows
