(* The algorithm picker: logical plan -> physical plan.

   This is the component the keynote calls the "algorithm picker" inside a
   SQL compiler (claim C2): for every operator it prices the applicable
   implementations from the runtime algorithm library with the cost model
   and statistics, and emits the cheapest.  [options] lets benchmarks and
   the adaptive layer force specific choices (ablations, re-optimization). *)

module Value = Quill_storage.Value
module Schema = Quill_storage.Schema
module Bexpr = Quill_plan.Bexpr
module Lplan = Quill_plan.Lplan
module Table_stats = Quill_stats.Table_stats
module IntSet = Set.Make (Int)

type options = {
  force_join : Physical.join_algo option;
  force_agg : Physical.agg_algo option;
  force_layout : Physical.layout option;
  enable_topk : bool;
  enable_reorder : bool;
  enable_index : bool;  (** consider index scans as access paths *)
  parallelism : int;
      (** expected worker count for morsel-parallel operators (columnar
          scan, filter, hash-agg feed, hash-join probe): their CPU cost
          terms divide by this, so under parallelism the picker leans
          toward parallel-friendly plans.  1 = serial costing. *)
  budget_bytes : int option;
      (** the session's per-query memory budget, if any: algorithms whose
          estimated working set exceeds it are cost-penalized
          ({!Cost.budget_penalize}), steering the picker to streaming
          alternatives the governor won't kill. *)
  spill : bool;
      (** out-of-core execution is available: over-budget hash join /
          hash agg pays an honest spill-I/O term instead of the kill
          penalty ({!Cost.budget_penalize}'s [?spill]). *)
}

let default_options =
  {
    force_join = None;
    force_agg = None;
    force_layout = None;
    enable_topk = true;
    enable_reorder = true;
    enable_index = true;
    parallelism = 1;
    budget_bytes = None;
    spill = true;
  }

let width_of (card : Card.t) set =
  IntSet.fold
    (fun i acc ->
      acc
      +.
      match if i < Array.length card.Card.cols then card.Card.cols.(i) else None with
      | Some s -> s.Table_stats.avg_width
      | None -> 8.0)
    set 0.0

let full_width (card : Card.t) =
  width_of card (IntSet.of_list (List.init (Array.length card.Card.cols) Fun.id))

let cols_of_expr e = IntSet.of_list (Bexpr.cols e)

let terms e = List.length (Bexpr.conjuncts e)

(* Access-path selection: the best declared ordered index able to serve
   predicate [pred] over [table], as (col, col_name, lo, hi, residual,
   cost).  The caller compares the cost against the filtered full scan
   and keeps the loser as an EXPLAIN candidate. *)
let try_index_scan env ~table ~schema pred =
  let indexed = env.Card.indexed table in
  if indexed = [] then None
  else begin
    let scan = Lplan.Scan { table; schema } in
    let scan_card = Card.derive env scan in
    let total = scan_card.Card.rows in
    let width = full_width scan_card in
    let conjs = Bexpr.conjuncts pred in
    let is_bound_expr (e : Bexpr.t) =
      match e.Bexpr.node with Bexpr.Lit _ | Bexpr.Param _ -> true | _ -> false
    in
    let flip = function
      | Bexpr.Lt -> Bexpr.Gt | Bexpr.Le -> Bexpr.Ge
      | Bexpr.Gt -> Bexpr.Lt | Bexpr.Ge -> Bexpr.Le
      | op -> op
    in
    let candidate col =
      (* Split conjuncts into usable bounds on [col] and the residual. *)
      let bounds, residual =
        List.partition
          (fun conj ->
            match conj.Bexpr.node with
            | Bexpr.Cmp ((Bexpr.Eq | Bexpr.Lt | Bexpr.Le | Bexpr.Gt | Bexpr.Ge), a, b) -> (
                match (a.Bexpr.node, b.Bexpr.node) with
                | Bexpr.Col c, _ when c = col && is_bound_expr b -> true
                | _, Bexpr.Col c when c = col && is_bound_expr a -> true
                | _ -> false)
            | _ -> false)
          conjs
      in
      if bounds = [] then None
      else begin
        (* Keep one lower and one upper bound as index bounds; anything
           further stays in the residual. *)
        let lo = ref None and hi = ref None and extra = ref [] in
        List.iter
          (fun conj ->
            let op, rhs =
              match conj.Bexpr.node with
              | Bexpr.Cmp (op, { Bexpr.node = Bexpr.Col c; _ }, b) when c = col -> (op, b)
              | Bexpr.Cmp (op, a, { Bexpr.node = Bexpr.Col c; _ }) when c = col ->
                  (flip op, a)
              | _ -> assert false
            in
            let take slot v = if !slot = None then slot := Some v else extra := conj :: !extra in
            match op with
            | Bexpr.Eq ->
                if !lo = None && !hi = None then begin
                  lo := Some (rhs, true);
                  hi := Some (rhs, true)
                end
                else extra := conj :: !extra
            | Bexpr.Ge -> take lo (rhs, true)
            | Bexpr.Gt -> take lo (rhs, false)
            | Bexpr.Le -> take hi (rhs, true)
            | Bexpr.Lt -> take hi (rhs, false)
            | _ -> extra := conj :: !extra)
          bounds;
        let used =
          List.filter (fun c -> not (List.memq c !extra)) bounds
        in
        let matches =
          match Bexpr.conjoin used with
          | None -> total
          | Some p -> (Card.derive env (Lplan.Filter (p, scan))).Card.rows
        in
        let residual_conjs = residual @ List.rev !extra in
        let cost =
          Cost.index_scan ~total ~matches ~row_width:width
          +. Cost.filter ~rows:matches ~terms:(List.length residual_conjs) ()
        in
        Some (col, !lo, !hi, Bexpr.conjoin residual_conjs, matches, cost)
      end
    in
    let best =
      List.fold_left
        (fun acc col ->
          match (acc, candidate col) with
          | None, c -> c
          | Some (_, _, _, _, _, c1), Some (_, _, _, _, _, c2 as cand) when c2 < c1 ->
              Some cand
          | acc, _ -> acc)
        None indexed
    in
    match best with
    | Some (col, lo, hi, residual, _, cost) ->
        let col_name = Schema.base_name (Schema.column schema col).Schema.name in
        Some (col, col_name, lo, hi, residual, cost)
    | None -> None
  end

let rec convert env opts plan ~needed : Physical.t =
  let card = Card.derive env plan in
  match plan with
  | Lplan.One_row -> Physical.One_row
  | Lplan.Scan { table; schema } ->
      let rows = card.Card.rows in
      let read_width =
        if IntSet.is_empty needed then 8.0 else width_of card needed
      in
      let cost_row = Cost.scan_row ~rows ~row_width:(full_width card) in
      let cost_col = Cost.scan_col ~workers:opts.parallelism ~rows ~read_width () in
      let layout =
        match opts.force_layout with
        | Some l -> l
        | None -> if cost_col <= cost_row then Physical.Col_layout else Physical.Row_layout
      in
      let est_cost = match layout with Physical.Col_layout -> cost_col | _ -> cost_row in
      let candidates =
        [ Physical.candidate ~chosen:(layout = Physical.Col_layout) "col-scan" cost_col;
          Physical.candidate ~chosen:(layout = Physical.Row_layout) "row-scan" cost_row ]
      in
      Physical.Scan
        { table; schema; layout; filter = None;
          info = Physical.mk_info ~candidates ~est_rows:rows ~est_cost () }
  | Lplan.Filter (pred, input) ->
      let needed_in = IntSet.union needed (cols_of_expr pred) in
      let pin = convert env opts input ~needed:needed_in in
      let child = Physical.info_of pin in
      let est_cost =
        child.Physical.est_cost
        +. Cost.filter ~workers:opts.parallelism ~rows:child.Physical.est_rows
             ~terms:(terms pred) ()
      in
      let info = Physical.mk_info ~est_rows:card.Card.rows ~est_cost () in
      (* Fuse the predicate into a bare scan, or switch the access path to
         an index range scan when it is cheaper. *)
      (match pin with
      | Physical.Scan { table; schema; layout; filter = None; info = scan_info } -> (
          let index_path =
            if opts.enable_index then try_index_scan env ~table ~schema pred
            else None
          in
          match index_path with
          | Some (col, col_name, lo, hi, residual, cost) when cost < est_cost ->
              let candidates =
                [ Physical.candidate ~chosen:true
                    (Printf.sprintf "index-scan(%s)" col_name) cost;
                  Physical.candidate ~chosen:false "filtered-scan" est_cost ]
              in
              Physical.Index_scan
                { table; schema; col; col_name; lo; hi; residual;
                  info =
                    Physical.mk_info ~candidates ~est_rows:card.Card.rows
                      ~est_cost:cost () }
          | index_path ->
              (* Keep the layout decision's candidates and record the losing
                 index path (when one was priced) on the fused scan. *)
              let candidates =
                scan_info.Physical.candidates
                @
                match index_path with
                | Some (_, col_name, _, _, _, cost) ->
                    [ Physical.candidate ~chosen:false
                        (Printf.sprintf "index-scan(%s)" col_name) cost ]
                | None -> []
              in
              Physical.Scan
                { table; schema; layout; filter = Some pred;
                  info = { info with Physical.candidates } })
      | _ -> Physical.Filter (pred, pin, info))
  | Lplan.Project (items, input) ->
      let needed_in =
        List.fold_left
          (fun acc (e, _) -> IntSet.union acc (cols_of_expr e))
          IntSet.empty items
      in
      let pin = convert env opts input ~needed:needed_in in
      let child = Physical.info_of pin in
      let est_cost =
        child.Physical.est_cost
        +. Cost.project ~rows:child.Physical.est_rows ~exprs:(List.length items)
      in
      Physical.Project (items, pin, Physical.mk_info ~est_rows:card.Card.rows ~est_cost ())
  | Lplan.Join { kind; cond; left; right } ->
      let left_card = Card.derive env left and right_card = Card.derive env right in
      let la = Array.length left_card.Card.cols in
      let pairs = Card.equi_pairs ~left_arity:la cond in
      let residual =
        match cond with
        | None -> None
        | Some c ->
            Bexpr.conjoin
              (List.filter
                 (fun conj ->
                   match conj.Bexpr.node with
                   | Bexpr.Cmp (Bexpr.Eq, a, b) -> (
                       match (a.Bexpr.node, b.Bexpr.node) with
                       | Bexpr.Col i, Bexpr.Col j -> (i < la) = (j < la)
                       | _ -> true)
                   | _ -> true)
                 (Bexpr.conjuncts c))
      in
      let cond_cols =
        match cond with None -> IntSet.empty | Some c -> cols_of_expr c
      in
      let all_needed = IntSet.union needed cond_cols in
      let needed_l = IntSet.filter (fun i -> i < la) all_needed in
      let needed_r =
        IntSet.map (fun i -> i - la) (IntSet.filter (fun i -> i >= la) all_needed)
      in
      let pl = convert env opts left ~needed:needed_l in
      let pr = convert env opts right ~needed:needed_r in
      let lrows = left_card.Card.rows and rrows = right_card.Card.rows in
      let lw = full_width left_card and rw = full_width right_card in
      let out = card.Card.rows in
      (* A left-outer hash join must probe with the preserved side, so
         the build side is pinned to the right input. *)
      let build_left = if kind = Lplan.Left_outer then false else lrows <= rrows in
      let hash_cost =
        if pairs = [] then Float.infinity
        else if build_left then
          Cost.hash_join ~workers:opts.parallelism ~build:lrows ~probe:rrows ~out
            ~build_width:lw ()
        else
          Cost.hash_join ~workers:opts.parallelism ~build:rrows ~probe:lrows ~out
            ~build_width:rw ()
      in
      (* Under a memory budget, a hash build that won't fit either
         Grace-spills (honest I/O term) or is a governor kill waiting to
         happen (steep penalty so streaming joins win). *)
      let hash_cost =
        let brows, bw = if build_left then (lrows, lw) else (rrows, rw) in
        Cost.budget_penalize ?budget:opts.budget_bytes ~spill:opts.spill
          ~bytes:(brows *. (bw +. 64.0)) hash_cost
      in
      (* Merge and block-nl joins materialize BOTH inputs with no spill
         path: in spill mode an over-budget working set is still a kill
         for them, while the hash join Grace-partitions through it — so
         penalize them symmetrically.  With spilling off the pre-spill
         costing applies unchanged (everything is a kill; relative order
         was already right). *)
      let unspillable_pen cost =
        if opts.spill then
          Cost.budget_penalize ?budget:opts.budget_bytes
            ~bytes:((lrows *. lw) +. (rrows *. rw)) cost
        else cost
      in
      let merge_cost =
        if pairs = [] then Float.infinity
        else begin
          (* The sort library radix-sorts single integer keys in linear
             time; reflect that in the merge price. *)
          let int_keys =
            match pairs with
            | [ (l, _) ] -> (
                match (Schema.column (Lplan.schema_of left) l).Schema.dtype with
                | Value.Int_t | Value.Date_t -> true
                | _ -> false)
            | _ -> false
          in
          unspillable_pen
            (Cost.merge_join ~left:lrows ~right:rrows ~out ~lw ~rw ~left_sorted:false
               ~right_sorted:false ~int_keys ())
        end
      in
      let nl_cost =
        unspillable_pen
          (if lrows <= rrows then
             Cost.block_nl_join ~outer:rrows ~inner:lrows ~out ~inner_width:lw
           else Cost.block_nl_join ~outer:lrows ~inner:rrows ~out ~inner_width:rw)
      in
      let algo, self_cost =
        match opts.force_join with
        | Some Physical.Hash_join when pairs <> [] -> (Physical.Hash_join, hash_cost)
        | Some Physical.Merge_join when pairs <> [] -> (Physical.Merge_join, merge_cost)
        | Some Physical.Block_nl | Some _ when pairs = [] -> (Physical.Block_nl, nl_cost)
        | Some a ->
            ( a,
              match a with
              | Physical.Hash_join -> hash_cost
              | Physical.Merge_join -> merge_cost
              | Physical.Block_nl -> nl_cost )
        | None ->
            (* Under a budget that can spill, an equi-join always takes
               the Grace hash join.  Merge and block-nl joins buffer both
               inputs with no spill path, and whether those fit rests on
               cardinality estimates: a filter on correlated predicates
               estimated at one row but passing dozens, or an inner
               estimated empty, prices them under the budget and the
               governor then kills a query the hash join would answer. *)
            if opts.spill && opts.budget_bytes <> None && pairs <> [] then
              (Physical.Hash_join, hash_cost)
            else if hash_cost <= merge_cost && hash_cost <= nl_cost then
              (Physical.Hash_join, hash_cost)
            else if merge_cost <= nl_cost then (Physical.Merge_join, merge_cost)
            else (Physical.Block_nl, nl_cost)
      in
      let residual = if algo = Physical.Block_nl then cond else residual in
      let keys = if algo = Physical.Block_nl then [] else pairs in
      let est_cost =
        (Physical.info_of pl).Physical.est_cost
        +. (Physical.info_of pr).Physical.est_cost
        +. self_cost
      in
      let candidates =
        List.filter
          (fun c -> c.Physical.cand_chosen || c.Physical.cand_cost < Float.infinity)
          [ Physical.candidate ~chosen:(algo = Physical.Hash_join) "hash-join" hash_cost;
            Physical.candidate ~chosen:(algo = Physical.Merge_join) "merge-join" merge_cost;
            Physical.candidate ~chosen:(algo = Physical.Block_nl) "block-nl-join" nl_cost ]
      in
      Physical.Join
        { algo; kind; keys; residual; build_left; left = pl; right = pr;
          info = Physical.mk_info ~candidates ~est_rows:out ~est_cost () }
  | Lplan.Aggregate { keys; aggs; input } ->
      let needed_in =
        List.fold_left
          (fun acc (e, _) -> IntSet.union acc (cols_of_expr e))
          IntSet.empty keys
      in
      let needed_in =
        List.fold_left
          (fun acc (a, _) ->
            match a.Lplan.arg with
            | Some e -> IntSet.union acc (cols_of_expr e)
            | None -> acc)
          needed_in aggs
      in
      let pin = convert env opts input ~needed:needed_in in
      let child = Physical.info_of pin in
      let in_card = Card.derive env input in
      let rows = child.Physical.est_rows in
      let groups = card.Card.rows in
      let key_width = 8.0 *. Float.of_int (List.length keys) in
      let hash_cost = Cost.hash_agg ~workers:opts.parallelism ~rows ~groups ~key_width () in
      (* The group table is this operator's resident working set; when it
         cannot fit the budget it spills partial tables as sorted runs
         (honest I/O term) — except DISTINCT aggregates, whose per-group
         dedup sets are not spillable, so those still price as a kill. *)
      let hash_cost =
        let spillable =
          opts.spill && List.for_all (fun (a, _) -> not a.Lplan.distinct) aggs
        in
        Cost.budget_penalize ?budget:opts.budget_bytes ~spill:spillable
          ~bytes:(groups *. (key_width +. 32.0)) hash_cost
      in
      let sort_cost = Cost.sort_agg ~rows ~width:(full_width in_card) ~sorted:false in
      let algo, self_cost =
        match opts.force_agg with
        | Some Physical.Hash_agg -> (Physical.Hash_agg, hash_cost)
        | Some Physical.Sort_agg -> (Physical.Sort_agg, sort_cost)
        | None ->
            if keys = [] || hash_cost <= sort_cost then (Physical.Hash_agg, hash_cost)
            else (Physical.Sort_agg, sort_cost)
      in
      let candidates =
        [ Physical.candidate ~chosen:(algo = Physical.Hash_agg) "hash-agg" hash_cost;
          Physical.candidate ~chosen:(algo = Physical.Sort_agg) "sort-agg" sort_cost ]
      in
      Physical.Aggregate
        { algo; keys; aggs; input = pin;
          info =
            Physical.mk_info ~candidates ~est_rows:groups
              ~est_cost:(child.Physical.est_cost +. self_cost) () }
  | Lplan.Window { specs; input } ->
      (* The window operator needs its input rows intact (it appends
         columns), so everything below is needed; cost is one sort per
         spec plus the pass. *)
      let spec_cols =
        List.fold_left
          (fun acc (w, _) ->
            let acc =
              match w.Lplan.warg with
              | Some e -> IntSet.union acc (cols_of_expr e)
              | None -> acc
            in
            let acc =
              List.fold_left (fun acc e -> IntSet.union acc (cols_of_expr e)) acc w.Lplan.partition
            in
            List.fold_left
              (fun acc (e, _) -> IntSet.union acc (cols_of_expr e))
              acc w.Lplan.worder)
          IntSet.empty specs
      in
      let in_arity = Schema.arity (Lplan.schema_of input) in
      let needed_in =
        IntSet.union spec_cols
          (IntSet.filter (fun i -> i < in_arity) needed)
      in
      let pin = convert env opts input ~needed:needed_in in
      let child = Physical.info_of pin in
      let in_card = Card.derive env input in
      let self =
        Float.of_int (List.length specs)
        *. Cost.sort ~rows:child.Physical.est_rows ~width:(full_width in_card)
      in
      Physical.Window
        { specs; input = pin;
          info =
            Physical.mk_info ~est_rows:card.Card.rows
              ~est_cost:(child.Physical.est_cost +. self) () }
  | Lplan.Sort { keys; input } ->
      let needed_in =
        IntSet.union needed (IntSet.of_list (List.map fst keys))
      in
      let pin = convert env opts input ~needed:needed_in in
      (* Interesting orders: skip the sort when the input already delivers
         the requested ordering (e.g. an index range scan). *)
      if Physical.ordering_satisfies ~have:(Physical.ordering_of pin) ~want:keys then pin
      else begin
        let child = Physical.info_of pin in
        let in_card = Card.derive env input in
        let self = Cost.sort ~rows:child.Physical.est_rows ~width:(full_width in_card) in
        Physical.Sort
          { keys; input = pin;
            info =
              Physical.mk_info ~est_rows:card.Card.rows
                ~est_cost:(child.Physical.est_cost +. self) () }
      end
  | Lplan.Distinct input ->
      let pin = convert env opts input ~needed in
      let child = Physical.info_of pin in
      let in_card = Card.derive env input in
      let self = Cost.distinct ~rows:child.Physical.est_rows ~width:(full_width in_card) in
      Physical.Distinct
        ( pin,
          Physical.mk_info ~est_rows:card.Card.rows
            ~est_cost:(child.Physical.est_cost +. self) () )
  | Lplan.Limit { n; offset; input } -> (
      match (n, input) with
      | Some k, Lplan.Sort { keys; input = sort_in }
        when opts.enable_topk
             && Float.of_int (k + offset)
                <= Float.max 64.0 ((Card.derive env sort_in).Card.rows /. 4.0) ->
          (* Fuse ORDER BY + LIMIT into a bounded-heap top-k. *)
          let needed_in = IntSet.union needed (IntSet.of_list (List.map fst keys)) in
          let pin = convert env opts sort_in ~needed:needed_in in
          let child = Physical.info_of pin in
          if Physical.ordering_satisfies ~have:(Physical.ordering_of pin) ~want:keys
          then
            (* Already ordered: a plain streaming limit suffices. *)
            Physical.Limit
              { n = Some k; offset; input = pin;
                info =
                  Physical.mk_info ~est_rows:(Float.of_int k)
                    ~est_cost:child.Physical.est_cost () }
          else begin
            let self =
              Cost.top_k ~rows:child.Physical.est_rows ~k:(Float.of_int (k + offset))
            in
            let sort_cost =
              Cost.sort ~rows:child.Physical.est_rows
                ~width:(full_width (Card.derive env sort_in))
            in
            let candidates =
              [ Physical.candidate ~chosen:true "top-k" self;
                Physical.candidate ~chosen:false "sort+limit" sort_cost ]
            in
            Physical.Top_k
              { k; offset; keys; input = pin;
                info =
                  Physical.mk_info ~candidates ~est_rows:(Float.of_int k)
                    ~est_cost:(child.Physical.est_cost +. self) () }
          end
      | _ ->
          let pin = convert env opts input ~needed in
          let child = Physical.info_of pin in
          Physical.Limit
            { n; offset; input = pin;
              info =
                Physical.mk_info ~est_rows:card.Card.rows
                  ~est_cost:child.Physical.est_cost () })

(** [to_physical ?options env plan] picks algorithms for an already
    rewritten/ordered logical plan. *)
let to_physical ?(options = default_options) env plan =
  let out_arity = Schema.arity (Lplan.schema_of plan) in
  convert env options plan ~needed:(IntSet.of_list (List.init out_arity Fun.id))

(** [optimize ?options env plan] runs the full pipeline: rewrite, join
    reorder, algorithm picking.  Each phase is a tracer span. *)
let optimize ?(options = default_options) env plan =
  let plan = Quill_obs.Trace.with_span "rewrite" (fun () -> Rewrite.rewrite plan) in
  let plan =
    if options.enable_reorder then
      Quill_obs.Trace.with_span "join-order" (fun () -> Join_order.reorder env plan)
    else plan
  in
  (* Reordering can introduce new projections (the column-order restore
     permutation); merge and clean up once more. *)
  let plan = Rewrite.drop_noop_projects (Rewrite.merge_perm_projects plan) in
  Quill_obs.Trace.with_span "pick" (fun () -> to_physical ~options env plan)
