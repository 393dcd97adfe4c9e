(* The vectorized engine: batch-at-a-time interpretation over typed
   batches with selection vectors.

   A batch is an array of typed vectors — [Typed] vectors reference a
   window of a storage {!Column.t} zero-copy (unboxed int/float payloads,
   dict codes, validity bitsets), [Const] vectors represent literals and
   parameters without per-batch allocation, [Boxed] vectors hold computed
   or re-batched intermediates — plus an optional selection vector of the
   live lanes.  Filters produce a selection instead of compacting the
   batch, so the only copies on the scan->filter->project hot path are
   the kernel outputs themselves.

   Expressions evaluate through the shared unboxed kernels ({!Kernel},
   also behind the compiled engine's fused loops) whenever every
   referenced column resolves to a typed vector: numeric expressions run
   as [int -> int]/[int -> float] loops over the selection with validity
   computed by bulk {!Bitset.land_range}, and predicates run as
   [int -> bool] tests (dict-code comparisons for strings included).
   Shapes the kernels do not cover fall back to the boxed column-at-a-time
   evaluator of the original engine, so semantics never depend on what
   compiles; {!enable_typed} forces that fallback everywhere for the E18
   ablation.  Kernel-vs-fallback dispatch counts are exported as metrics.

   Pipeline breakers materialize to rows and call the shared algorithm
   library, so E2 compares engine architectures on equal algorithms.

   Laziness note: AND/OR right operands and CASE branches are evaluated
   on the undecided lanes only, preserving the scalar engine's error
   behaviour for guarded expressions like [y <> 0 AND x/y > 2]. *)

module Value = Quill_storage.Value
module Table = Quill_storage.Table
module Catalog = Quill_storage.Catalog
module Column = Quill_storage.Column
module Vec = Quill_util.Vec
module Int_vec = Quill_util.Int_vec
module Bitset = Quill_util.Bitset
module Bexpr = Quill_plan.Bexpr
module Lplan = Quill_plan.Lplan
module Physical = Quill_optimizer.Physical
module Pool = Quill_parallel.Pool
module Pdriver = Quill_parallel.Driver
module IntSet = Set.Make (Int)

let batch_size = 1024

(** Evaluate through the typed kernels when possible; off, every batch
    boxes at the scan and every expression takes the boxed fallback —
    the pre-typed engine, kept for the E18 ablation (mirrors
    {!Column.enable_dict}). *)
let enable_typed = ref true

(* Batches materialized by any operator (scans, index scans, pipeline
   breakers re-batching) and rows those batches carried. *)
let m_batches = Quill_obs.Metrics.counter "quill.exec.batches"
let m_batch_rows = Quill_obs.Metrics.counter "quill.exec.batch_rows"

(* Expression/predicate dispatches served by an unboxed kernel vs the
   boxed fallback, counted once per node per batch. *)
let m_kernel = Quill_obs.Metrics.counter "quill.exec.kernel_dispatches"
let m_fallback = Quill_obs.Metrics.counter "quill.exec.fallback_dispatches"

type vec =
  | Typed of Column.t * int
      (** typed column window: lane [i] lives at slot [base + i] *)
  | Boxed of Value.t array  (** boxed intermediate, one slot per lane *)
  | Const of Value.t  (** every lane holds the same value *)
  | Absent  (** column the scan skipped (not needed); reads as NULL *)

type batch = {
  vecs : vec array;
  len : int;  (** lane count; vectors address lanes [0, len) *)
  sel : Int_vec.t option;
      (** live lanes, ascending; [None] means all lanes live *)
}

let rows_in b = match b.sel with None -> b.len | Some s -> Int_vec.length s

let iter_lanes b f =
  match b.sel with
  | None ->
      for i = 0 to b.len - 1 do
        f i
      done
  | Some s -> Int_vec.iter f s

let count_batch (b : batch) =
  Quill_obs.Metrics.incr m_batches;
  Quill_obs.Metrics.add m_batch_rows (rows_in b);
  b

type ctx = Exec_ctx.t = {
  catalog : Catalog.t;
  params : Value.t array;
  profile : Profile.t option;
  governor : Governor.t;
}

let vec_get v i =
  match v with
  | Typed (c, base) -> Column.get c (base + i)
  | Boxed a -> a.(i)
  | Const v -> v
  | Absent -> Value.Null

let row_of b i = Array.map (fun v -> vec_get v i) b.vecs

let rows_of_batch b =
  let out = Array.make (rows_in b) [||] in
  let k = ref 0 in
  iter_lanes b (fun i ->
      out.(!k) <- row_of b i;
      incr k);
  out

let batch_of_rows ncols (rows : Value.t array array) =
  let len = Array.length rows in
  {
    vecs =
      Array.init ncols (fun c -> Boxed (Array.init len (fun i -> rows.(i).(c))));
    len;
    sel = None;
  }

(* --- Vectorized expression evaluation ----------------------------------

   [eval_vec] returns a vector whose *live* lanes (per [b.sel]) hold the
   expression's value; dead lanes are unspecified and never read. *)

let source_of ctx b =
  {
    Kernel.resolve =
      (fun c ->
        if c >= Array.length b.vecs then None
        else
          match b.vecs.(c) with
          | Typed (col, base) -> Some (Kernel.S_col (col, base))
          | Const v -> Some (Kernel.S_const v)
          | Boxed _ | Absent -> None);
    Kernel.params = ctx.params;
  }

(* Validity of a kernel output: the AND of every referenced column's
   validity over the live lanes — a bulk word-wise [land_range] when the
   batch is dense, a per-lane test under a selection. *)
let kernel_validity b (refs : (Bitset.t * int) list) =
  match b.sel with
  | None ->
      let v = Bitset.create_full b.len in
      List.iter (fun (src, base) -> Bitset.land_range ~into:v src ~src_pos:base) refs;
      v
  | Some sel ->
      let v = Bitset.create b.len in
      let ok i = List.for_all (fun (r, base) -> Bitset.get r (base + i)) refs in
      Int_vec.iter (fun i -> if ok i then Bitset.set v i) sel;
      v

let rec eval_vec ctx (b : batch) (e : Bexpr.t) : vec =
  match e.Bexpr.node with
  | Bexpr.Lit v -> Const v
  | Bexpr.Param i -> Const ctx.params.(i)
  | Bexpr.Col c -> b.vecs.(c)
  | _ -> (
      match if !enable_typed then eval_typed ctx b e else None with
      | Some v ->
          Quill_obs.Metrics.incr m_kernel;
          v
      | None ->
          Quill_obs.Metrics.incr m_fallback;
          eval_boxed ctx b e)

(* Numeric expressions through the shared unboxed kernels: compile once
   per batch, run over the live lanes only.  [None] when a referenced
   column is boxed/absent or the shape is unsupported. *)
and eval_typed ctx (b : batch) (e : Bexpr.t) : vec option =
  let source = source_of ctx b in
  match e.Bexpr.dtype with
  | Value.Int_t | Value.Date_t -> (
      match (Kernel.compile_int source e, Kernel.validities source e) with
      | Some f, Some refs ->
          let out = Array.make b.len 0 in
          let validity = kernel_validity b refs in
          (match b.sel with
          | None -> Bitset.iter_set validity (fun i -> out.(i) <- f i)
          | Some sel ->
              Int_vec.iter (fun i -> if Bitset.get validity i then out.(i) <- f i) sel);
          let col =
            if e.Bexpr.dtype = Value.Date_t then Column.Dates (out, validity)
            else Column.Ints (out, validity)
          in
          Some (Typed (col, 0))
      | _ -> None)
  | Value.Float_t -> (
      match (Kernel.compile_float source e, Kernel.validities source e) with
      | Some f, Some refs ->
          let out = Array.make b.len 0.0 in
          let validity = kernel_validity b refs in
          (match b.sel with
          | None -> Bitset.iter_set validity (fun i -> out.(i) <- f i)
          | Some sel ->
              Int_vec.iter (fun i -> if Bitset.get validity i then out.(i) <- f i) sel);
          Some (Typed (Column.Floats (out, validity), 0))
      | _ -> None)
  | _ -> None

(* The boxed column-at-a-time fallback (the original engine's evaluator,
   generalized to read any vector kind and touch live lanes only). *)
and eval_boxed ctx (b : batch) (e : Bexpr.t) : vec =
  let scalar i sub = Bexpr.eval ~row:(row_of b i) ~params:ctx.params sub in
  let map1 va f =
    let out = Array.make b.len Value.Null in
    iter_lanes b (fun i -> out.(i) <- f (vec_get va i));
    Boxed out
  in
  match e.Bexpr.node with
  | Bexpr.Neg a ->
      map1 (eval_vec ctx b a) (function
        | Value.Null -> Value.Null
        | Value.Int x -> Value.Int (-x)
        | Value.Float x -> Value.Float (-.x)
        | v -> raise (Bexpr.Eval_error ("cannot negate " ^ Value.to_string v)))
  | Bexpr.Not a ->
      map1 (eval_vec ctx b a) (function
        | Value.Null -> Value.Null
        | Value.Bool x -> Value.Bool (not x)
        | v -> raise (Bexpr.Eval_error ("NOT on " ^ Value.to_string v)))
  | Bexpr.Arith (op, x, y) ->
      let vx = eval_vec ctx b x and vy = eval_vec ctx b y in
      let out = Array.make b.len Value.Null in
      iter_lanes b (fun i ->
          match (vec_get vx i, vec_get vy i) with
          | Value.Null, _ | _, Value.Null -> ()
          | a, c -> out.(i) <- Bexpr.num_arith op a c);
      Boxed out
  | Bexpr.Cmp (op, x, y) ->
      let vx = eval_vec ctx b x and vy = eval_vec ctx b y in
      let out = Array.make b.len Value.Null in
      iter_lanes b (fun i ->
          match (vec_get vx i, vec_get vy i) with
          | Value.Null, _ | _, Value.Null -> ()
          | a, c -> out.(i) <- Value.Bool (Bexpr.cmp_result op (Value.compare a c)));
      Boxed out
  | Bexpr.And (x, y) ->
      let vx = eval_vec ctx b x in
      let out = Array.make b.len Value.Null in
      iter_lanes b (fun i ->
          out.(i) <-
            (match vec_get vx i with
            | Value.Bool false -> Value.Bool false
            | vxi -> (
                match scalar i y with
                | Value.Bool false -> Value.Bool false
                | Value.Null -> Value.Null
                | vyi -> if vxi = Value.Null then Value.Null else vyi)));
      Boxed out
  | Bexpr.Or (x, y) ->
      let vx = eval_vec ctx b x in
      let out = Array.make b.len Value.Null in
      iter_lanes b (fun i ->
          out.(i) <-
            (match vec_get vx i with
            | Value.Bool true -> Value.Bool true
            | vxi -> (
                match scalar i y with
                | Value.Bool true -> Value.Bool true
                | Value.Null -> Value.Null
                | vyi -> if vxi = Value.Null then Value.Null else vyi)));
      Boxed out
  | Bexpr.Like (x, pattern) ->
      map1 (eval_vec ctx b x) (function
        | Value.Null -> Value.Null
        | Value.Str s -> Value.Bool (Bexpr.like_match ~pattern s)
        | v -> raise (Bexpr.Eval_error ("LIKE on " ^ Value.to_string v)))
  | Bexpr.Is_null (negated, x) ->
      map1 (eval_vec ctx b x) (fun v ->
          let n = Value.is_null v in
          Value.Bool (if negated then not n else n))
  | Bexpr.Cast (x, t) -> map1 (eval_vec ctx b x) (fun v -> Bexpr.do_cast v t)
  | Bexpr.Call { fn; args; _ } ->
      (* Vectorized UDF invocation: arguments evaluate column-at-a-time,
         then the function applies per live lane. *)
      let vargs = Array.of_list (List.map (eval_vec ctx b) args) in
      let nargs = Array.length vargs in
      let scratch = Array.make nargs Value.Null in
      let out = Array.make b.len Value.Null in
      iter_lanes b (fun i ->
          for k = 0 to nargs - 1 do
            scratch.(k) <- vec_get vargs.(k) i
          done;
          out.(i) <- fn scratch);
      Boxed out
  | Bexpr.Lit _ | Bexpr.Param _ | Bexpr.Col _ | Bexpr.In_list _ | Bexpr.Case _
  | Bexpr.Subquery _ ->
      (* Row-wise fallback for control-flow-heavy nodes (Lit/Param/Col are
         handled before dispatch and never reach here). *)
      let out = Array.make b.len Value.Null in
      iter_lanes b (fun i -> out.(i) <- scalar i e);
      Boxed out

(* --- Predicates: selection in, selection out ---------------------------- *)

(* Live lanes of [b] not in [sx] (both ascending). *)
let lanes_minus b sx =
  let out = Int_vec.create () in
  let k = ref 0 in
  let nk = Int_vec.length sx in
  iter_lanes b (fun i ->
      if !k < nk && Int_vec.get sx !k = i then incr k else Int_vec.push out i);
  out

let merge_sorted sa sb =
  let na = Int_vec.length sa and nb = Int_vec.length sb in
  if na = 0 then sb
  else if nb = 0 then sa
  else begin
    let out = Int_vec.with_capacity (na + nb) in
    let i = ref 0 and j = ref 0 in
    while !i < na && !j < nb do
      let a = Int_vec.get sa !i and b = Int_vec.get sb !j in
      if a < b then begin
        Int_vec.push out a;
        incr i
      end
      else begin
        Int_vec.push out b;
        incr j
      end
    done;
    while !i < na do
      Int_vec.push out (Int_vec.get sa !i);
      incr i
    done;
    while !j < nb do
      Int_vec.push out (Int_vec.get sb !j);
      incr j
    done;
    out
  end

(** [eval_sel ctx b e] returns the live lanes where predicate [e] is TRUE
    (NULL is false, as in WHERE), a subset of [b.sel] in ascending order.
    AND restricts the right operand to the left's survivors and OR
    evaluates the right operand on the left's rejects only, so guarded
    expressions keep their error behaviour and no lane is tested twice. *)
let rec eval_sel ctx (b : batch) (e : Bexpr.t) : Int_vec.t =
  let kernel =
    if !enable_typed then Kernel.compile_pred (source_of ctx b) e else None
  in
  match kernel with
  | Some test ->
      Quill_obs.Metrics.incr m_kernel;
      let out = Int_vec.create () in
      iter_lanes b (fun i -> if test i then Int_vec.push out i);
      out
  | None -> (
      match e.Bexpr.node with
      | Bexpr.And (x, y) ->
          let sx = eval_sel ctx b x in
          if Int_vec.length sx = 0 then sx
          else eval_sel ctx { b with sel = Some sx } y
      | Bexpr.Or (x, y) ->
          let sx = eval_sel ctx b x in
          let rest = lanes_minus b sx in
          if Int_vec.length rest = 0 then sx
          else merge_sorted sx (eval_sel ctx { b with sel = Some rest } y)
      | _ ->
          let v = eval_vec ctx b e in
          let out = Int_vec.create () in
          iter_lanes b (fun i ->
              if vec_get v i = Value.Bool true then Int_vec.push out i);
          out)

(* --- Operators --------------------------------------------------------- *)

type biter = { next_batch : unit -> batch option; close : unit -> unit }

let observed ctx id it =
  match ctx.profile with
  | None -> it
  | Some p ->
      {
        it with
        next_batch =
          (fun () ->
            let t0 = Quill_util.Timer.now () in
            let r = it.next_batch () in
            Profile.add_time p id (Quill_util.Timer.now () -. t0);
            match r with
            | Some b ->
                Profile.add p id (rows_in b);
                Some b
            | None -> None);
      }

let of_rows ncols rows =
  let pos = ref 0 in
  let n = Array.length rows in
  {
    next_batch =
      (fun () ->
        if !pos >= n then None
        else begin
          let take = min batch_size (n - !pos) in
          let slice = Array.sub rows !pos take in
          pos := !pos + take;
          Some (count_batch (batch_of_rows ncols slice))
        end);
    close = ignore;
  }

(* Pipeline breakers materialize through [drain]: one deadline check and
   one budget charge per batch of buffered rows.  [~result] marks the
   top-level result drain, whose rows are charged as result delivery
   (uncharged in spill mode). *)
let drain ?(gov = Governor.none) ?(result = false) it =
  let out = Vec.create ~dummy:[||] in
  let rec go () =
    match it.next_batch () with
    | Some b ->
        Governor.check gov;
        Array.iter
          (fun r ->
            if result then Governor.charge_result gov r
            else Governor.charge_row gov r;
            Vec.push out r)
          (rows_of_batch b);
        go ()
    | None -> it.close ()
  in
  go ();
  Vec.to_array out

(* Out-of-core drain: buffer the child through a governor-registered
   spool, which dumps to spill runs instead of dying under the budget. *)
let drain_spool ?keys ~name ~gov it =
  let sp = Spool.create ?keys ~name gov in
  let rec go () =
    match it.next_batch () with
    | Some b ->
        Governor.check gov;
        Array.iter (Spool.add sp) (rows_of_batch b);
        go ()
    | None -> it.close ()
  in
  go ();
  Spool.finish sp

(* [needed] is the set of this operator's output columns the consumer
   reads; scans skip materializing the rest. *)
let rec build ctx counter plan ~needed : biter =
  let id = !counter in
  incr counter;
  let ncols p = Quill_storage.Schema.arity (Physical.schema_of p) in
  let cols_of_expr e = IntSet.of_list (Bexpr.cols e) in
  let it =
    match plan with
    | Physical.One_row ->
        let done_ = ref false in
        {
          next_batch =
            (fun () ->
              if !done_ then None
              else begin
                done_ := true;
                Some { vecs = [||]; len = 1; sel = None }
              end);
          close = ignore;
        }
    | Physical.Scan { table; filter; _ } ->
        (* Both layouts batch from the columnar projection.  With typed
           batches on, a scan batch is an array of zero-copy windows into
           the storage columns; the boxed ablation unpacks the needed
           columns through [Column.get] like the original engine.  Columns
           outside the needed set stay [Absent]. *)
        let t = Catalog.find_exn ctx.catalog table in
        let cols = Table.columnar t in
        let n = Table.row_count t in
        let needed =
          match filter with
          | None -> needed
          | Some f -> IntSet.union needed (cols_of_expr f)
        in
        let fetch base take =
          {
            vecs =
              Array.mapi
                (fun ci c ->
                  if IntSet.mem ci needed then
                    if !enable_typed then Typed (c, base)
                    else Boxed (Array.init take (fun i -> Column.get c (base + i)))
                  else Absent)
                cols;
            len = take;
            sel = None;
          }
        in
        (* The scan's predicate kernel compiles once against the storage
           columns (absolute row indexing), so per-batch filtering is a
           bare loop — no per-batch closure compilation on the hottest
           path.  Unsupported shapes fall back to [eval_sel] per batch. *)
        let scan_kernel =
          if !enable_typed then
            Option.bind filter (fun f ->
                Kernel.compile_pred (Kernel.of_columns cols ctx.params) f)
          else None
        in
        let filter_batch base b =
          match filter with
          | None -> Some b
          | Some f ->
              let sel =
                match scan_kernel with
                | Some test ->
                    Quill_obs.Metrics.incr m_kernel;
                    let out = Int_vec.create () in
                    for i = 0 to b.len - 1 do
                      if test (base + i) then Int_vec.push out i
                    done;
                    out
                | None -> eval_sel ctx b f
              in
              if Int_vec.length sel = 0 then None else Some { b with sel = Some sel }
        in
        let workers = Pool.parallelism () in
        if not (Pdriver.serial ~workers n) then begin
          (* Morsel-parallel scan+filter: workers filter the morsels they
             win (the shared scan kernel and storage columns are read-only);
             the surviving batches are re-assembled in row order, so
             downstream operators see the same stream a serial scan
             produces. *)
          let batches =
            Pdriver.collect ~workers ~n ~dummy:{ vecs = [||]; len = 0; sel = None }
              (fun ~lo ~hi ~emit ->
                let p = ref lo in
                while !p < hi do
                  Governor.check ctx.governor;
                  let take = min batch_size (hi - !p) in
                  (match filter_batch !p (fetch !p take) with
                  | Some b -> emit b
                  | None -> ());
                  p := !p + take
                done)
          in
          let pos = ref 0 in
          {
            next_batch =
              (fun () ->
                if !pos >= Array.length batches then None
                else begin
                  let b = batches.(!pos) in
                  incr pos;
                  Some (count_batch b)
                end);
            close = ignore;
          }
        end
        else begin
          let pos = ref 0 in
          let rec next_batch () =
            Governor.check ctx.governor;
            if !pos >= n then None
            else begin
              let take = min batch_size (n - !pos) in
              let base = !pos in
              pos := !pos + take;
              match filter_batch base (fetch base take) with
              | Some b -> Some (count_batch b)
              | None -> next_batch ()
            end
          in
          { next_batch; close = ignore }
        end
    | Physical.Index_scan { table; col; lo; hi; residual; _ } ->
        let t = Catalog.find_exn ctx.catalog table in
        let lo = Index_access.eval_bound ~params:ctx.params lo in
        let hi = Index_access.eval_bound ~params:ctx.params hi in
        let ids = Index_access.rowids t ~col ~lo ~hi in
        let rows =
          List.filter_map
            (fun i ->
              Governor.tick ctx.governor;
              let row = Array.copy (Table.get_row t i) in
              match residual with
              | Some f when not (Bexpr.eval_pred ~row ~params:ctx.params f) -> None
              | _ -> Some row)
            ids
        in
        of_rows (ncols plan) (Array.of_list rows)
    | Physical.Filter (pred, input, _) ->
        let child =
          build ctx counter input ~needed:(IntSet.union needed (cols_of_expr pred))
        in
        let rec next_batch () =
          match child.next_batch () with
          | None -> None
          | Some b ->
              let sel = eval_sel ctx b pred in
              if Int_vec.length sel = 0 then next_batch ()
              else Some { b with sel = Some sel }
        in
        { next_batch; close = child.close }
    | Physical.Project (items, input, _) ->
        let needed_in =
          List.fold_left
            (fun acc (e, _) -> IntSet.union acc (cols_of_expr e))
            IntSet.empty items
        in
        let child = build ctx counter input ~needed:needed_in in
        let exprs = Array.of_list (List.map fst items) in
        {
          next_batch =
            (fun () ->
              match child.next_batch () with
              | None -> None
              | Some b ->
                  Some
                    {
                      vecs = Array.map (fun e -> eval_vec ctx b e) exprs;
                      len = b.len;
                      sel = b.sel;
                    });
          close = child.close;
        }
    | Physical.Join { algo; kind; keys; residual; build_left; left; right; _ } ->
        let la = Quill_storage.Schema.arity (Physical.schema_of left) in
        let all =
          let base =
            List.fold_left
              (fun acc (l, r) -> IntSet.add l (IntSet.add (r + la) acc))
              needed keys
          in
          match residual with None -> base | Some e -> IntSet.union base (cols_of_expr e)
        in
        let needed_l = IntSet.filter (fun i -> i < la) all in
        let needed_r = IntSet.map (fun i -> i - la) (IntSet.filter (fun i -> i >= la) all) in
        let gov = ctx.governor in
        let residual_fn =
          Option.map (fun e row -> Bexpr.eval_pred ~row ~params:ctx.params e) residual
        in
        let mode =
          match kind with
          | Lplan.Inner -> Join_algos.Inner
          | Lplan.Left_outer -> Join_algos.Left_outer
        in
        let right_arity = Quill_storage.Schema.arity (Physical.schema_of right) in
        if algo = Physical.Hash_join && Governor.can_spill gov then begin
          (* Out-of-core: spool both sides (spillable) and Grace-join. *)
          let lset =
            drain_spool ~name:"join-input" ~gov (build ctx counter left ~needed:needed_l)
          in
          let rset =
            drain_spool ~name:"join-input" ~gov (build ctx counter right ~needed:needed_r)
          in
          let out = Vec.create ~dummy:[||] in
          Join_algos.spill_hash_join ~gov ~mode ~keys ~residual:residual_fn
            ~build_left ~right_arity ~emit:(Vec.push out) lset rset;
          of_rows (ncols plan) (Vec.to_array out)
        end
        else begin
          let lrows = drain ~gov (build ctx counter left ~needed:needed_l) in
          let rrows = drain ~gov (build ctx counter right ~needed:needed_r) in
          let out =
            match algo with
            | Physical.Hash_join ->
                Join_algos.hash_join ~gov ~mode ~right_arity ~keys ~residual:residual_fn
                  ~build_left lrows rrows
            | Physical.Merge_join ->
                Join_algos.merge_join ~gov ~mode ~right_arity ~keys ~residual:residual_fn
                  lrows rrows
            | Physical.Block_nl ->
                Join_algos.block_nl_join ~gov ~mode ~right_arity ~pred:residual_fn lrows
                  rrows
          in
          of_rows (ncols plan) (Vec.to_array out)
        end
    | Physical.Aggregate { algo; keys; aggs; input; _ } ->
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
        let key_fns = List.map (fun (e, _) row -> Bexpr.eval ~row ~params:ctx.params e) keys in
        let specs =
          List.map
            (fun (a, _) ->
              {
                Agg_algos.kind = a.Lplan.kind;
                arg = Option.map (fun e row -> Bexpr.eval ~row ~params:ctx.params e) a.Lplan.arg;
                distinct = a.Lplan.distinct;
                out_dtype = a.Lplan.out_dtype;
              })
            aggs
        in
        let out =
          if Governor.can_spill ctx.governor then begin
            (* Out-of-core: stream batches into a spillable group builder
               (serial — the builder's spill hook is domain-owned). *)
            let b =
              Agg_algos.create_builder ~gov:ctx.governor ~keys:key_fns ~specs ()
            in
            let child = build ctx counter input ~needed:needed_in in
            let rec go () =
              match child.next_batch () with
              | Some bt ->
                  Governor.check ctx.governor;
                  iter_lanes bt (fun i -> Agg_algos.feed_builder b (row_of bt i));
                  go ()
              | None -> child.close ()
            in
            go ();
            Agg_algos.finish_builder ~ordered:(algo = Physical.Sort_agg) b
          end
          else
            let rows =
              drain ~gov:ctx.governor (build ctx counter input ~needed:needed_in)
            in
            match algo with
            | Physical.Hash_agg ->
                (* Parallel feed over the drained rows; degrades to the
                   serial hash_agg for DISTINCT and parallelism 1. *)
                Agg_algos.par_hash_agg ~gov:ctx.governor ~workers:(Pool.parallelism ())
                  ~keys:key_fns ~specs rows
            | Physical.Sort_agg -> Agg_algos.sort_agg ~gov:ctx.governor ~keys:key_fns ~specs rows
        in
        of_rows (ncols plan) (Vec.to_array out)
    | Physical.Window { specs; input; _ } ->
        let all = IntSet.of_list (List.init (ncols input) Fun.id) in
        let rows = drain ~gov:ctx.governor (build ctx counter input ~needed:all) in
        let wspecs =
          List.map
            (fun ((w : Lplan.wspec), _) ->
              {
                Window_algos.kind = w.Lplan.wkind;
                arg = Option.map (fun e row -> Bexpr.eval ~row ~params:ctx.params e) w.Lplan.warg;
                partition =
                  List.map (fun e row -> Bexpr.eval ~row ~params:ctx.params e) w.Lplan.partition;
                order =
                  List.map
                    (fun (e, d) -> ((fun row -> Bexpr.eval ~row ~params:ctx.params e), d))
                    w.Lplan.worder;
                out_dtype = w.Lplan.w_dtype;
              })
            specs
        in
        of_rows (ncols plan) (Window_algos.run ~specs:wspecs rows)
    | Physical.Sort { keys; input; _ } when Governor.can_spill ctx.governor ->
        (* Out-of-core: a keyed spool is an external merge sort. *)
        let needed_in = IntSet.union needed (IntSet.of_list (List.map fst keys)) in
        let set =
          drain_spool ~keys ~name:"sort" ~gov:ctx.governor
            (build ctx counter input ~needed:needed_in)
        in
        of_rows (ncols plan) (Spool.to_array set)
    | Physical.Sort { keys; input; _ } ->
        let needed_in = IntSet.union needed (IntSet.of_list (List.map fst keys)) in
        let rows = drain ~gov:ctx.governor (build ctx counter input ~needed:needed_in) in
        Sort_algos.sort_rows keys rows;
        of_rows (ncols plan) rows
    | Physical.Top_k { k; offset; keys; input; _ } ->
        let needed_in = IntSet.union needed (IntSet.of_list (List.map fst keys)) in
        let child = build ctx counter input ~needed:needed_in in
        let cmp = Sort_algos.row_compare keys in
        let heap =
          Topk.create ~gov:ctx.governor ~bytes:Governor.row_bytes ~keys ~cmp
            ~k:(k + offset) ~dummy:[||] ()
        in
        let rec fill () =
          match child.next_batch () with
          | Some b ->
              iter_lanes b (fun i -> Topk.offer heap (row_of b i));
              fill ()
          | None -> child.close ()
        in
        fill ();
        let sorted = Topk.finish heap in
        let kept =
          if offset >= Array.length sorted then [||]
          else Array.sub sorted offset (Array.length sorted - offset)
        in
        of_rows (ncols plan) kept
    | Physical.Distinct (input, _) ->
        let all = IntSet.of_list (List.init (ncols input) Fun.id) in
        let rows = drain ~gov:ctx.governor (build ctx counter input ~needed:all) in
        of_rows (ncols plan) (Vec.to_array (Agg_algos.distinct ~gov:ctx.governor rows))
    | Physical.Limit { n; offset; input; _ } ->
        let child = build ctx counter input ~needed in
        let skipped = ref 0 and emitted = ref 0 in
        let rec next_batch () =
          match n with
          | Some n when !emitted >= n -> None
          | _ -> (
              match child.next_batch () with
              | None -> None
              | Some b ->
                  let keep = Int_vec.create () in
                  iter_lanes b (fun i ->
                      if !skipped < offset then incr skipped
                      else begin
                        match n with
                        | Some n when !emitted >= n -> ()
                        | _ ->
                            incr emitted;
                            Int_vec.push keep i
                      end);
                  if Int_vec.length keep = 0 then
                    if !emitted > 0 && n <> None && !emitted >= Option.get n then None
                    else next_batch ()
                  else Some { b with sel = Some keep })
        in
        { next_batch; close = child.close }
  in
  observed ctx id it

(** [run ctx plan] executes [plan] batch-at-a-time and returns all rows. *)
let run ctx plan =
  let counter = ref 0 in
  let arity = Quill_storage.Schema.arity (Physical.schema_of plan) in
  drain ~gov:ctx.governor ~result:true
    (build ctx counter plan ~needed:(IntSet.of_list (List.init arity Fun.id)))
