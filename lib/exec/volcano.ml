(* The Volcano engine: classic tuple-at-a-time iterators.

   Every operator exposes [next : unit -> row option]; pipeline breakers
   (join, aggregate, sort, distinct) drain their child into an array and
   hand it to the shared algorithm library.  This engine is the
   architecture-oblivious baseline of experiment E2: per-tuple dynamic
   dispatch and boxed values throughout. *)

module Value = Quill_storage.Value
module Table = Quill_storage.Table
module Catalog = Quill_storage.Catalog
module Column = Quill_storage.Column
module Vec = Quill_util.Vec
module Bexpr = Quill_plan.Bexpr
module Lplan = Quill_plan.Lplan
module Physical = Quill_optimizer.Physical

type ctx = Exec_ctx.t = {
  catalog : Catalog.t;
  params : Value.t array;
  profile : Profile.t option;
  governor : Governor.t;
}

type iter = { next : unit -> Value.t array option; close : unit -> unit }

(* Rows pulled out of base-table scans, flushed to the registry once per
   exhausted scan so the per-tuple hot loop stays free of atomics. *)
let m_rows_scanned = Quill_obs.Metrics.counter "quill.exec.rows_scanned"

let observed ctx id iter =
  match ctx.profile with
  | None -> iter
  | Some p ->
      {
        iter with
        next =
          (fun () ->
            let t0 = Quill_util.Timer.now () in
            let r = iter.next () in
            Profile.add_time p id (Quill_util.Timer.now () -. t0);
            if r <> None then Profile.bump p id;
            r);
      }

(* Pipeline breakers materialize through [drain]; it is where the
   governor sees every buffered row (budget) and where blocking operators
   keep polling the deadline even when their children don't.  [~result]
   marks the top-level result drain, whose rows are charged as result
   delivery (uncharged in spill mode). *)
let drain ?(gov = Governor.none) ?(result = false) iter =
  let out = Vec.create ~dummy:[||] in
  let rec go () =
    match iter.next () with
    | Some row ->
        Governor.tick gov;
        if result then Governor.charge_result gov row
        else Governor.charge_row gov row;
        Vec.push out row;
        go ()
    | None -> iter.close ()
  in
  go ();
  Vec.to_array out

(* Out-of-core drain: buffer the child through a governor-registered
   spool, which dumps to spill runs instead of dying under the budget. *)
let drain_spool ?keys ~name ~gov iter =
  let sp = Spool.create ?keys ~name gov in
  let rec go () =
    match iter.next () with
    | Some row ->
        Spool.add sp row;
        go ()
    | None -> iter.close ()
  in
  go ();
  Spool.finish sp

let of_array rows =
  let pos = ref 0 in
  {
    next =
      (fun () ->
        if !pos < Array.length rows then begin
          let r = rows.(!pos) in
          incr pos;
          Some r
        end
        else None);
    close = ignore;
  }

let of_vec vec =
  let pos = ref 0 in
  {
    next =
      (fun () ->
        if !pos < Vec.length vec then begin
          let r = Vec.get vec !pos in
          incr pos;
          Some r
        end
        else None);
    close = ignore;
  }

let pred_fn ctx e row = Bexpr.eval_pred ~row ~params:ctx.params e

(* Preorder operator numbering shared with the profile. *)
let rec build ctx counter plan : iter =
  let id = !counter in
  incr counter;
  let it =
    match plan with
    | Physical.One_row ->
        let done_ = ref false in
        {
          next =
            (fun () ->
              if !done_ then None
              else begin
                done_ := true;
                Some [||]
              end);
          close = ignore;
        }
    | Physical.Scan { table; layout; filter; _ } ->
        let t = Catalog.find_exn ctx.catalog table in
        let n = Table.row_count t in
        let fetch =
          match layout with
          | Physical.Row_layout -> fun i -> Array.copy (Table.get_row t i)
          | Physical.Col_layout ->
              let cols = Table.columnar t in
              fun i -> Array.map (fun c -> Column.get c i) cols
        in
        let pos = ref 0 in
        let flushed = ref false in
        let rec next () =
          Governor.tick ctx.governor;
          if !pos >= n then begin
            if not !flushed then begin
              flushed := true;
              Quill_obs.Metrics.add m_rows_scanned n
            end;
            None
          end
          else begin
            let row = fetch !pos in
            incr pos;
            match filter with
            | Some f when not (pred_fn ctx f row) -> next ()
            | _ -> Some row
          end
        in
        { next; close = ignore }
    | Physical.Index_scan { table; col; lo; hi; residual; _ } ->
        let t = Catalog.find_exn ctx.catalog table in
        let lo = Index_access.eval_bound ~params:ctx.params lo in
        let hi = Index_access.eval_bound ~params:ctx.params hi in
        let ids = Index_access.rowids t ~col ~lo ~hi in
        let remaining = ref ids in
        let rec next () =
          Governor.tick ctx.governor;
          match !remaining with
          | [] -> None
          | i :: rest ->
              remaining := rest;
              let row = Array.copy (Table.get_row t i) in
              (match residual with
              | Some f when not (pred_fn ctx f row) -> next ()
              | _ -> Some row)
        in
        { next; close = ignore }
    | Physical.Filter (pred, input, _) ->
        let child = build ctx counter input in
        let rec next () =
          match child.next () with
          | None -> None
          | Some row -> if pred_fn ctx pred row then Some row else next ()
        in
        { next; close = child.close }
    | Physical.Project (items, input, _) ->
        let child = build ctx counter input in
        let exprs = Array.of_list (List.map fst items) in
        {
          next =
            (fun () ->
              match child.next () with
              | None -> None
              | Some row ->
                  Some (Array.map (fun e -> Bexpr.eval ~row ~params:ctx.params e) exprs));
          close = child.close;
        }
    | Physical.Join
        { algo = Physical.Hash_join; kind; keys; residual; build_left; left; right; _ }
      when Governor.can_spill ctx.governor ->
        (* Out-of-core: spool both sides (spillable) and Grace-join them. *)
        let gov = ctx.governor in
        let lset = drain_spool ~name:"join-input" ~gov (build ctx counter left) in
        let rset = drain_spool ~name:"join-input" ~gov (build ctx counter right) in
        let residual_fn = Option.map (fun e -> pred_fn ctx e) residual in
        let mode =
          match kind with Lplan.Inner -> Join_algos.Inner | Lplan.Left_outer -> Join_algos.Left_outer
        in
        let right_arity = Quill_storage.Schema.arity (Physical.schema_of right) in
        let out = Vec.create ~dummy:[||] in
        Join_algos.spill_hash_join ~gov ~mode ~keys ~residual:residual_fn
          ~build_left ~right_arity ~emit:(Vec.push out) lset rset;
        of_vec out
    | Physical.Join { algo; kind; keys; residual; build_left; left; right; _ } ->
        let gov = ctx.governor in
        let lrows = drain ~gov (build ctx counter left) in
        let rrows = drain ~gov (build ctx counter right) in
        let residual_fn = Option.map (fun e -> pred_fn ctx e) residual in
        let mode =
          match kind with Lplan.Inner -> Join_algos.Inner | Lplan.Left_outer -> Join_algos.Left_outer
        in
        let right_arity = Quill_storage.Schema.arity (Physical.schema_of right) in
        let out =
          match algo with
          | Physical.Hash_join ->
              Join_algos.hash_join ~gov ~mode ~right_arity ~keys ~residual:residual_fn
                ~build_left lrows rrows
          | Physical.Merge_join ->
              Join_algos.merge_join ~gov ~mode ~right_arity ~keys ~residual:residual_fn
                lrows rrows
          | Physical.Block_nl ->
              Join_algos.block_nl_join ~gov ~mode ~right_arity ~pred:residual_fn lrows rrows
        in
        of_vec out
    | Physical.Aggregate { algo; keys; aggs; input; _ } ->
        let key_fns =
          List.map (fun (e, _) row -> Bexpr.eval ~row ~params:ctx.params e) keys
        in
        let specs =
          List.map
            (fun (a, _) ->
              {
                Agg_algos.kind = a.Lplan.kind;
                arg =
                  Option.map
                    (fun e row -> Bexpr.eval ~row ~params:ctx.params e)
                    a.Lplan.arg;
                distinct = a.Lplan.distinct;
                out_dtype = a.Lplan.out_dtype;
              })
            aggs
        in
        let out =
          if Governor.can_spill ctx.governor then begin
            (* Out-of-core: stream rows into a spillable group builder
               instead of materializing the input first. *)
            let b =
              Agg_algos.create_builder ~gov:ctx.governor ~keys:key_fns ~specs ()
            in
            let child = build ctx counter input in
            let rec go () =
              match child.next () with
              | Some row ->
                  Agg_algos.feed_builder b row;
                  go ()
              | None -> child.close ()
            in
            go ();
            Agg_algos.finish_builder ~ordered:(algo = Physical.Sort_agg) b
          end
          else
            let rows = drain ~gov:ctx.governor (build ctx counter input) in
            match algo with
            | Physical.Hash_agg ->
                Agg_algos.hash_agg ~gov:ctx.governor ~keys:key_fns ~specs rows
            | Physical.Sort_agg ->
                Agg_algos.sort_agg ~gov:ctx.governor ~keys:key_fns ~specs rows
        in
        of_vec out
    | Physical.Window { specs; input; _ } ->
        let rows = drain ~gov:ctx.governor (build ctx counter input) in
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
        of_array (Window_algos.run ~specs:wspecs rows)
    | Physical.Sort { keys; input; _ } when Governor.can_spill ctx.governor ->
        (* Out-of-core: a keyed spool is an external merge sort. *)
        let set =
          drain_spool ~keys ~name:"sort" ~gov:ctx.governor
            (build ctx counter input)
        in
        of_array (Spool.to_array set)
    | Physical.Sort { keys; input; _ } ->
        let rows = drain ~gov:ctx.governor (build ctx counter input) in
        Sort_algos.sort_rows keys rows;
        of_array rows
    | Physical.Top_k { k; offset; keys; input; _ } ->
        let child = build ctx counter input in
        let cmp = Sort_algos.row_compare keys in
        let heap =
          Topk.create ~gov:ctx.governor ~bytes:Governor.row_bytes ~keys ~cmp
            ~k:(k + offset) ~dummy:[||] ()
        in
        let rec fill () =
          match child.next () with
          | Some row ->
              Topk.offer heap row;
              fill ()
          | None -> child.close ()
        in
        fill ();
        let sorted = Topk.finish heap in
        let kept =
          if offset >= Array.length sorted then [||]
          else Array.sub sorted offset (Array.length sorted - offset)
        in
        of_array kept
    | Physical.Distinct (input, _) ->
        let rows = drain ~gov:ctx.governor (build ctx counter input) in
        of_vec (Agg_algos.distinct ~gov:ctx.governor rows)
    | Physical.Limit { n; offset; input; _ } ->
        let child = build ctx counter input in
        let emitted = ref 0 and skipped = ref 0 in
        let rec next () =
          match n with
          | Some n when !emitted >= n -> None
          | _ -> (
              match child.next () with
              | None -> None
              | Some row ->
                  if !skipped < offset then begin
                    incr skipped;
                    next ()
                  end
                  else begin
                    incr emitted;
                    Some row
                  end)
        in
        { next; close = child.close }
  in
  observed ctx id it

(** [run ctx plan] executes [plan] and returns all result rows. *)
let run ctx plan =
  let counter = ref 0 in
  drain ~gov:ctx.governor ~result:true (build ctx counter plan)
