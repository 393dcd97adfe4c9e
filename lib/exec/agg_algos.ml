(* The aggregation algorithm library: hash and sort-based grouping.

   Aggregate state supports COUNT/SUM/AVG/MIN/MAX with optional DISTINCT.
   SQL semantics: NULL inputs are ignored by all aggregates except
   COUNT star; SUM/AVG/MIN/MAX over zero non-null inputs yield NULL; a
   global aggregate (no keys) over an empty input still emits one row. *)

module Value = Quill_storage.Value
module Lplan = Quill_plan.Lplan
module Vec = Quill_util.Vec

type spec = {
  kind : Lplan.agg_kind;
  arg : (Value.t array -> Value.t) option;  (** evaluated argument; None = star *)
  distinct : bool;
  out_dtype : Value.dtype;
}

type state = {
  mutable count : int;
  mutable sum_i : int;
  mutable sum_f : float;
  mutable saw_float : bool;
  mutable non_null : int;
  mutable min_v : Value.t;
  mutable max_v : Value.t;
  seen : (Value.t, unit) Hashtbl.t option;  (** DISTINCT dedup *)
}

let new_state spec =
  {
    count = 0;
    sum_i = 0;
    sum_f = 0.0;
    saw_float = false;
    non_null = 0;
    min_v = Value.Null;
    max_v = Value.Null;
    seen = (if spec.distinct then Some (Hashtbl.create 16) else None);
  }

let feed spec st (row : Value.t array) =
  st.count <- st.count + 1;
  match spec.arg with
  | None -> st.non_null <- st.non_null + 1 (* COUNT star counts all rows *)
  | Some eval -> (
      let v = eval row in
      if not (Value.is_null v) then begin
        let fresh =
          match st.seen with
          | None -> true
          | Some tbl ->
              if Hashtbl.mem tbl v then false
              else begin
                Hashtbl.add tbl v ();
                true
              end
        in
        if fresh then begin
          st.non_null <- st.non_null + 1;
          (match v with
          | Value.Int i -> st.sum_i <- st.sum_i + i
          | Value.Float f ->
              st.saw_float <- true;
              st.sum_f <- st.sum_f +. f
          | _ -> ());
          if Value.is_null st.min_v || Value.compare v st.min_v < 0 then st.min_v <- v;
          if Value.is_null st.max_v || Value.compare v st.max_v > 0 then st.max_v <- v
        end
      end)

(** [merge_state spec dst src] folds the partial aggregate [src] into
    [dst] — the combine step of parallel aggregation, where each worker
    feeds a private state and partials merge at the end.  Merging is only
    defined for non-DISTINCT aggregates: a DISTINCT state's dedup table is
    scoped to the rows one worker saw, so merged counts would double-count
    values seen by several workers. *)
let merge_state spec dst src =
  if spec.distinct || dst.seen <> None || src.seen <> None then
    invalid_arg "Agg_algos.merge_state: DISTINCT states cannot be merged";
  dst.count <- dst.count + src.count;
  dst.sum_i <- dst.sum_i + src.sum_i;
  dst.sum_f <- dst.sum_f +. src.sum_f;
  dst.saw_float <- dst.saw_float || src.saw_float;
  dst.non_null <- dst.non_null + src.non_null;
  (* min/max: Null means "no non-null input yet" on either side. *)
  if
    (not (Value.is_null src.min_v))
    && (Value.is_null dst.min_v || Value.compare src.min_v dst.min_v < 0)
  then dst.min_v <- src.min_v;
  if
    (not (Value.is_null src.max_v))
    && (Value.is_null dst.max_v || Value.compare src.max_v dst.max_v > 0)
  then dst.max_v <- src.max_v

let finish spec st =
  match spec.kind with
  | Lplan.Count -> Value.Int st.non_null
  | Lplan.Sum ->
      if st.non_null = 0 then Value.Null
      else if spec.out_dtype = Value.Float_t then
        Value.Float (st.sum_f +. Float.of_int st.sum_i)
      else Value.Int st.sum_i
  | Lplan.Avg ->
      if st.non_null = 0 then Value.Null
      else Value.Float ((st.sum_f +. Float.of_int st.sum_i) /. Float.of_int st.non_null)
  | Lplan.Min -> st.min_v
  | Lplan.Max -> st.max_v

type input = Value.t array array

let output_row keys_vals states specs =
  Array.append (Array.of_list keys_vals)
    (Array.of_list (List.map2 finish specs states))

(* Estimated heap bytes of one fresh group: table slot + boxed key values
   + one state record per aggregate. *)
let group_bytes k nspecs =
  List.fold_left (fun acc v -> acc + Governor.value_bytes v) (48 + (96 * nspecs)) k

(* One upsert into a group table: find-or-create the key's states and feed
   the row.  [order] records first-seen key order for emission.  [gov] is
   ticked per row and charged per fresh group, which is how a budget
   bounds a high-cardinality GROUP BY before its table grows unbounded. *)
let upsert ?(gov = Governor.none) ~keys ~specs
    (groups : (Value.t list, state list) Hashtbl.t) order row =
  Governor.tick gov;
  let k = List.map (fun f -> f row) keys in
  let states =
    match Hashtbl.find_opt groups k with
    | Some s -> s
    | None ->
        Governor.charge gov (group_bytes k (List.length specs));
        let s = List.map new_state specs in
        Hashtbl.add groups k s;
        Vec.push order k;
        s
  in
  List.iter2 (fun spec st -> feed spec st row) specs states

let emit_groups ~keys ~specs (groups : (Value.t list, state list) Hashtbl.t) order =
  let out = Vec.create ~dummy:[||] in
  if keys = [] && Vec.length order = 0 then
    Vec.push out (output_row [] (List.map new_state specs) specs)
  else
    Vec.iter
      (fun k -> Vec.push out (output_row k (Hashtbl.find groups k) specs))
      order;
  out

(** [hash_agg ~keys ~specs rows] groups by hashing the evaluated key
    values. [keys] evaluate a row to one grouping value each.  With no
    keys, always emits exactly one (global) row. *)
let hash_agg ?gov ~(keys : (Value.t array -> Value.t) list) ~specs (rows : input) =
  let groups : (Value.t list, state list) Hashtbl.t = Hashtbl.create 64 in
  let order = Vec.create ~dummy:[] in
  Array.iter (upsert ?gov ~keys ~specs groups order) rows;
  emit_groups ~keys ~specs groups order

(** [merge_group_tables ~specs (g, o) (g2, o2)] folds the partial group
    table [(g2, o2)] into [(g, o)]: shared keys merge state-wise with
    {!merge_state}, unseen keys move over and append to [o]'s first-seen
    order.  The combine step of parallel grouped aggregation. *)
let merge_group_tables ~specs
    (((g, o) : (Value.t list, state list) Hashtbl.t * Value.t list Vec.t)) (g2, o2) =
  Vec.iter
    (fun k ->
      let s2 = Hashtbl.find g2 k in
      match Hashtbl.find_opt g k with
      | Some s ->
          List.iter2
            (fun (spec, st) st2 -> merge_state spec st st2)
            (List.combine specs s) s2
      | None ->
          Hashtbl.add g k s2;
          Vec.push o k)
    o2

(** [par_hash_agg ~workers ~keys ~specs rows] is {!hash_agg} with the feed
    loop morsel-parallelized: each worker upserts the row morsels it wins
    into a private table; partials merge group-wise with {!merge_state}.
    Key and argument closures must be pure (they run on pool domains).
    DISTINCT states cannot be merged, so those fall back to the serial
    path — as does everything else when [workers] is 1.  Group emission
    order is first-seen order of the merged table, which under parallelism
    depends on morsel scheduling: unordered, as SQL grouping output is. *)
let par_hash_agg ?gov ~workers ~(keys : (Value.t array -> Value.t) list) ~specs
    (rows : input) =
  if List.exists (fun s -> s.distinct) specs then hash_agg ?gov ~keys ~specs rows
  else begin
    let groups, order =
      Quill_parallel.Driver.fold ~workers ~n:(Array.length rows)
        ~init:(fun () ->
          ( (Hashtbl.create 64 : (Value.t list, state list) Hashtbl.t),
            Vec.create ~dummy:([] : Value.t list) ))
        ~range:(fun (g, o) lo hi ->
          for i = lo to hi - 1 do
            upsert ?gov ~keys ~specs g o rows.(i)
          done)
        ~merge:(merge_group_tables ~specs)
    in
    emit_groups ~keys ~specs groups order
  end

(** [sort_agg ~keys ~specs rows] sorts rows by their key values and folds
    consecutive runs; produces groups in key order. *)
let sort_agg ?(gov = Governor.none) ~(keys : (Value.t array -> Value.t) list) ~specs
    (rows : input) =
  if keys = [] then hash_agg ~gov ~keys ~specs rows
  else begin
    (* Materialize (key values, row) pairs and sort on the keys. *)
    let nk = List.length keys in
    let pairs =
      Array.map
        (fun row ->
          Governor.tick gov;
          let k = Array.of_list (List.map (fun f -> f row) keys) in
          Governor.charge_row ~overhead:24 gov k;
          (k, row))
        rows
    in
    let cmp (ka, _) (kb, _) =
      let rec go i =
        if i >= nk then 0
        else
          let c = Value.compare ka.(i) kb.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
    in
    Sort_algos.mergesort cmp pairs;
    let out = Vec.create ~dummy:[||] in
    let n = Array.length pairs in
    let i = ref 0 in
    while !i < n do
      let k, _ = pairs.(!i) in
      let states = List.map new_state specs in
      while !i < n && cmp pairs.(!i) (k, [||]) = 0 do
        Governor.tick gov;
        let _, row = pairs.(!i) in
        List.iter2 (fun spec st -> feed spec st row) specs states;
        incr i
      done;
      Vec.push out (output_row (Array.to_list k) states specs)
    done;
    out
  end

(* --- Spillable group-table builder (out-of-core aggregation) ------------- *)

module Spill = Quill_storage.Spill

(* A group's serialized image: the key values followed by a fixed 7-value
   state snapshot per aggregate.  DISTINCT states carry a dedup table and
   are not serializable, so DISTINCT builders simply never spill. *)
let state_image st =
  [
    Value.Int st.count;
    Value.Int st.sum_i;
    Value.Float st.sum_f;
    Value.Bool st.saw_float;
    Value.Int st.non_null;
    st.min_v;
    st.max_v;
  ]

let state_width = 7

let state_of_image (row : Value.t array) pos =
  match (row.(pos), row.(pos + 1), row.(pos + 2), row.(pos + 3), row.(pos + 4)) with
  | Value.Int count, Value.Int sum_i, Value.Float sum_f, Value.Bool saw_float,
    Value.Int non_null ->
      {
        count;
        sum_i;
        sum_f;
        saw_float;
        non_null;
        min_v = row.(pos + 5);
        max_v = row.(pos + 6);
        seen = None;
      }
  | _ -> raise (Spill.Error "spill: corrupt aggregate state image")

let compare_key_lists a b =
  let rec go a b =
    match (a, b) with
    | [], [] -> 0
    | x :: a, y :: b ->
        let c = Value.compare x y in
        if c <> 0 then c else go a b
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
  in
  go a b

type builder = {
  b_gov : Governor.t;
  b_keys : (Value.t array -> Value.t) list;
  b_specs : spec list;
  b_nspecs : int;
  b_groups : (Value.t list, state list) Hashtbl.t;
  b_order : Value.t list Vec.t;  (** first-seen key order *)
  mutable b_charged : int;  (** live bytes this builder holds *)
  mutable b_runs : Spill.run list;  (** newest first; each key-sorted *)
  mutable b_handle : int option;
  b_session : Spill.t option;
}

(* Snapshot the live table as a key-sorted (key, states) array — the shape
   both spilled runs and the final merge work over. *)
let sorted_entries b =
  let v = Vec.create ~dummy:([], []) in
  Vec.iter (fun k -> Vec.push v (k, Hashtbl.find b.b_groups k)) b.b_order;
  let a = Vec.to_array v in
  Array.sort (fun (x, _) (y, _) -> compare_key_lists x y) a;
  a

(* The builder's governor spill callback: dump the table as one key-sorted
   run and release its memory.  Runs inside [charge]; must not charge. *)
let spill_builder b =
  match b.b_session with
  | None -> 0
  | Some sess ->
      if Hashtbl.length b.b_groups = 0 then 0
      else begin
        let entries = sorted_entries b in
        let w = Spill.start_run sess in
        let run =
          match
            Array.iter
              (fun (k, states) ->
                Spill.add_row w
                  (Array.of_list (k @ List.concat_map state_image states)))
              entries;
            Spill.finish_run w
          with
          | run -> run
          | exception e ->
              Spill.abandon w;
              raise e
        in
        b.b_runs <- run :: b.b_runs;
        Hashtbl.reset b.b_groups;
        Vec.clear b.b_order;
        let released = b.b_charged in
        b.b_charged <- 0;
        Governor.uncharge b.b_gov released;
        released
      end

(** [create_builder ?gov ~keys ~specs ()] makes an incremental group
    table.  With a spill-capable governor (and no DISTINCT aggregate) it
    registers as a rank-2 spill target: under pressure the partial table
    dumps as a key-sorted run and {!finish_builder} merges the runs with
    {!merge_state}. *)
let create_builder ?(gov = Governor.none) ~keys ~specs () =
  let distinct = List.exists (fun s -> s.distinct) specs in
  {
    b_gov = gov;
    b_keys = keys;
    b_specs = specs;
    b_nspecs = List.length specs;
    b_groups = Hashtbl.create 64;
    b_order = Vec.create ~dummy:[];
    b_charged = 0;
    b_runs = [];
    b_handle = None;
    b_session = (if distinct then None else Governor.spill_session gov);
  }

(* Spiller registration is deferred to the first upsert so the hook lands
   on the domain that actually feeds the table: parallel workers' builders
   are created by the coordinator ([Pdriver.fold]'s [init]), and a hook
   registered there would let the coordinator's relieve pass reset a table
   a worker is concurrently upserting. *)
let ensure_registered b =
  if b.b_session <> None && b.b_handle = None then
    b.b_handle <-
      Governor.register_spiller b.b_gov ~name:"hash-agg" ~cost:2 (fun () ->
          spill_builder b)

(** [feed_builder b row] upserts one row.  The fresh-group charge may
    spill (and reset) the table mid-call; the new group then lands in the
    fresh table — charge-before-insert keeps the two consistent. *)
let feed_builder b row =
  ensure_registered b;
  Governor.tick b.b_gov;
  let k = List.map (fun f -> f row) b.b_keys in
  let states =
    match Hashtbl.find_opt b.b_groups k with
    | Some s -> s
    | None ->
        let bytes = group_bytes k b.b_nspecs in
        Governor.charge b.b_gov bytes;
        b.b_charged <- b.b_charged + bytes;
        let s = List.map new_state b.b_specs in
        Hashtbl.add b.b_groups k s;
        Vec.push b.b_order k;
        s
  in
  List.iter2 (fun spec st -> feed spec st row) b.b_specs states

(** [merge_builders dst src] folds a worker's partial builder into [dst]:
    in-memory tables merge group-wise, spilled runs pool (the final merge
    is key-based, so provenance does not matter). *)
let merge_builders dst src =
  (match src.b_handle with
  | Some id -> Governor.unregister_spiller src.b_gov id
  | None -> ());
  src.b_handle <- None;
  merge_group_tables ~specs:dst.b_specs (dst.b_groups, dst.b_order)
    (src.b_groups, src.b_order);
  dst.b_runs <- src.b_runs @ dst.b_runs;
  dst.b_charged <- dst.b_charged + src.b_charged;
  src.b_charged <- 0

(* One-element lookahead over a pull stream. *)
let lookahead next =
  let cur = ref None and filled = ref false in
  let peek () =
    if not !filled then begin
      cur := next ();
      filled := true
    end;
    !cur
  in
  let advance () = filled := false in
  (peek, advance)

(** [finish_builder ?ordered b] emits the group rows and releases the
    builder's memory.  Never-spilled builders emit in first-seen order
    ([emit_groups]), or key-ascending with [~ordered:true] (the
    [sort_agg] contract); spilled builders k-way merge their key-sorted
    runs with the in-memory remainder — external aggregation — and emit
    key-ascending. *)
let finish_builder ?(ordered = false) b =
  (match b.b_handle with
  | Some id -> Governor.unregister_spiller b.b_gov id
  | None -> ());
  b.b_handle <- None;
  let specs = b.b_specs in
  let release () =
    Governor.uncharge b.b_gov b.b_charged;
    b.b_charged <- 0
  in
  match b.b_runs with
  | [] ->
      let out =
        if ordered && b.b_keys <> [] then begin
          let entries = sorted_entries b in
          let out = Vec.create ~dummy:[||] in
          Array.iter
            (fun (k, states) -> Vec.push out (output_row k states specs))
            entries;
          out
        end
        else emit_groups ~keys:b.b_keys ~specs b.b_groups b.b_order
      in
      release ();
      out
  | runs ->
      Spill.note_merge ();
      let nk = List.length b.b_keys in
      let decode_entry (row : Value.t array) =
        if Array.length row <> nk + (state_width * b.b_nspecs) then
          raise (Spill.Error "spill: corrupt aggregate run row");
        let k = Array.to_list (Array.sub row 0 nk) in
        let states =
          List.init b.b_nspecs (fun i ->
              state_of_image row (nk + (state_width * i)))
        in
        (k, states)
      in
      let run_stream run =
        let rd = Spill.open_run run in
        let batch = ref [||] and i = ref 0 and closed = ref false in
        let rec next () =
          if !closed then None
          else if !i < Array.length !batch then begin
            let e = !batch.(!i) in
            incr i;
            Some (decode_entry e)
          end
          else
            match Spill.next_batch rd with
            | Some rows ->
                batch := rows;
                i := 0;
                next ()
            | None ->
                closed := true;
                Spill.close_reader ~delete:true rd;
                None
        in
        lookahead next
      in
      let mem_stream =
        let mem = sorted_entries b in
        let i = ref 0 in
        lookahead (fun () ->
            if !i < Array.length mem then begin
              let e = mem.(!i) in
              incr i;
              Some e
            end
            else None)
      in
      let streams =
        Array.of_list (mem_stream :: List.map run_stream (List.rev runs))
      in
      let out = Vec.create ~dummy:[||] in
      let continue_ = ref true in
      while !continue_ do
        Governor.tick b.b_gov;
        (* Minimum key across stream heads; each stream holds any key at
           most once, so equal heads merge with one advance apiece. *)
        let best = ref None in
        Array.iter
          (fun (peek, _) ->
            match peek () with
            | Some (k, _) -> (
                match !best with
                | Some bk when compare_key_lists bk k <= 0 -> ()
                | _ -> best := Some k)
            | None -> ())
          streams;
        match !best with
        | None -> continue_ := false
        | Some k ->
            let acc = ref None in
            Array.iter
              (fun (peek, advance) ->
                match peek () with
                | Some (k2, states) when compare_key_lists k2 k = 0 -> (
                    advance ();
                    match !acc with
                    | None -> acc := Some states
                    | Some dst ->
                        List.iter2
                          (fun (spec, d) s -> merge_state spec d s)
                          (List.combine specs dst) states)
                | _ -> ())
              streams;
            (match !acc with
            | Some states -> Vec.push out (output_row k states specs)
            | None -> ())
      done;
      release ();
      out

(** [distinct rows] removes duplicate rows (whole-row comparison with SQL
    "NULLs are not distinct from each other" semantics), preserving first
    occurrence order. *)
let distinct ?(gov = Governor.none) (rows : input) =
  let seen : (Value.t list, unit) Hashtbl.t = Hashtbl.create 64 in
  let out = Vec.create ~dummy:[||] in
  Array.iter
    (fun row ->
      Governor.tick gov;
      let k = Array.to_list row in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        Governor.charge_row ~overhead:48 gov row;
        Vec.push out row
      end)
    rows;
  out
