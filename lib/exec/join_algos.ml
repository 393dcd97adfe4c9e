(* The join algorithm library: hash, sort-merge and block nested loops.

   All three consume materialized row arrays and produce concatenated
   (left @ right) rows, so every engine — Volcano, vectorized, compiled —
   shares one implementation per algorithm and engine comparisons (E2)
   measure engine architecture, not algorithm quality.  SQL semantics:
   NULL join keys never match. *)

module Value = Quill_storage.Value
module Vec = Quill_util.Vec
module Hashing = Quill_util.Hashing

type input = Value.t array array

type mode = Inner | Left_outer
(** [Left_outer] preserves every left row, padding the right side with
    NULLs when no right row satisfies keys + residual. *)

(* Key of a row on the given columns; [None] when any component is NULL. *)
let key_of cols (row : Value.t array) =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | c :: rest ->
        let v = row.(c) in
        if Value.is_null v then None else go (v :: acc) rest
  in
  go [] cols

let concat_rows (l : Value.t array) (r : Value.t array) =
  let out = Array.make (Array.length l + Array.length r) Value.Null in
  Array.blit l 0 out 0 (Array.length l);
  Array.blit r 0 out (Array.length l) (Array.length r);
  out

let hash_key k = List.fold_left (fun acc v -> Hashing.combine acc (Value.hash v)) 0 k

let keys_equal a b = List.for_all2 Value.equal a b

(** [hash_join ~keys ~residual ~build_left left right] equi-join by
    building a hash table on one side and probing with the other.
    [keys] are (left col, right col) pairs; [residual] filters
    concatenated candidate rows.  [gov] is ticked per build/probe row and
    charged for the build table and the output. *)
let hash_join ?(gov = Governor.none) ?(mode = Inner) ?right_arity ~keys ~residual
    ~build_left (left : input) (right : input) =
  (* An outer join must probe with the preserved (left) side. *)
  assert (not (mode = Left_outer && build_left));
  let lcols = List.map fst keys and rcols = List.map snd keys in
  let build, probe, bcols, pcols =
    if build_left then (left, right, lcols, rcols) else (right, left, rcols, lcols)
  in
  let table : (int, (Value.t list * Value.t array) list ref) Hashtbl.t =
    Hashtbl.create (max 16 (Array.length build))
  in
  Array.iter
    (fun row ->
      Governor.tick gov;
      match key_of bcols row with
      | None -> ()
      | Some k ->
          Governor.charge_row ~overhead:48 gov row;
          let h = hash_key k in
          (match Hashtbl.find_opt table h with
          | Some l -> l := (k, row) :: !l
          | None -> Hashtbl.add table h (ref [ (k, row) ])))
    build;
  let out = Vec.create ~dummy:[||] in
  let right_arity =
    match right_arity with
    | Some a -> a
    | None -> if Array.length right > 0 then Array.length right.(0) else 0
  in
  let pad l = concat_rows l (Array.make right_arity Value.Null) in
  let emit matched l r =
    let row = concat_rows l r in
    match residual with
    | Some p when not (p row) -> ()
    | _ ->
        matched := true;
        Governor.charge_row gov row;
        Vec.push out row
  in
  Array.iter
    (fun prow ->
      Governor.tick gov;
      let matched = ref false in
      (match key_of pcols prow with
      | None -> ()
      | Some k -> (
          match Hashtbl.find_opt table (hash_key k) with
          | None -> ()
          | Some bucket ->
              List.iter
                (fun (bk, brow) ->
                  if keys_equal bk k then
                    if build_left then emit matched brow prow
                    else emit matched prow brow)
                !bucket));
      if mode = Left_outer && not !matched then Vec.push out (pad prow))
    probe;
  out

(* --- Grace-style hybrid hash join (out-of-core) -------------------------- *)

module Spill = Quill_storage.Spill

let fanout = 8

(* Recursion depth cap: a partition that will not shrink (every row one
   key) stops splitting here and joins in memory — possibly aborting,
   which is the correct "exceeds budget even with spilling" outcome. *)
let max_level = 3

(* Level-salted partition index: each recursion level re-splits with a
   fresh salt, so a level's bucket skew does not survive into the next. *)
let part_index level h =
  (Hashing.combine (Hashing.mix_int (0x5bd1e995 + level)) h land max_int)
  mod fanout

(** [spill_hash_join ~gov ~keys ~residual ~build_left ~right_arity ~emit
    left right] is the out-of-core [hash_join]: a hybrid Grace hash join
    over spooled inputs.  The build side starts as an ordinary in-memory
    hash table registered as a governor spill target (rank 3, the most
    expensive); if budget pressure fires it, the table dumps into
    [fanout] level-salted spill partitions, subsequent build rows stream
    straight to their partition, the probe side is partitioned the same
    way, and each build/probe partition pair recurses (fan-in joins stay
    in memory whenever they now fit — hybrid, not pure Grace).  Output
    rows go to [emit] uncharged; the consumer accounts for whatever it
    retains.  Requires a spill-capable governor. *)
let spill_hash_join ?(mode = Inner) ~gov ~keys ~residual ~build_left
    ~right_arity ~emit (left : Spool.set) (right : Spool.set) =
  assert (not (mode = Left_outer && build_left));
  let sess =
    match Governor.spill_session gov with
    | Some s -> s
    | None -> invalid_arg "spill_hash_join: governor has no spill session"
  in
  let lcols = List.map fst keys and rcols = List.map snd keys in
  let bcols, pcols = if build_left then (lcols, rcols) else (rcols, lcols) in
  let pad =
    let padding = Array.make right_arity Value.Null in
    fun l -> concat_rows l padding
  in
  let emit_pair matched brow prow =
    let row =
      if build_left then concat_rows brow prow else concat_rows prow brow
    in
    match residual with
    | Some p when not (p row) -> ()
    | _ ->
        matched := true;
        emit row
  in
  (* Lazily opened per-partition writers; empty partitions cost nothing. *)
  let writer slots i =
    match slots.(i) with
    | Some w -> w
    | None ->
        let w = Spill.start_run sess in
        slots.(i) <- Some w;
        w
  in
  let finish_all slots =
    Array.init fanout (fun i ->
        match slots.(i) with
        | None -> None
        | Some w ->
            slots.(i) <- None;
            Some (Spill.finish_run w))
  in
  let abandon_all slots =
    Array.iteri
      (fun i w ->
        match w with
        | Some w ->
            slots.(i) <- None;
            (try Spill.abandon w with _ -> ())
        | None -> ())
      slots
  in
  let consume_run run f = Spill.iter_run ~delete:true run f in
  (* [build_feed]/[probe_feed] iterate one level's input rows; level 0
     feeds from the spools, deeper levels from partition runs. *)
  let rec join_level level build_feed probe_feed =
    let table : (int, (Value.t list * Value.t array) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let charged = ref 0 in
    let partitioned = ref false in
    let bwriters = Array.make fanout None in
    let pwriters = Array.make fanout None in
    (* The governor's spill callback: dump the live table into the level's
       partitions and release its memory.  Runs inside [charge] on this
       domain, so it must not charge. *)
    let spill_build () =
      if !partitioned then 0
      else begin
        partitioned := true;
        Spill.note_partitions fanout;
        Hashtbl.iter
          (fun h bucket ->
            List.iter
              (fun (_, row) ->
                Spill.add_row (writer bwriters (part_index level h)) row)
              !bucket)
          table;
        Hashtbl.reset table;
        let released = !charged in
        charged := 0;
        Governor.uncharge gov released;
        released
      end
    in
    let handle =
      if level < max_level then
        Governor.register_spiller gov ~name:"hash-join-build" ~cost:3
          spill_build
      else None
    in
    let unregister () =
      match handle with
      | Some id -> Governor.unregister_spiller gov id
      | None -> ()
    in
    try
      build_feed (fun row ->
          Governor.tick gov;
          match key_of bcols row with
          | None -> ()
          | Some k ->
              let h = hash_key k in
              if !partitioned then
                Spill.add_row (writer bwriters (part_index level h)) row
              else begin
                (* Charge before inserting: the charge may fire
                   [spill_build], which empties the table — the row then
                   belongs to a partition, not the (stale) table. *)
                Governor.charge_row ~overhead:48 gov row;
                if !partitioned then begin
                  Governor.uncharge gov (48 + Governor.row_bytes row);
                  Spill.add_row (writer bwriters (part_index level h)) row
                end
                else begin
                  charged := !charged + 48 + Governor.row_bytes row;
                  match Hashtbl.find_opt table h with
                  | Some l -> l := (k, row) :: !l
                  | None -> Hashtbl.add table h (ref [ (k, row) ])
                end
              end);
      (* The probe retains the table (non-partitioned case): it can no
         longer spill, so deregister before probing.  A parent operator
         that still cannot fit aborts — correctly. *)
      unregister ();
      if not !partitioned then begin
        probe_feed (fun prow ->
            Governor.tick gov;
            let matched = ref false in
            (match key_of pcols prow with
            | None -> ()
            | Some k -> (
                match Hashtbl.find_opt table (hash_key k) with
                | None -> ()
                | Some bucket ->
                    List.iter
                      (fun (bk, brow) ->
                        if keys_equal bk k then emit_pair matched brow prow)
                      !bucket));
            if mode = Left_outer && not !matched then emit (pad prow));
        Governor.uncharge gov !charged;
        charged := 0
      end
      else begin
        let build_runs = finish_all bwriters in
        probe_feed (fun prow ->
            Governor.tick gov;
            match key_of pcols prow with
            | None -> if mode = Left_outer then emit (pad prow)
            | Some k ->
                Spill.add_row
                  (writer pwriters (part_index level (hash_key k)))
                  prow);
        let probe_runs = finish_all pwriters in
        for i = 0 to fanout - 1 do
          match (build_runs.(i), probe_runs.(i)) with
          | None, None -> ()
          | Some b, None -> Spill.delete_run b
          | None, Some p ->
              (* No build rows: inner drops the partition wholesale,
                 outer pads every preserved probe row. *)
              if mode = Left_outer then
                consume_run p (fun prow -> emit (pad prow))
              else Spill.delete_run p
          | Some b, Some p ->
              join_level (level + 1) (consume_run b) (consume_run p)
        done
      end
    with e ->
      unregister ();
      abandon_all bwriters;
      abandon_all pwriters;
      raise e
  in
  let build_set, probe_set = if build_left then (left, right) else (right, left) in
  join_level 0 (Spool.consume build_set) (Spool.consume probe_set)

(** [merge_join ~keys ~residual left right] sorts both inputs on the join
    keys and merges, pairing equal-key runs. *)
let merge_join ?(gov = Governor.none) ?(mode = Inner) ?right_arity ~keys ~residual
    (left : input) (right : input) =
  let lcols = List.map fst keys and rcols = List.map snd keys in
  let lkeys = List.map (fun c -> (c, Quill_plan.Lplan.Asc)) lcols in
  let rkeys = List.map (fun c -> (c, Quill_plan.Lplan.Asc)) rcols in
  (* The sorted copies are shallow (row pointers only). *)
  Governor.charge gov (16 * (Array.length left + Array.length right));
  Governor.check gov;
  let l = Array.copy left and r = Array.copy right in
  Sort_algos.sort_rows lkeys l;
  Sort_algos.sort_rows rkeys r;
  let nl = Array.length l and nr = Array.length r in
  let out = Vec.create ~dummy:[||] in
  let matched = if mode = Left_outer then Array.make nl false else [||] in
  let cmp_rows i j =
    let rec go lc rc =
      match (lc, rc) with
      | [], [] -> 0
      | c1 :: lc, c2 :: rc ->
          let d = Value.compare l.(i).(c1) r.(j).(c2) in
          if d <> 0 then d else go lc rc
      | _ -> assert false
    in
    go lcols rcols
  in
  let has_null_key row cols = List.exists (fun c -> Value.is_null row.(c)) cols in
  let i = ref 0 and j = ref 0 in
  (* NULL keys sort first; they never match (outer mode pads them below). *)
  while !i < nl && has_null_key l.(!i) lcols do incr i done;
  while !j < nr && has_null_key r.(!j) rcols do incr j done;
  while !i < nl && !j < nr do
    Governor.tick gov;
    let c = cmp_rows !i !j in
    if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      (* Equal-key runs on both sides: emit the cross product. *)
      let i0 = !i and j0 = !j in
      let same_l k = k < nl && cmp_rows k !j = 0 in
      let same_r k = k < nr && cmp_rows !i k = 0 in
      let i1 = ref i0 and j1 = ref j0 in
      while same_l !i1 do incr i1 done;
      while same_r !j1 do incr j1 done;
      for a = i0 to !i1 - 1 do
        for b = j0 to !j1 - 1 do
          Governor.tick gov;
          let row = concat_rows l.(a) r.(b) in
          match residual with
          | Some p when not (p row) -> ()
          | _ ->
              if mode = Left_outer then matched.(a) <- true;
              Governor.charge_row gov row;
              Vec.push out row
        done
      done;
      i := !i1;
      j := !j1
    end
  done;
  if mode = Left_outer then begin
    let right_arity =
      match right_arity with
      | Some a -> a
      | None -> if nr > 0 then Array.length r.(0) else 0
    in
    let padding = Array.make right_arity Value.Null in
    Array.iteri
      (fun a lrow -> if not matched.(a) then Vec.push out (concat_rows lrow padding))
      l
  end;
  out

(** [block_nl_join ~pred left right] nested loops in cache-friendly blocks;
    [pred] sees the concatenated row ([None] = cross join).  [gov] ticks
    per candidate pair, so a runaway cross join aborts within one tick
    window of its deadline. *)
let block_nl_join ?(gov = Governor.none) ?(mode = Inner) ?right_arity ~pred
    (left : input) (right : input) =
  let out = Vec.create ~dummy:[||] in
  let block = 256 in
  let nl = Array.length left in
  let matched = if mode = Left_outer then Array.make nl false else [||] in
  let lo = ref 0 in
  while !lo < nl do
    let hi = min nl (!lo + block) in
    Array.iter
      (fun rrow ->
        for i = !lo to hi - 1 do
          Governor.tick gov;
          let row = concat_rows left.(i) rrow in
          match pred with
          | Some p when not (p row) -> ()
          | _ ->
              if mode = Left_outer then matched.(i) <- true;
              Governor.charge_row gov row;
              Vec.push out row
        done)
      right;
    lo := hi
  done;
  if mode = Left_outer then begin
    let right_arity =
      match right_arity with
      | Some a -> a
      | None -> if Array.length right > 0 then Array.length right.(0) else 0
    in
    let padding = Array.make right_arity Value.Null in
    Array.iteri
      (fun i lrow -> if not matched.(i) then Vec.push out (concat_rows lrow padding))
      left
  end;
  out
