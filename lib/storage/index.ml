(* Secondary indexes over a single column.

   Two flavours, matching the two probe patterns the picker chooses
   between: a hash index for equality lookups and an ordered index (sorted
   (key, rowid) pairs with binary search) for range scans.  NULL keys are
   not indexed, mirroring standard SQL index semantics.

   Ordered indexes are cached projections of a table version, like its
   columnar form: built on first use, dropped by in-place writes, and
   carried across MVCC commits by {!Ordered_index.derive}, which patches
   the previous version's sorted arrays with the commit's row footprint. *)

module Hash_index = struct
  type t = { buckets : (Value.t, int list) Hashtbl.t }

  (** [build table col] indexes column [col] of [table]. *)
  let build table col =
    let buckets = Hashtbl.create (max 16 (Table.row_count table)) in
    for i = 0 to Table.row_count table - 1 do
      let v = Table.get table i col in
      if not (Value.is_null v) then
        Hashtbl.replace buckets v (i :: (Option.value ~default:[] (Hashtbl.find_opt buckets v)))
    done;
    { buckets }

    (** [lookup t v] returns rowids whose key equals [v] (empty for NULL). *)
  let lookup t v =
    if Value.is_null v then [] else Option.value ~default:[] (Hashtbl.find_opt t.buckets v)

  (** [distinct_keys t] is the number of distinct indexed keys. *)
  let distinct_keys t = Hashtbl.length t.buckets
end

module Ordered_index = struct
  type t = Table.sorted_index = { keys : Value.t array; rowids : int array }

  let m_builds = Quill_obs.Metrics.counter "quill.index.builds"
  let m_derives = Quill_obs.Metrics.counter "quill.index.derives"
  let h_build_seconds = Quill_obs.Metrics.histogram "quill.index.build_seconds"

  let entry_compare (a, i) (b, j) =
    let c = Value.compare a b in
    if c <> 0 then c else Int.compare i j

  (** [build table col] builds a fresh sorted index over column [col],
      bypassing the table's cache. *)
  let build table col =
    let pairs = ref [] in
    for i = Table.row_count table - 1 downto 0 do
      let v = Table.get table i col in
      if not (Value.is_null v) then pairs := (v, i) :: !pairs
    done;
    let arr = Array.of_list !pairs in
    Array.sort entry_compare arr;
    { keys = Array.map fst arr; rowids = Array.map snd arr }

  (** [of_table table col] is the index cached on this table version,
      built (and counted in [quill.index.builds]) on first use.  Two
      domains may build concurrently; one build wins. *)
  let of_table table col =
    match Table.cached_index table col with
    | Some idx -> idx
    | None ->
        let idx, dt = Quill_util.Timer.time (fun () -> build table col) in
        Quill_obs.Metrics.incr m_builds;
        Quill_obs.Metrics.observe h_build_seconds dt;
        Table.cache_index table col idx

  (* Position of the entry (v, i), which must be present: the index is
     sorted by (key, rowid), so binary search on the pair. *)
  let position t (v, i) =
    let lo = ref 0 and hi = ref (Array.length t.keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if entry_compare (t.keys.(mid), t.rowids.(mid)) (v, i) < 0 then lo := mid + 1
      else hi := mid
    done;
    assert (!lo < Array.length t.keys && t.rowids.(!lo) = i);
    !lo

  (* First position whose entry sorts after (v, i). *)
  let insert_position t (v, i) =
    let lo = ref 0 and hi = ref (Array.length t.keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if entry_compare (t.keys.(mid), t.rowids.(mid)) (v, i) <= 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  (** [splice t ~remove ~add] is [t] without the entries [remove] and
      with the entries [add] (non-NULL keys), in exactly the order a
      fresh {!build} produces.  Unchanged runs are blitted. *)
  let splice t ~remove ~add =
    let dead = List.sort Int.compare (List.map (position t) remove) in
    let add =
      List.map (fun e -> (insert_position t e, e)) (List.sort entry_compare add)
    in
    let n = Array.length t.keys - List.length dead + List.length add in
    let keys = Array.make n Value.Null and rowids = Array.make n 0 in
    let src = ref 0 and dst = ref 0 in
    let copy_upto p =
      let len = p - !src in
      if len > 0 then begin
        Array.blit t.keys !src keys !dst len;
        (* A plain loop: [Array.blit] would pay the write barrier per
           element on a major-heap int array. *)
        let s = !src and d = !dst in
        for j = 0 to len - 1 do
          Array.unsafe_set rowids (d + j) (Array.unsafe_get t.rowids (s + j))
        done;
        src := p;
        dst := !dst + len
      end
    in
    (* Walk removals and insertions in base-position order; an insertion
       at position p goes in before base entry p. *)
    let rec go dead add =
      match (dead, add) with
      | d :: dead', _ when (match add with (p, _) :: _ -> d < p | [] -> true) ->
          copy_upto d;
          incr src;
          go dead' add
      | _, (p, (k, i)) :: add' ->
          copy_upto p;
          keys.(!dst) <- k;
          rowids.(!dst) <- i;
          incr dst;
          go dead add'
      | _, [] -> ()
    in
    go dead add;
    copy_upto (Array.length t.keys);
    { keys; rowids }

  (** [derive ~base ~ours tr ~into ~append_at] carries every index cached
      on committed version [base] over to [into], the version a commit is
      about to install, instead of letting [into] rebuild it.  [ours] is
      the transaction's tracked clone with footprint [tr]: [into] equals
      [base] except that rows of [tr]'s touched chunks (below
      [tr.base_rows]) hold [ours]'s values, and [ours]'s appended rows
      sit from row [append_at] on.  Rows whose key did not change keep
      their entries; when no key changed and nothing was appended the
      base arrays are shared as they are. *)
  let derive ~base ~ours (tr : Table.tracker) ~into ~append_at =
    let chunks = Table.touched_chunks tr in
    List.iter
      (fun (col, idx) ->
        let remove = ref [] and add = ref [] in
        List.iter
          (fun c ->
            let lo = c * tr.Table.chunk_rows in
            let hi = min tr.Table.base_rows (lo + tr.Table.chunk_rows) in
            for i = lo to hi - 1 do
              let old_v = Table.get base i col and new_v = Table.get ours i col in
              if Value.compare old_v new_v <> 0 then begin
                if not (Value.is_null old_v) then remove := (old_v, i) :: !remove;
                if not (Value.is_null new_v) then add := (new_v, i) :: !add
              end
            done)
          chunks;
        for j = tr.Table.base_rows to Table.row_count ours - 1 do
          let v = Table.get ours j col in
          if not (Value.is_null v) then
            add := (v, append_at + j - tr.Table.base_rows) :: !add
        done;
        let idx' =
          if !remove = [] && !add = [] then idx
          else splice idx ~remove:!remove ~add:!add
        in
        Quill_obs.Metrics.incr m_derives;
        ignore (Table.cache_index into col idx'))
      (Table.cached_indexes base)

  (* First position whose key is >= v (lower bound). *)
  let lower_bound t v =
    let lo = ref 0 and hi = ref (Array.length t.keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Value.compare t.keys.(mid) v < 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  (* First position whose key is > v (upper bound). *)
  let upper_bound t v =
    let lo = ref 0 and hi = ref (Array.length t.keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Value.compare t.keys.(mid) v <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (** [range t ?lo ?hi ()] returns rowids with keys in the given bounds;
    each bound is [(value, inclusive)]. Unbounded sides scan to the end. *)
  let range t ?lo ?hi () =
    let start =
      match lo with
      | None -> 0
      | Some (v, true) -> lower_bound t v
      | Some (v, false) -> upper_bound t v
    in
    let stop =
      match hi with
      | None -> Array.length t.keys
      | Some (v, true) -> upper_bound t v
      | Some (v, false) -> lower_bound t v
    in
    Array.to_list (Array.sub t.rowids start (max 0 (stop - start)))

  (** [lookup t v] returns rowids whose key equals [v]. *)
  let lookup t v = range t ~lo:(v, true) ~hi:(v, true) ()

  (** [size t] is the number of indexed entries. *)
  let size t = Array.length t.keys
end

(** Declared secondary indexes.  The registry holds declarations only:
    the indexes themselves are cached on table versions
    ({!Ordered_index.of_table}), so they are shared by every session
    reading a version and survive catalog re-syncs. *)
module Registry = struct
  type t = { defs : (string, string list) Hashtbl.t  (** table -> indexed columns *) }

  let create () = { defs = Hashtbl.create 8 }

  (** [declare t ~table ~col] registers an index definition. *)
  let declare t ~table ~col =
    let existing = Option.value ~default:[] (Hashtbl.find_opt t.defs table) in
    if not (List.mem col existing) then Hashtbl.replace t.defs table (col :: existing)

  (** [declared t table] lists indexed column names of [table]. *)
  let declared t table = Option.value ~default:[] (Hashtbl.find_opt t.defs table)

  (** [all_defs t] lists every declared index as [(table, col)] pairs. *)
  let all_defs t =
    Hashtbl.fold
      (fun table cols acc -> List.fold_left (fun acc col -> (table, col) :: acc) acc cols)
      t.defs []
    |> List.sort compare

  (** [reset_defs t defs] replaces all declarations with [defs] — used
      when an MVCC view re-syncs to a committed snapshot. *)
  let reset_defs t defs =
    Hashtbl.reset t.defs;
    List.iter (fun (table, col) -> declare t ~table ~col) defs

  (** [drop_table t table] forgets all indexes of [table]. *)
  let drop_table t table = Hashtbl.remove t.defs table

  (** [get t catalog ~table ~col] returns the ordered index cached on the
      catalog's current version of [table] (built on first use), or
      [None] when not declared. *)
  let get t catalog ~table ~col =
    if not (List.mem col (declared t table)) then None
    else begin
      let tbl = Catalog.find_exn catalog table in
      Some (Ordered_index.of_table tbl (Schema.find_exn (Table.schema tbl) col))
    end
end
