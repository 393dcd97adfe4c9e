(* In-memory tables.

   The authoritative representation is a row store (an appendable vector of
   value arrays) so that INSERT stays cheap.  A columnar projection — typed
   arrays per column — is built on demand and cached; any write invalidates
   the cache.  Scan operators choose the representation they want, which is
   exactly the "data layout is an algorithm choice" knob that experiment E6
   measures.

   Ordered secondary indexes are a second cached projection of the same
   kind: per column, built lazily ({!Index.Ordered_index.of_table}) and
   dropped by every in-place write.  A committed MVCC version is never
   written again, so its indexes live as long as it does; the commit path
   derives the next version's indexes from this one's instead of letting
   them be rebuilt ({!Index.Ordered_index.derive}). *)

module Vec = Quill_util.Vec

(* A write-footprint tracker, attached to the copy-on-write clone a
   transaction mutates.  It records *which base rows* (rows that existed
   at snapshot time) the transaction touched, at chunk granularity —
   [base_rows] never moves, so chunk indices are stable against the
   snapshot no matter how many rows the transaction appends after them.
   Appends are summarized by a flag (they occupy indices >= [base_rows]
   and cannot collide with any concurrent transaction's *base* rows);
   structural rewrites (deletes) degrade to a whole-table footprint
   because they shift every index after the removed row. *)
type tracker = {
  base_rows : int;  (** committed row count at copy time *)
  chunk_rows : int;  (** footprint granularity, rows per chunk *)
  touched : (int, unit) Hashtbl.t;  (** chunk indices with in-place writes *)
  mutable appended : bool;  (** pushed rows past [base_rows] *)
  mutable whole : bool;  (** row identity not preserved: treat as all rows *)
}

(** Rows per conflict-detection chunk for stores that do not pick their
    own size.  Read once per store at creation time (and by
    {!cow_copy_tracked} when no [?chunk_rows] is passed) — never at
    validation time — so tests and benchmarks can force many-chunk
    tables without millions of rows, and changing it mid-flight cannot
    make a live store's new trackers incommensurable with the chunk
    stamps it already holds. *)
let default_chunk_rows = ref 1024

(** A sorted (key, rowid) index over one column: ascending by
    {!Value.compare}, ties broken by rowid; NULL keys are left out.  The
    representation behind {!Index.Ordered_index}, declared here so a
    table can cache one. *)
type sorted_index = { keys : Value.t array; rowids : int array }

type t = {
  name : string;
  schema : Schema.t;
  rows : Value.t array Vec.t;
  mutable columnar : Column.t array option;
  indexes : (int * sorted_index) list Atomic.t;
      (** column position -> cached index.  Atomic because committed
          versions are read (and their indexes built) from several
          domains at once. *)
  mutable tracker : tracker option;
}

(** [create ~name schema] returns an empty table. *)
let create ~name schema =
  {
    name;
    schema;
    rows = Vec.create ~dummy:[||];
    columnar = None;
    indexes = Atomic.make [];
    tracker = None;
  }

(** [name t] is the table's name. *)
let name t = t.name

(** [schema t] is the table's schema. *)
let schema t = t.schema

(** [row_count t] is the number of stored rows. *)
let row_count t = Vec.length t.rows

(* Every in-place write calls this: both cached projections describe the
   rows as they were. *)
let invalidate t =
  t.columnar <- None;
  Atomic.set t.indexes []

(** [cached_index t col] is the index cached for column [col], if one has
    been built or derived for this version. *)
let cached_index t col = List.assoc_opt col (Atomic.get t.indexes)

(** [cached_indexes t] lists every cached [(col, index)] pair. *)
let cached_indexes t = Atomic.get t.indexes

(** [cache_index t col idx] publishes [idx] as column [col]'s index and
    returns the published one: when another domain got there first, its
    index wins and [idx] is dropped. *)
let rec cache_index t col idx =
  let cur = Atomic.get t.indexes in
  match List.assoc_opt col cur with
  | Some won -> won
  | None ->
      if Atomic.compare_and_set t.indexes cur ((col, idx) :: cur) then idx
      else cache_index t col idx

let check_row t row =
  if Array.length row <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Table.insert: arity mismatch (%d vs %d)" (Array.length row)
         (Schema.arity t.schema));
  Array.iteri
    (fun i v ->
      let c = Schema.column t.schema i in
      match v with
      | Value.Null ->
          if not c.Schema.nullable then
            invalid_arg (Printf.sprintf "Table.insert: NULL in NOT NULL column %s" c.Schema.name)
      | v ->
          let vt = Value.type_of v in
          let ok =
            vt = c.Schema.dtype
            || (c.Schema.dtype = Value.Float_t && vt = Value.Int_t)
          in
          if not ok then
            invalid_arg
              (Printf.sprintf "Table.insert: type mismatch in column %s (%s vs %s)"
                 c.Schema.name (Value.dtype_name vt) (Value.dtype_name c.Schema.dtype)))
    row

(* Widen Int literals into FLOAT columns so stored rows are uniformly
   typed. *)
let widen t row =
  Array.mapi
    (fun i v ->
      match (v, (Schema.column t.schema i).Schema.dtype) with
      | Value.Int x, Value.Float_t -> Value.Float (Float.of_int x)
      | v, _ -> v)
    row

(** [insert t row] appends [row], checking arity, types and NOT NULL.
    Int values are widened to float in FLOAT columns. *)
let insert t row =
  check_row t row;
  let row = widen t row in
  Vec.push t.rows row;
  (match t.tracker with Some tr -> tr.appended <- true | None -> ());
  invalidate t

(** [insert_all t rows] appends many rows. *)
let insert_all t rows = List.iter (insert t) rows

(** [get_row t i] returns row [i] (the caller must not mutate it). *)
let get_row t i = Vec.get t.rows i

(** [get t i j] reads the value at row [i], column [j]. *)
let get t i j = (Vec.get t.rows i).(j)

(** [rows t] exposes the row store for tuple-at-a-time scans. *)
let rows t = t.rows

(** [columnar t] returns (building and caching if needed) the typed columnar
    projection of the table. *)
let columnar t =
  match t.columnar with
  | Some cols -> cols
  | None ->
      let n = row_count t in
      let cols =
        Array.init (Schema.arity t.schema) (fun j ->
            let dtype = (Schema.column t.schema j).Schema.dtype in
            let vs = Array.init n (fun i -> (Vec.get t.rows i).(j)) in
            Column.of_values dtype vs)
      in
      t.columnar <- Some cols;
      cols

(** [column t j] is column [j] of the columnar projection. *)
let column t j = (columnar t).(j)

(** [of_rows ~name schema rows] builds a table from a row list. *)
let of_rows ~name schema rows =
  let t = create ~name schema in
  insert_all t rows;
  t

(** [of_columns ~name schema cols] builds a table directly from typed
    columns (all the same length); the row store is populated lazily from
    the columns. *)
let of_columns ~name schema cols =
  let n = if Array.length cols = 0 then 0 else Column.length cols.(0) in
  Array.iter (fun c -> assert (Column.length c = n)) cols;
  let t = create ~name schema in
  for i = 0 to n - 1 do
    Vec.push t.rows (Array.map (fun c -> Column.get c i) cols)
  done;
  t.columnar <- Some cols;
  t

(** [cow_copy t] is a copy-on-write clone for MVCC writers: the row
    vector is copied shallowly (row arrays are shared — no Table mutation
    ever writes into an existing row array, [update] replaces the slot
    with a fresh array), and the columnar and index caches are carried
    over since the rows are identical at copy time.  Mutating the clone
    never affects the original, so committed versions can stay lock-free
    shared among concurrent readers. *)
let cow_copy t =
  {
    name = t.name;
    schema = t.schema;
    rows = Vec.copy t.rows;
    columnar = t.columnar;
    indexes = Atomic.make (Atomic.get t.indexes);
    tracker = None;
  }

(** [cow_copy_tracked ?chunk_rows t] is {!cow_copy} plus a fresh
    write-footprint tracker anchored at the current row count — the
    clone a transaction mutates when commit-time conflict detection
    wants row/chunk granularity.  [chunk_rows] is the footprint
    granularity; callers attached to a store must pass that store's
    fixed size so every tracker's chunk indices are commensurable with
    the store's chunk stamps (default: {!default_chunk_rows}). *)
let cow_copy_tracked ?chunk_rows t =
  let chunk_rows =
    match chunk_rows with Some n -> max 1 n | None -> !default_chunk_rows
  in
  let c = cow_copy t in
  c.tracker <-
    Some
      {
        base_rows = row_count t;
        chunk_rows;
        touched = Hashtbl.create 8;
        appended = false;
        whole = false;
      };
  c

(** [tracker t] is the write-footprint tracker, if this is a tracked
    copy-on-write clone. *)
let tracker t = t.tracker

(** [touched_chunks tr] lists the chunk indices written in place,
    sorted. *)
let touched_chunks tr =
  Hashtbl.fold (fun c () acc -> c :: acc) tr.touched [] |> List.sort compare

(** [tracker_clean tr] is true when the transaction never actually
    mutated the table through this clone — no in-place write, no append,
    no structural rewrite. *)
let tracker_clean tr =
  (not tr.whole) && (not tr.appended) && Hashtbl.length tr.touched = 0

(** [merge ~base ours tr] installs [ours]'s footprint onto [base]
    (the *current* committed version, possibly newer than the snapshot
    [ours] was cloned from): returns a clone of [base] with [ours]'s
    touched chunks spliced in and [ours]'s appended tail re-appended.
    Only sound when commit validation has already proven the footprint
    disjoint from every version committed since the snapshot — then all
    rows of [base] below [tr.base_rows] outside the touched chunks equal
    the snapshot's, and inside a touched chunk nobody else wrote, so
    [ours]'s values are authoritative.

    Durability note: a merged install is {e not} reproducible by
    re-executing the transaction's SQL (a predicate re-run against the
    merged state could touch rows the footprint proves untouched — e.g.
    a row a concurrent committer appended), so the WAL logs merged
    commits as physical row images ({!Quill_storage.Csv.patch_of_table})
    and replay applies exactly this splice. *)
let merge ~base ours tr =
  let t = cow_copy base in
  invalidate t;
  Hashtbl.iter
    (fun c () ->
      let lo = c * tr.chunk_rows in
      let hi = min tr.base_rows ((c + 1) * tr.chunk_rows) in
      for i = lo to hi - 1 do
        Vec.set t.rows i (Vec.get ours.rows i)
      done)
    tr.touched;
  for i = tr.base_rows to row_count ours - 1 do
    Vec.push t.rows (Vec.get ours.rows i)
  done;
  t

(** [retain t keep] deletes every row for which [keep row] is false;
    returns the number of rows removed. *)
let retain t keep =
  let kept = Vec.create ~dummy:[||] in
  let removed = ref 0 in
  Vec.iter
    (fun row -> if keep row then Vec.push kept row else incr removed)
    t.rows;
  if !removed > 0 then begin
    Vec.clear t.rows;
    Vec.iter (fun row -> Vec.push t.rows row) kept;
    invalidate t;
    (* Deletion renumbers every later row, so per-chunk identities are
       gone: the footprint degrades to the whole table. *)
    match t.tracker with Some tr -> tr.whole <- true | None -> ()
  end;
  !removed

(** [update t ~where ~apply] replaces each row matching [where] with
    [apply row] (checked like an insert); returns the match count. *)
let update t ~where ~apply =
  let n = ref 0 in
  for i = 0 to row_count t - 1 do
    let row = Vec.get t.rows i in
    if where row then begin
      incr n;
      let row' = apply (Array.copy row) in
      check_row t row';
      let row' = widen t row' in
      Vec.set t.rows i row';
      match t.tracker with
      | Some tr when i < tr.base_rows ->
          (* In-place write to a base row: chunk joins the footprint.
             Writes at [i >= base_rows] hit rows this transaction itself
             appended — private until commit, no footprint needed. *)
          Hashtbl.replace tr.touched (i / tr.chunk_rows) ()
      | _ -> ()
    end
  done;
  if !n > 0 then invalidate t;
  !n

(** [set_row t i row] replaces row [i] wholesale, checked (and widened)
    like an insert — the physical-patch replay path
    ({!Quill_storage.Csv.apply_patch}). *)
let set_row t i row =
  check_row t row;
  Vec.set t.rows i (widen t row);
  (match t.tracker with
  | Some tr when i < tr.base_rows ->
      Hashtbl.replace tr.touched (i / tr.chunk_rows) ()
  | _ -> ());
  invalidate t

(** [to_row_list t] returns all rows as a list (copying). *)
let to_row_list t =
  List.init (row_count t) (fun i -> Array.copy (get_row t i))

(** [to_string ?limit t] renders the table for display. *)
let to_string ?(limit = 20) t =
  let n = min limit (row_count t) in
  let header = List.map (fun c -> c.Schema.name) (Schema.columns t.schema) in
  let body =
    List.init n (fun i ->
        Array.to_list (Array.map Value.to_string (get_row t i)))
  in
  let rendered = Quill_util.Pretty.render ~header body in
  if row_count t > n then
    rendered ^ Printf.sprintf "(%d rows, %d shown)\n" (row_count t) n
  else rendered ^ Printf.sprintf "(%d rows)\n" (row_count t)
