(* The multi-version store behind snapshot-isolation transactions.

   The store owns the *committed* state: one immutable [Table.t] version
   per table name, per-name conflict stamps, the declared
   secondary-index definitions, and — for durable stores — the shared
   write-ahead log.

   The protocol, LegoBase-style "abstraction without regret": versioning
   lives entirely behind the storage interface, so engines and kernels
   never see it.

   - [begin_txn] pins a snapshot: the current commit timestamp plus the
     current table-version pointers.  Building it takes the publish
     mutex for a pointer copy (O(#tables)), after which readers touch no
     shared mutable state at all — a reader NEVER blocks behind a
     writer, and a writer never waits for readers.
   - Writers copy-on-write: the session layer clones a table version
     before the first write ({!Quill_storage.Table.cow_copy_tracked}, a
     shallow row-vector copy carrying a write-footprint tracker) and
     mutates only the private clone.
   - [commit] is first-committer-wins at *row/chunk granularity*
     ({!Row_level}, the default): each written name carries a footprint
     — either "whole table" (DDL, drops, deletes, untracked writes) or
     the set of base-row chunks the transaction updated in place plus an
     appended-rows flag.  Validation compares the footprint against
     per-name stamps: [full_ts] (any write), [whole_ts] (whole-table
     writes) and a per-chunk timestamp vector.  Two transactions
     updating disjoint chunks of one hot table both commit — the later
     one's chunks are spliced onto the current version
     ({!Quill_storage.Table.merge}) — while DDL still conflicts at name
     granularity.  {!Name_level} restores the PR 6 behaviour (any two
     writers of a name conflict) as an ablation baseline.
   - The commit path is hash-sharded: names map to N mutex stripes and a
     transaction locks only its names' stripes, in ascending order
     (two-phase, deadlock-free), so commits touching different stripes
     proceed concurrently.  A short [publish] critical section serializes
     just the pointer installation, stamp writes and the timestamp
     advance; the WAL group write is serialized by its own [wal_lock],
     which a durable commit holds *through* its publish section so WAL
     append order always equals commit-timestamp order — replay depends
     on seeing committed transactions exactly in commit order.  Lock
     order: stripes (ascending) → wal_lock → publish; no holder of a
     later lock ever takes an earlier one.

   Recovery composes with the WAL layer: a committed transaction's
   frames hit disk atomically before the commit is acknowledged, so
   replay ({!Quill_storage.Wal.replay}) yields exactly the committed
   transactions in commit order.  Two hard corners:

   - A *merged* install (the committed version moved under a validated
     row footprint) is not reproducible by re-executing the SQL — a
     predicate re-run against the merged state could touch rows the
     footprint proves this transaction never wrote.  Such commits are
     logged as physical row-image patches
     ({!Quill_storage.Csv.patch_of_table}) instead of statement frames;
     a transaction that merges but also carries a footprint with no row
     images (DDL, drop, untracked rewrite) degrades to the pre-merge
     behaviour and aborts as a first-committer-wins conflict.
   - If a group's fsync fails *after* the frames reached the file, the
     client is told the commit failed — so an abort frame is appended to
     revoke the group at replay, keeping acknowledged == recovered.  If
     even the revocation cannot be persisted, the abort frame is
     re-staged and the store is *poisoned*: every subsequent commit
     fails until a flush carries the revocation, so no later commit can
     be acknowledged ahead of it. *)

module Table = Quill_storage.Table
module Index = Quill_storage.Index
module Csv = Quill_storage.Csv
module Wal = Quill_storage.Wal
module Sim_fs = Quill_storage.Sim_fs
module Metrics = Quill_obs.Metrics

exception Conflict of string
(** First-committer-wins abort: another transaction committed an
    overlapping write (same chunk, a whole-table write, or — at
    {!Name_level} — any write to a shared name) after this transaction's
    snapshot.  The loser's changes are discarded; retrying on a fresh
    snapshot is the standard reaction. *)

let m_begins = Metrics.counter "quill.txn.begins"
let m_commits = Metrics.counter "quill.txn.commits"
let m_rollbacks = Metrics.counter "quill.txn.rollbacks"
let m_conflicts = Metrics.counter "quill.txn.conflicts"

let m_row_conflicts = Metrics.counter "quill.txn.row_conflicts"
(** Conflicts detected by the chunk-granular check itself: a concurrent
    committer wrote the *same rows* (or the whole table). *)

let m_false_conflicts_avoided = Metrics.counter "quill.txn.false_conflicts_avoided"
(** Commits that name-granular validation would have aborted (the name
    was stamped after our snapshot) but row-granular validation proved
    disjoint.  The tentpole's payoff, directly measurable. *)

let m_merged_installs = Metrics.counter "quill.txn.merged_installs"
(** Installs that spliced a footprint onto a concurrently-advanced
    version instead of replacing it wholesale. *)

let m_stripe_waits = Metrics.counter "quill.txn.stripe_waits"
(** Commit-stripe acquisitions that found the stripe already held —
    lock contention on the sharded commit path. *)

let g_committed_ts = Metrics.gauge "quill.txn.committed_ts"

(** Conflict-detection granularity.  {!Row_level} (default) validates
    chunk footprints; {!Name_level} is the PR 6 table-name behaviour,
    kept as an ablation baseline for E22 and as a safety fallback. *)
type granularity = Name_level | Row_level

(* Per-name conflict stamps.  [full_ts] moves on every commit that
   wrote the name; [whole_ts] only on whole-table writes (DDL, drop,
   delete, untracked); [chunk_ts] maps chunk index -> last commit that
   updated rows of that chunk in place.  Invariant:
   whole_ts <= full_ts and every chunk_ts <= full_ts. *)
type name_stamp = {
  mutable full_ts : int;
  mutable whole_ts : int;
  chunk_ts : (int, int) Hashtbl.t;
}

(** One written name's footprint inside a transaction.  [ft_whole] marks
    structural writes (create/drop/DDL) that conflict with any other
    write; [ft_tracker] is the tracker of the session's tracked
    copy-on-write clone, recording updated chunks / appends /
    degradation to whole-table. *)
type footprint = {
  mutable ft_whole : bool;
  mutable ft_tracker : Table.tracker option;
}

type t = {
  mutable stripes : Mutex.t array;  (** commit-path shards; names hash to one *)
  publish : Mutex.t;  (** serializes installs, stamps, ts advance, snapshots *)
  wal_lock : Mutex.t;  (** serializes WAL frame-group staging + flush *)
  tables : (string, Table.t) Hashtbl.t;  (** committed versions, immutable *)
  stamps : (string, name_stamp) Hashtbl.t;
  mutable index_defs : (string * string) list;  (** committed (table, col) *)
  oracle : Oracle.t;
  mutable wal : Wal.t option;  (** shared log of a durable store *)
  mutable granularity : granularity;
  chunk_rows : int;  (** footprint granularity, fixed for the store's life *)
  mutable poisoned : string option;
      (** set when a failed commit group's revocation could not be
          persisted either: commits fail until a flush carries it *)
}

(** A pinned committed snapshot: table versions as of [ts]. *)
type snapshot = {
  ts : int;
  tables : Table.t list;
  snap_index_defs : (string * string) list;
}

(** An open transaction.  [writes] maps each name this transaction
    created, dropped or copy-on-wrote to its footprint; [stmts] the SQL
    to log, newest first.  The session layer owns the private table
    versions (its catalog view); the store only sees them at commit. *)
type txn = {
  id : int;
  snap : snapshot;
  writes : (string, footprint) Hashtbl.t;
  mutable stmts : string list;
  mutable index_ddl : bool;  (** index/DDL changed: republish defs at commit *)
}

let default_stripes = 16

(** [create ?wal ?stripes ?granularity ?chunk_rows ~tables ~index_defs ()]
    seeds a store with committed state (timestamp 0).  [tables] become
    the committed versions and must not be mutated by the caller
    afterwards.  [chunk_rows] (default {!Table.default_chunk_rows},
    read once here) is the row-footprint granularity, fixed for the
    store's life: per-chunk stamps are keyed by chunk index, so every
    tracker the store's sessions create must share one size. *)
let create ?wal ?(stripes = default_stripes) ?(granularity = Row_level)
    ?chunk_rows ~tables ~index_defs () =
  let chunk_rows =
    match chunk_rows with Some n -> max 1 n | None -> !Table.default_chunk_rows
  in
  let t =
    {
      stripes = Array.init (max 1 stripes) (fun _ -> Mutex.create ());
      publish = Mutex.create ();
      wal_lock = Mutex.create ();
      tables = Hashtbl.create 16;
      stamps = Hashtbl.create 16;
      index_defs;
      oracle = Oracle.create ();
      wal;
      granularity;
      chunk_rows;
      poisoned = None;
    }
  in
  List.iter (fun tbl -> Hashtbl.replace t.tables (Table.name tbl) tbl) tables;
  t

(** [granularity t] is the active conflict-detection granularity. *)
let granularity t = t.granularity

(** [set_granularity t g] switches conflict detection.  Only safe while
    no transaction is in flight (stamps carry over: a name- and a
    row-level stamp of the same commit agree on [full_ts]). *)
let set_granularity t g = t.granularity <- g

(** [chunk_rows t] is the store's row-footprint granularity.  Fixed at
    creation: the session layer must pass it to every
    {!Quill_storage.Table.cow_copy_tracked} so tracker chunk indices and
    the store's chunk stamps stay commensurable. *)
let chunk_rows t = t.chunk_rows

(** [stripe_count t] is the number of commit-lock shards. *)
let stripe_count t = Array.length t.stripes

(** [set_stripe_count t n] replaces the commit-lock shard array.  Only
    safe while no commit is in flight — benchmarks reconfigure a
    quiesced store for single-stripe ablation runs. *)
let set_stripe_count t n =
  t.stripes <- Array.init (max 1 n) (fun _ -> Mutex.create ())

(** [committed_ts t] is the newest commit timestamp (lock-free read). *)
let committed_ts t = Oracle.last_ts t.oracle

(** [wal t] is the store's write-ahead log, if durable. *)
let wal t = t.wal

(** [set_wal t w] swaps the log handle (checkpointing starts a fresh
    generation's log).  Call with {!locked} held or before sharing.
    Clears any poisoning: a successful checkpoint snapshots exactly the
    committed state and deletes the old log, so an unrevoked group in it
    can no longer recover. *)
let set_wal t w =
  t.wal <- w;
  t.poisoned <- None

(** [locked t f] runs [f] with every commit stripe and the publish lock
    held — quiesces commits, e.g. around a checkpoint that snapshots
    committed state and swaps the WAL. *)
let locked t f =
  let n = Array.length t.stripes in
  for i = 0 to n - 1 do
    Mutex.lock t.stripes.(i)
  done;
  Fun.protect
    ~finally:(fun () ->
      for i = n - 1 downto 0 do
        Mutex.unlock t.stripes.(i)
      done)
    (fun () -> Mutex.protect t.publish f)

(** [snapshot_unlocked t] is {!snapshot} for callers already inside
    {!locked} (e.g. a checkpoint quiescing commits). *)
let snapshot_unlocked t =
  {
    ts = Oracle.last_ts t.oracle;
    tables = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables [];
    snap_index_defs = t.index_defs;
  }

(** [snapshot t] pins the current committed state: O(#tables) pointer
    copies under the publish lock, then fully private.  Commits install
    versions and advance the timestamp inside one publish section, so a
    snapshot is always a consistent (ts, versions) pair. *)
let snapshot t = Mutex.protect t.publish (fun () -> snapshot_unlocked t)

(** [begin_txn t] opens a transaction on a fresh snapshot. *)
let begin_txn t =
  Metrics.incr m_begins;
  { id = Oracle.fresh_id t.oracle; snap = snapshot t;
    writes = Hashtbl.create 4; stmts = []; index_ddl = false }

(** [stage txn name] returns [name]'s footprint in the write set,
    creating an empty one on first touch. *)
let stage txn name =
  match Hashtbl.find_opt txn.writes name with
  | Some fp -> fp
  | None ->
      let fp = { ft_whole = false; ft_tracker = None } in
      Hashtbl.add txn.writes name fp;
      fp

(** [has_writes txn] is true once any name entered the write set. *)
let has_writes txn = Hashtbl.length txn.writes > 0

(** [write_names txn] lists the write set's names (unordered). *)
let write_names txn = Hashtbl.fold (fun name _ acc -> name :: acc) txn.writes []

(** [rollback txn] discards the transaction (the session layer drops its
    private versions; the store never saw them). *)
let rollback (_ : txn) = Metrics.incr m_rollbacks

(* --- Commit internals --------------------------------------------------- *)

let stripe_of t name = Hashtbl.hash name mod Array.length t.stripes

(* Lock the stripes covering [names], ascending (two-phase, canonical
   order — multi-table transactions cannot deadlock).  Returns the
   ordered stripe indices for the symmetric unlock. *)
let lock_stripes t names =
  let ids = List.sort_uniq compare (List.map (stripe_of t) names) in
  List.iter
    (fun i ->
      let m = t.stripes.(i) in
      if not (Mutex.try_lock m) then begin
        Metrics.incr m_stripe_waits;
        Mutex.lock m
      end)
    ids;
  ids

let unlock_stripes t ids = List.iter (fun i -> Mutex.unlock t.stripes.(i)) ids

(* A transaction's *effective* footprint for one name: either the whole
   table or a (chunks, appended, tracker) triple.  Untracked clones and
   Name_level mode degrade to whole. *)
type eff = Whole | Rows of int list * bool * Table.tracker

let effective t fp =
  if fp.ft_whole || t.granularity = Name_level then Whole
  else
    match fp.ft_tracker with
    | None -> Whole
    | Some tr ->
        if tr.Table.whole then Whole
        else Rows (Table.touched_chunks tr, tr.Table.appended, tr)

let conflict txn name kind since =
  Metrics.incr m_conflicts;
  raise
    (Conflict
       (Printf.sprintf
          "transaction %d lost %s of table %S to a first committer (snapshot \
           ts %d, committed at ts %d)"
          txn.id kind name txn.snap.ts since))

(* First-committer-wins validation of one name against its stamps.
   Caller holds the name's stripe, so the stamp record is stable. *)
let validate txn name eff (st : name_stamp) =
  match eff with
  | Whole -> if st.full_ts > txn.snap.ts then conflict txn name "the whole" st.full_ts
  | Rows (chunks, _appended, _) ->
      if st.whole_ts > txn.snap.ts then begin
        Metrics.incr m_row_conflicts;
        conflict txn name "all rows" st.whole_ts
      end;
      List.iter
        (fun c ->
          match Hashtbl.find_opt st.chunk_ts c with
          | Some s when s > txn.snap.ts ->
              Metrics.incr m_row_conflicts;
              conflict txn name (Printf.sprintf "chunk %d" c) s
          | _ -> ())
        chunks;
      (* Survived on rows where the name stamp alone would have aborted
         us: the granularity change paid off. *)
      if st.full_ts > txn.snap.ts then Metrics.incr m_false_conflicts_avoided

(* What installing one name means.  Planned outside the publish section
   (splicing rows can be real work); applied inside it (pointer swaps). *)
type install =
  | Remove  (** dropped *)
  | Put of Table.t  (** replace the committed version *)
  | Merge of Table.t  (** replace with a footprint splice (pre-computed) *)
  | Skip  (** footprint is empty: nothing was actually written *)

(* The installed version inherits its base's secondary indexes, patched
   with the footprint ({!Index.Ordered_index.derive}), so the first read
   after a commit does not re-sort the column.  A base with no built
   index, and every [Whole] install, leave the new version to build its
   indexes lazily. *)
let plan_install txn name eff priv_opt cur =
  let snap_tbl = List.find_opt (fun tb -> Table.name tb = name) txn.snap.tables in
  match (priv_opt : Table.t option) with
  | None -> Remove
  | Some priv -> (
      match eff with
      | Whole -> Put priv
      | Rows (chunks, appended, tr) ->
          if chunks = [] && not appended then Skip
          else (
            match cur with
            | Some cur_tbl when (match snap_tbl with
                                 | Some snap_tbl -> cur_tbl != snap_tbl
                                 | None -> true) ->
                (* The committed version moved since our snapshot but
                   validation proved the footprints disjoint: splice our
                   chunks and tail onto the current version so the other
                   committers' rows survive. *)
                Metrics.incr m_merged_installs;
                let merged = Table.merge ~base:cur_tbl priv tr in
                Index.Ordered_index.derive ~base:cur_tbl ~ours:priv tr ~into:merged
                  ~append_at:(Table.row_count cur_tbl);
                Merge merged
            | _ ->
                (match snap_tbl with
                | Some base when Table.row_count base = tr.Table.base_rows ->
                    Index.Ordered_index.derive ~base ~ours:priv tr ~into:priv
                      ~append_at:tr.Table.base_rows
                | _ -> ());
                Put priv))

let is_merge = function Merge _ -> true | _ -> false

(* A poisoned store holds a commit-marked group in the file whose
   revocation is not yet durable: nothing may be acknowledged before the
   pending abort frame persists, or a crash would recover a transaction
   whose client saw an error ahead of ones that succeeded.  Flush the
   re-staged revocation and force an fsync — [Wal.flush] alone is a
   no-op on an empty buffer and may skip the sync under an [Every n]
   policy, neither of which proves the abort frame durable.  Fail the
   commit while the sync keeps failing.  Caller holds [wal_lock]. *)
let heal_poison t w =
  match t.poisoned with
  | None -> ()
  | Some msg -> (
      try
        Wal.flush w;
        Wal.sync w;
        t.poisoned <- None
      with Sim_fs.Io_error _ ->
        raise (Sim_fs.Io_error ("store poisoned (unrevoked commit group): " ^ msg)))

(* Flush the staged frame group — one write, fsynced per policy.  A torn
   write (power cut) loses the group and replay drops it: correct, the
   client was never acknowledged.  An fsync *failure* is the dangerous
   corner: the frames — commit marker included — are in the file, but
   the client is about to see an error.  Append an abort frame so replay
   revokes the group; if even that cannot be persisted, re-stage it for
   the next flush and poison the store so no later commit is
   acknowledged ahead of the revocation.  Only then re-raise.  A
   {!Sim_fs.Crash} is never caught — the machine is gone and recovery
   handles the torn tail. *)
let flush_or_revoke t w txn =
  try Wal.flush w
  with Sim_fs.Io_error _ as e ->
    (try
       Wal.log_txn_abort w ~txn:txn.id;
       Wal.flush w
     with Sim_fs.Io_error _ ->
       Wal.log_txn_abort w ~txn:txn.id;
       t.poisoned <-
         Some
           (Printf.sprintf
              "transaction %d's commit group reached the WAL but neither its \
               fsync nor its abort-frame revocation succeeded"
              txn.id));
    raise e

(* Stage the transaction's WAL frame group, flush it, and only then run
   the publish continuation [k] — still under [wal_lock], so WAL append
   order always equals commit-timestamp order (replay re-applies
   committed transactions in exactly that order).

   Statements are logged as SQL, except when some install merges onto a
   concurrently-advanced version: re-executing SQL against the merged
   state is not guaranteed to reproduce it (a predicate could touch rows
   the footprint proves this transaction never wrote), so such commits
   log physical row images per table instead — the exact splice
   {!Table.merge} installs.  Commits with nothing to log skip the lock
   entirely. *)
let wal_commit_group t txn ~plans k =
  match t.wal with
  | None -> k ()
  | Some w ->
      let merged = List.exists (fun (_, _, _, _, p) -> is_merge p) plans in
      if (not merged) && txn.stmts = [] then k ()
      else
        Mutex.protect t.wal_lock (fun () ->
            heal_poison t w;
            Wal.log_txn_begin w ~txn:txn.id;
            if not merged then
              List.iter (Wal.log_txn_statement w ~txn:txn.id) (List.rev txn.stmts)
            else
              List.iter
                (fun (name, eff, _, priv, plan) ->
                  match (plan, eff, priv) with
                  | Skip, _, _ -> ()
                  | (Put _ | Merge _), Rows (_, _, tr), Some priv ->
                      Wal.log_txn_patch w ~txn:txn.id ~table:name
                        (Csv.patch_of_table priv tr)
                  | _ ->
                      (* commit already degraded inexpressible mixes *)
                      assert false)
                plans;
            Wal.log_txn_commit w ~txn:txn.id;
            flush_or_revoke t w txn;
            k ())

(** [commit t txn ~lookup ~index_defs] atomically publishes the
    transaction: stripe acquisition in canonical order,
    first-committer-wins footprint validation, WAL group commit (begin +
    statements — or physical row-image patches when an install merges —
    + commit marker in one write, fsynced per the log's policy, revoked
    with an abort frame if only the fsync fails), then version
    installation and stamping inside the publish section, run while the
    WAL lock is still held so log order equals commit order.
    [lookup name] returns the session's private version of a written
    table ([None] = dropped); [index_defs] is the full new declaration
    list when the transaction changed DDL.  Returns the commit
    timestamp.  Transactions with no writes and no DDL commit trivially
    without taking any lock. *)
let commit t txn ~lookup ~index_defs =
  if (not (has_writes txn)) && not txn.index_ddl then begin
    Metrics.incr m_commits;
    txn.snap.ts
  end
  else begin
    let names = write_names txn in
    let ids = lock_stripes t names in
    Fun.protect ~finally:(fun () -> unlock_stripes t ids) (fun () ->
        (* Fetch (creating as needed) the stamp records and current
           versions under the publish lock: the hashtables are shared
           across stripes.  The *records* stay stable afterwards — only
           a commit holding this name's stripe mutates them, and that is
           us. *)
        let entries =
          Mutex.protect t.publish (fun () ->
              List.map
                (fun name ->
                  let st =
                    match Hashtbl.find_opt t.stamps name with
                    | Some st -> st
                    | None ->
                        let st =
                          { full_ts = 0; whole_ts = 0; chunk_ts = Hashtbl.create 8 }
                        in
                        Hashtbl.add t.stamps name st;
                        st
                  in
                  let fp = Hashtbl.find txn.writes name in
                  (name, effective t fp, st, Hashtbl.find_opt t.tables name))
                names)
        in
        List.iter (fun (name, eff, st, _) -> validate txn name eff st) entries;
        (* Plan the installs outside the publish section: a footprint
           splice copies rows, and commits on other stripes need not
           wait for it. *)
        let plans =
          List.map
            (fun (name, eff, st, cur) ->
              let priv = lookup name in
              (name, eff, st, priv, plan_install txn name eff priv cur))
            entries
        in
        (* A merged install replays from physical row images; a durable
           transaction that merges but also carries a footprint with no
           row images (DDL, a drop, an untracked rewrite) cannot be
           logged that way, so it degrades to the pre-row-granularity
           outcome: the moved name is a first-committer-wins conflict. *)
        (if t.wal <> None then
           match List.find_opt (fun (_, _, _, _, p) -> is_merge p) plans with
           | Some (mname, _, mst, _, _) ->
               let expressible =
                 List.for_all
                   (fun (_, eff, _, priv, plan) ->
                     match (plan, eff, priv) with
                     | Skip, _, _ -> true
                     | (Put _ | Merge _), Rows _, Some _ -> true
                     | _ -> false)
                   plans
               in
               if not expressible then begin
                 Metrics.incr m_row_conflicts;
                 conflict txn mname "a WAL-replayable install" mst.full_ts
               end
           | None -> ());
        (* Write-ahead: the transaction is durable before it is visible,
           and the publish below runs while the WAL lock is still held so
           log order always equals commit order. *)
        wal_commit_group t txn ~plans (fun () ->
        Mutex.protect t.publish (fun () ->
            let ts = Oracle.advance t.oracle in
            List.iter
              (fun (name, eff, st, _priv, plan) ->
                match plan with
                | Skip -> ()
                | Remove ->
                    Hashtbl.remove t.tables name;
                    st.full_ts <- ts;
                    st.whole_ts <- ts;
                    Hashtbl.reset st.chunk_ts
                | Put tbl | Merge tbl -> (
                    Hashtbl.replace t.tables name tbl;
                    match eff with
                    | Whole ->
                        st.full_ts <- ts;
                        st.whole_ts <- ts;
                        (* chunk identities did not survive the rewrite *)
                        Hashtbl.reset st.chunk_ts
                    | Rows (chunks, _appended, _) ->
                        (* appends bump only [full_ts]: they cannot
                           collide with anyone's base rows *)
                        st.full_ts <- ts;
                        List.iter
                          (fun c -> Hashtbl.replace st.chunk_ts c ts)
                          chunks))
              plans;
            (match index_defs with Some defs -> t.index_defs <- defs | None -> ());
            Metrics.incr m_commits;
            Metrics.set g_committed_ts ts;
            ts)))
  end
