(* The Quill public API.

   A [Db.t] bundles the catalog, statistics, UDF registry, plan cache and
   feedback store.  [query] runs one statement through the full pipeline
   (parse -> bind -> rewrite -> reorder -> pick -> execute) on a chosen
   engine; [query_adaptive] adds the managed-runtime behaviours: plan
   caching, profile-driven re-optimization and tiered compilation. *)

module Value = Quill_storage.Value
module Schema = Quill_storage.Schema
module Table = Quill_storage.Table
module Catalog = Quill_storage.Catalog
module Ast = Quill_sql.Ast
module Parser = Quill_sql.Parser
module Binder = Quill_plan.Binder
module Udf = Quill_plan.Udf
module Lplan = Quill_plan.Lplan
module Table_stats = Quill_stats.Table_stats
module Card = Quill_optimizer.Card
module Picker = Quill_optimizer.Picker
module Physical = Quill_optimizer.Physical
module Exec_ctx = Quill_exec.Exec_ctx
module Profile = Quill_exec.Profile
module Codegen = Quill_compile.Codegen
module Feedback = Quill_adaptive.Feedback
module Plan_cache = Quill_adaptive.Plan_cache
module Tiering = Quill_adaptive.Tiering
module Trace = Quill_obs.Trace
module Metrics = Quill_obs.Metrics
module Governor = Quill_exec.Governor
module Csv = Quill_storage.Csv
module Wal = Quill_storage.Wal
module Snapshot = Quill_storage.Snapshot
module Sim_fs = Quill_storage.Sim_fs
module Spill = Quill_storage.Spill
module Store = Quill_txn.Store
module Index_reg = Quill_storage.Index.Registry

type store = Store.t

exception Error of string

exception Conflict = Store.Conflict
(** A snapshot-isolation write-write conflict: this transaction lost a
    table in its write set to a first committer and has been rolled
    back.  Retry on a fresh snapshot. *)

type abort_reason = Governor.abort_reason =
  | Timeout
  | Cancelled
  | Resource_exhausted

exception Aborted of abort_reason
(** Raised when the resource governor stops a query: its deadline passed,
    {!cancel} was called, or it exceeded its memory budget.  The session
    stays usable; the next statement runs normally. *)

let abort_reason_name = Governor.reason_name

(* Statements executed and end-to-end SELECT latency, fed to the
   process-wide registry. *)
let m_queries = Metrics.counter "quill.db.queries"
let h_query_seconds = Metrics.histogram "quill.db.query_seconds"

(* Durability traffic: checkpoints taken, and what recovery salvaged. *)
let m_checkpoints = Metrics.counter "quill.wal.checkpoints"
let m_recoveries = Metrics.counter "quill.recovery.runs"
let m_recovered = Metrics.counter "quill.recovery.replayed"
let m_dropped = Metrics.counter "quill.recovery.dropped"

type engine = Volcano | Vectorized | Compiled

let engine_name = function
  | Volcano -> "volcano"
  | Vectorized -> "vectorized"
  | Compiled -> "compiled"

type sync_policy = Wal.sync_policy = Never | On_commit | Every of int

(* Durable-session state: the directory of generations, which generation
   is live, and the open WAL that mutations append to. *)
type durable = {
  dur_dir : string;
  mutable generation : int;
  mutable wal : Wal.t;
}

(* A session's attachment to a shared MVCC store.  The session's catalog
   is a *view*: table-version pointers copied from a committed snapshot
   (or, inside a transaction, this session's private copy-on-write
   versions layered over its pinned snapshot).  [view_ts] is the commit
   timestamp the view reflects; -1 forces a re-sync. *)
type shared_session = {
  handle : Store.t;
  mutable view_ts : int;
  mutable txn : Store.txn option;  (** open explicit transaction, if any *)
}

type t = {
  catalog : Catalog.t;
  udfs : Udf.t;
  registry : Table_stats.Registry.reg;
  indexes : Quill_storage.Index.Registry.t;
  feedback : Feedback.t;
  cache : Plan_cache.t;
  mutable engine : engine;  (** default engine for [query] *)
  mutable policy : Tiering.policy;  (** tier policy for [query_adaptive] *)
  mutable options : Picker.options;
  mutable timeout_ms : int option;  (** session default deadline *)
  mutable budget_bytes : int option;  (** session default memory budget *)
  mutable spill_on : bool;  (** budgeted queries may spill to disk *)
  mutable last_abort : string option;  (** detail of the latest governor abort *)
  cancel : bool Atomic.t;  (** set by {!cancel}, consumed by the governor *)
  mutable durable : durable option;  (** WAL-backed session state, if any *)
  mutable shared : shared_session option;  (** MVCC store attachment *)
}

type result =
  | Rows of Table.t
  | Affected of int
  | Text of string

(** [create ()] returns a fresh database with built-in scalar functions,
    the compiled engine as default and the standard tiering policy. *)
let create () =
  (* Pre-compose the copy-and-patch stencil library once per process so
     per-query compilation of covered shapes is pure selection+binding. *)
  Quill_compile.Stencil.warm ();
  {
    catalog = Catalog.create ();
    udfs = Udf.builtins ();
    registry = Table_stats.Registry.create ();
    indexes = Quill_storage.Index.Registry.create ();
    feedback = Feedback.create ();
    cache = Plan_cache.create ();
    engine = Compiled;
    policy = Tiering.Tiered Tiering.default_hot_threshold;
    (* Cost the plans for whatever parallelism the session starts with
       (1 unless QUILL_DOMAINS pins it). *)
    options =
      { Picker.default_options with
        Picker.parallelism = Quill_parallel.Pool.parallelism () };
    timeout_ms = None;
    budget_bytes = None;
    spill_on = true;
    last_abort = None;
    cancel = Atomic.make false;
    durable = None;
    shared = None;
  }

(** [catalog db] exposes the catalog (e.g. for bulk loading). *)
let catalog db = db.catalog

(** [set_engine db e] changes the default engine for [query]. *)
let set_engine db e = db.engine <- e

(** [set_policy db p] changes the adaptive tiering policy. *)
let set_policy db p = db.policy <- p

(** [set_options db o] overrides the algorithm picker's options. *)
let set_options db o = db.options <- o

(** [set_timeout db ms] sets the session's default query deadline
    ([None] = none); each statement gets a fresh deadline when it starts. *)
let set_timeout db ms = db.timeout_ms <- ms

(** [timeout_ms db] is the session's default deadline. *)
let timeout_ms db = db.timeout_ms

(** [set_budget db bytes] sets the session's default per-query memory
    budget ([None] = unlimited).  The budget also feeds the picker, which
    penalizes algorithms whose working set wouldn't fit. *)
let set_budget db bytes = db.budget_bytes <- bytes

(** [budget_bytes db] is the session's default memory budget. *)
let budget_bytes db = db.budget_bytes

(** [set_spill db on] enables or disables out-of-core execution for
    budgeted queries (default on).  With it off, exceeding the budget is
    a hard kill — the pre-spill ablation baseline. *)
let set_spill db on = db.spill_on <- on

(** [spill_enabled db] is whether budgeted queries may spill. *)
let spill_enabled db = db.spill_on

(** [last_abort_detail db] is the rich account of the most recent
    governor abort in this session (reason; for budget kills also peak
    bytes charged, the budget, and what spilling did). *)
let last_abort_detail db = db.last_abort

(** [cancel db] asks the session's currently running query (possibly on
    another domain) to abort with {!Aborted}[ Cancelled] at its next
    governor check.  If no query is running, the next one consumes the
    flag immediately. *)
let cancel db = Atomic.set db.cancel true

(** [set_parallelism db n] sets the session's parallel-execution goal:
    the shared worker pool targets [n] domains (clamped to a sane range)
    and the picker costs plans for [n]-way morsel parallelism.  The pool
    is process-wide, so the last setter wins across sessions. *)
let set_parallelism db n =
  Quill_parallel.Pool.set_parallelism n;
  db.options <-
    { db.options with Picker.parallelism = Quill_parallel.Pool.parallelism () }

(** [close db] releases session resources: closes the WAL of a durable
    session and joins the shared pool's worker domains (they re-spawn
    lazily if another session runs a parallel query).  Closing a derived
    session of a shared store ({!session}) releases nothing — the store,
    its WAL and the pool belong to the root database. *)
let close db =
  match (db.shared, db.durable) with
  | Some _, None -> ()
  | _ ->
      (match db.durable with
      | Some d ->
          db.durable <- None;
          Wal.close d.wal
      | None -> ());
      Quill_parallel.Pool.shutdown ()

(** [register_udf db ~name ~args ~ret f] registers a scalar UDF usable in
    any SQL expression; it participates in compilation and fusion like a
    built-in (claim C5). *)
let register_udf db ~name ~args ~ret f =
  Udf.register db.udfs
    { Udf.name; arg_types = args; ret_type = ret; fn = f; cost_per_call = 20.0 }

(** [analyze db table] recollects statistics for [table]. *)
let analyze db table = ignore (Table_stats.Registry.analyze db.registry db.catalog table)

let opt_env ?params db =
  let indexed table =
    match Catalog.find db.catalog table with
    | None -> []
    | Some t ->
        List.filter_map
          (fun col -> Schema.find (Table.schema t) col |> Result.to_option)
          (Quill_storage.Index.Registry.declared db.indexes table)
  in
  Card.make_env ~hints:(Feedback.hints db.feedback) ~indexed ?params db.catalog
    db.registry

let param_types_of params =
  Array.map
    (fun v -> if Value.is_null v then Value.Str_t else Value.type_of v)
    params

(* Note: [Sim_fs.Crash] (the simulated power cut) is deliberately NOT
   wrapped — it must unwind out of the API uncaught, like the process
   dying would. *)
let wrap f =
  try f () with
  | Governor.Aborted r -> raise (Aborted r)
  | Quill_sql.Parser.Parse_error m -> raise (Error ("parse error: " ^ m))
  | Quill_sql.Lexer.Lex_error (m, pos) ->
      raise (Error (Printf.sprintf "lex error: %s at %d" m pos))
  | Binder.Bind_error m -> raise (Error ("bind error: " ^ m))
  | Quill_plan.Bexpr.Eval_error m -> raise (Error ("runtime error: " ^ m))
  | Sys_error m -> raise (Error m)
  | Sim_fs.Io_error m -> raise (Error ("io error: " ^ m))
  | Snapshot.Invalid m -> raise (Error ("snapshot error: " ^ m))
  | Invalid_argument m -> raise (Error m)
  | Failure m -> raise (Error m)

(* --- MVCC view maintenance --------------------------------------------- *)

(* Point the session's catalog view at a committed snapshot: table
   versions become the snapshot's pointers, index declarations re-sync,
   and the catalog version bump invalidates this session's plan cache.
   Built indexes are not dropped: they belong to the table versions. *)
let apply_snapshot db sh (snap : Store.snapshot) =
  Catalog.reset db.catalog snap.Store.tables;
  Index_reg.reset_defs db.indexes snap.Store.snap_index_defs;
  sh.view_ts <- snap.Store.ts

(* Re-sync the view with the latest committed state.  Cheap no-op when
   nothing committed since the last sync (the common read-heavy case —
   plan-cache hits survive), and never moves the view while a
   transaction has it pinned. *)
let sync_view db =
  match db.shared with
  | None -> ()
  | Some sh -> (
      match sh.txn with
      | Some _ -> ()
      | None ->
          if sh.view_ts <> Store.committed_ts sh.handle then
            apply_snapshot db sh (Store.snapshot sh.handle))

(* Picker options for one query: a memory budget (per-call override or
   session default) is surfaced to the cost model so memory-hungry
   algorithms the governor would kill get penalized. *)
let effective_options db budget_override =
  match (match budget_override with Some _ as b -> b | None -> db.budget_bytes) with
  | None -> db.options
  | Some b ->
      { db.options with Picker.budget_bytes = Some b; Picker.spill = db.spill_on }

(* Full planning result: main physical plan, materialization plans for
   any uncorrelated subqueries, and — when the plan shape depends on the
   bound parameter values — a classifier mapping parameters to the
   selectivity band the plan cache keys variants on. *)
let plan_full db ?(params = [||]) ?budget_bytes sql =
  let options = effective_options db budget_bytes in
  sync_view db;
  wrap (fun () ->
      match Trace.with_span "parse" (fun () -> Parser.parse sql) with
      | Ast.Select sel ->
          let env =
            Binder.mk_env ~catalog:db.catalog ~udfs:db.udfs
              ~param_types:(param_types_of params) ()
          in
          let lplan = Trace.with_span "bind" (fun () -> Binder.bind_select env sel) in
          let card_env = opt_env ~params db in
          let main = Picker.optimize ~options card_env lplan in
          let classifier =
            Card.param_selectivity card_env lplan
            |> Option.map (fun sel ps -> Card.selectivity_band (sel ps))
          in
          (* Subqueries accumulate innermost-last; materialization order is
             innermost-first. *)
          let subs =
            List.rev_map
              (fun (cell, sub_lplan) ->
                (cell, Picker.optimize ~options card_env sub_lplan))
              !(env.Binder.subqueries)
          in
          (main, subs, classifier)
      | _ -> raise (Error "plan: not a SELECT statement"))

(** [plan db ?params sql] parses and optimizes a SELECT, returning the
    physical plan (subquery materialization plans are handled internally by
    [query]/[query_adaptive]). *)
let plan db ?params sql =
  let main, _, _ = plan_full db ?params sql in
  main

let rows_to_table plan rows =
  let schema = Physical.schema_of plan in
  Table.of_rows ~name:"result" schema (Array.to_list rows)

let run_engine db engine ?profile ?(gov = Governor.none) ~params plan =
  Trace.with_span ~cat:"exec" ~args:[ ("engine", engine_name engine) ] "execute"
    (fun () ->
      let ctx =
        Exec_ctx.create ~params ?profile ~governor:gov db.catalog
      in
      match engine with
      | Volcano -> Quill_exec.Volcano.run ctx plan
      | Vectorized -> Quill_exec.Vector.run ctx plan
      | Compiled -> Quill_util.Vec.to_array (Codegen.run ctx plan))

(* Materialize uncorrelated subqueries (innermost first): each cell gets
   the first-column values of its subplan's result.  They run under the
   outer query's governor, so a huge subquery result counts against the
   same budget and deadline. *)
let fill_subqueries db ?(gov = Governor.none) ~params subs =
  List.iter
    (fun (cell, sub_plan) ->
      let rows = run_engine db Compiled ~gov ~params sub_plan in
      cell := Some (Array.to_list (Array.map (fun r -> r.(0)) rows)))
    subs

(* Binding helper for non-SELECT statements: any subqueries found in their
   scalar expressions are materialized immediately. *)
let bind_stmt_scalar db env schema ast =
  let before = !(env.Binder.subqueries) in
  let be = Binder.bind_scalar env schema ast in
  let fresh =
    List.filter (fun (cell, _) -> not (List.memq cell (List.map fst before))) !(env.Binder.subqueries)
  in
  fill_subqueries db ~params:[||]
    (List.rev_map
       (fun (cell, lp) -> (cell, Picker.optimize ~options:db.options (opt_env db) lp))
       fresh);
  be

(* Statement dispatch for non-SELECT statements. *)
let exec_stmt db stmt =
  match stmt with
  | Ast.Select _ | Ast.Begin | Ast.Commit | Ast.Rollback ->
      (* SELECT goes through [query]; transaction control is handled in
         [exec] before dispatch reaches here. *)
      assert false
  | Ast.Create_table (name, cols) ->
      let schema =
        Schema.create
          (List.map (fun (n, t, nullable) -> Schema.col ~nullable n t) cols)
      in
      Catalog.add db.catalog (Table.create ~name schema);
      Affected 0
  | Ast.Drop_table name ->
      Catalog.drop db.catalog name;
      Quill_storage.Index.Registry.drop_table db.indexes name;
      Affected 0
  | Ast.Create_table_as (name, sel) ->
      if Catalog.find db.catalog name <> None then
        raise (Error (Printf.sprintf "table %S already exists" name));
      let env = Binder.mk_env ~catalog:db.catalog ~udfs:db.udfs ~param_types:[||] () in
      let lplan = Binder.bind_select env sel in
      let pplan = Picker.optimize ~options:db.options (opt_env db) lplan in
      let subs =
        List.rev_map
          (fun (cell, lp) -> (cell, Picker.optimize ~options:db.options (opt_env db) lp))
          !(env.Binder.subqueries)
      in
      fill_subqueries db ~params:[||] subs;
      let rows = run_engine db db.engine ~params:[||] pplan in
      let table = Table.of_rows ~name (Physical.schema_of pplan) (Array.to_list rows) in
      Catalog.add db.catalog table;
      Affected (Array.length rows)
  | Ast.Create_index (table, col) ->
      let t = Catalog.find_exn db.catalog table in
      (* Validate the column now; the index itself builds lazily. *)
      ignore (Schema.find_exn (Table.schema t) col);
      Quill_storage.Index.Registry.declare db.indexes ~table ~col;
      Catalog.bump db.catalog;
      Affected 0
  | Ast.Insert (name, cols, rows) ->
      let table = Catalog.find_exn db.catalog name in
      let schema = Table.schema table in
      let env = Binder.mk_env ~catalog:db.catalog ~udfs:db.udfs ~param_types:[||] () in
      let positions =
        match cols with
        | None -> List.init (Schema.arity schema) Fun.id
        | Some names -> List.map (Schema.find_exn schema) names
      in
      List.iter
        (fun exprs ->
          if List.length exprs <> List.length positions then
            raise (Error "INSERT: value count does not match column count");
          let row = Array.make (Schema.arity schema) Value.Null in
          List.iter2
            (fun pos e ->
              let be = bind_stmt_scalar db env (Schema.create []) e in
              row.(pos) <- Quill_plan.Bexpr.eval ~row:[||] ~params:[||] be)
            positions exprs;
          Table.insert table row)
        rows;
      Catalog.bump db.catalog;
      Affected (List.length rows)
  | Ast.Copy (name, path) ->
      let table = Catalog.find_exn db.catalog name in
      let schema = Table.schema table in
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      let rows = Quill_storage.Csv.rows_of_string ~schema text in
      Table.insert_all table rows;
      Catalog.bump db.catalog;
      Affected (List.length rows)
  | Ast.Delete (name, where) ->
      let table = Catalog.find_exn db.catalog name in
      let schema = Schema.qualify name (Table.schema table) in
      let keep =
        match where with
        | None -> fun _ -> false
        | Some w ->
            if Ast.contains_agg w then raise (Error "aggregates not allowed in DELETE");
            let env =
              Binder.mk_env ~catalog:db.catalog ~udfs:db.udfs ~param_types:[||] ()
            in
            let pred = bind_stmt_scalar db env schema w in
            if pred.Quill_plan.Bexpr.dtype <> Value.Bool_t then
              raise (Error "DELETE predicate must be boolean");
            let f = Quill_compile.Expr_compile.compile_pred pred in
            fun row -> not (f [||] row)
      in
      let removed = Table.retain table keep in
      Catalog.bump db.catalog;
      Affected removed
  | Ast.Update (name, sets, where) ->
      let table = Catalog.find_exn db.catalog name in
      let schema = Schema.qualify name (Table.schema table) in
      let env = Binder.mk_env ~catalog:db.catalog ~udfs:db.udfs ~param_types:[||] () in
      let where_fn =
        match where with
        | None -> fun _ -> true
        | Some w ->
            if Ast.contains_agg w then raise (Error "aggregates not allowed in UPDATE");
            let pred = bind_stmt_scalar db env schema w in
            if pred.Quill_plan.Bexpr.dtype <> Value.Bool_t then
              raise (Error "UPDATE predicate must be boolean");
            let f = Quill_compile.Expr_compile.compile_pred pred in
            fun row -> f [||] row
      in
      let assigns =
        List.map
          (fun (c, e) ->
            let pos = Schema.find_exn schema c in
            let be = bind_stmt_scalar db env schema e in
            let want = (Schema.column schema pos).Schema.dtype in
            let ok =
              be.Quill_plan.Bexpr.dtype = want
              || (want = Value.Float_t && be.Quill_plan.Bexpr.dtype = Value.Int_t)
              || (match be.Quill_plan.Bexpr.node with
                 | Quill_plan.Bexpr.Lit Value.Null -> true
                 | _ -> false)
            in
            if not ok then
              raise
                (Error
                   (Printf.sprintf "UPDATE: cannot assign %s to column %s (%s)"
                      (Value.dtype_name be.Quill_plan.Bexpr.dtype)
                      c (Value.dtype_name want)));
            let f = Quill_compile.Expr_compile.compile be in
            (pos, f))
          sets
      in
      let apply row =
        (* Evaluate every assignment against the pre-update row. *)
        let values = List.map (fun (pos, f) -> (pos, f [||] row)) assigns in
        List.iter (fun (pos, v) -> row.(pos) <- v) values;
        row
      in
      let n =
        try Table.update table ~where:where_fn ~apply
        with Invalid_argument m -> raise (Error m)
      in
      Catalog.bump db.catalog;
      Affected n
  | Ast.Explain { analyze; query } ->
      let env = Binder.mk_env ~catalog:db.catalog ~udfs:db.udfs ~param_types:[||] () in
      let lplan = Binder.bind_select env query in
      let pplan = Picker.optimize ~options:db.options (opt_env db) lplan in
      let subs =
        List.rev_map
          (fun (cell, lp) -> (cell, Picker.optimize ~options:db.options (opt_env db) lp))
          !(env.Binder.subqueries)
      in
      if not analyze then Text (Physical.to_string pplan)
      else begin
        fill_subqueries db ~params:[||] subs;
        let profile = Profile.create pplan in
        let _ = run_engine db Vectorized ~profile ~params:[||] pplan in
        let est = Profile.estimates pplan in
        let excl = Profile.exclusive pplan profile in
        let ops = Physical.preorder pplan in
        let lines =
          List.init (Array.length est) (fun i ->
              let info = Physical.info_of ops.(i) in
              let losers =
                List.filter (fun c -> not c.Physical.cand_chosen) info.Physical.candidates
              in
              [ string_of_int i;
                Physical.op_name ops.(i);
                Printf.sprintf "%.0f" est.(i);
                string_of_int (Profile.rows profile i);
                Quill_util.Pretty.duration excl.(i);
                Quill_util.Pretty.duration (Profile.elapsed profile i);
                String.concat ", "
                  (List.map
                     (fun c ->
                       Printf.sprintf "%s (cost=%.0f)" c.Physical.cand_name
                         c.Physical.cand_cost)
                     losers) ])
        in
        (* Which compile tier serves this plan on the adaptive path:
           interpreted under an interpret-only policy, else the stencil
           tier when the binder covers the shape, else full codegen. *)
        let tier_line =
          match db.policy with
          | Tiering.Interpret_always ->
              "compile tier: interpreted (policy interpret-always)"
          | _ -> (
              match Quill_compile.Stencil_bind.shape_of db.catalog pplan with
              | Some shape -> Printf.sprintf "compile tier: stencil (shape %s)" shape
              | None -> "compile tier: full codegen (no stencil for this shape)")
        in
        Text
          (Physical.to_string pplan
          ^ Quill_util.Pretty.render
              ~header:
                [ "op"; "operator"; "est rows"; "actual rows"; "time (self)";
                  "time (cumulative)"; "rejected candidates" ]
              lines
          ^ tier_line ^ "\n")
      end

(* --- Durability internals ---------------------------------------------- *)

(* DDL manifest replayed by [load]: CREATE TABLE / CREATE INDEX text. *)
let manifest_text db =
  let manifest = Buffer.create 256 in
  List.iter
    (fun name ->
      let table = Catalog.find_exn db.catalog name in
      let schema = Table.schema table in
      let cols =
        List.map
          (fun c ->
            Printf.sprintf "%s %s%s" c.Schema.name
              (Value.dtype_name c.Schema.dtype)
              (if c.Schema.nullable then "" else " NOT NULL"))
          (Schema.columns schema)
      in
      Buffer.add_string manifest
        (Printf.sprintf "CREATE TABLE %s (%s);\n" name (String.concat ", " cols));
      List.iter
        (fun col ->
          Buffer.add_string manifest
            (Printf.sprintf "CREATE INDEX ON %s (%s);\n" name col))
        (Quill_storage.Index.Registry.declared db.indexes name))
    (Catalog.names db.catalog);
  Buffer.contents manifest

(* The full file set of one snapshot: manifest plus one CSV per table. *)
let snapshot_files db =
  ("_manifest.sql", manifest_text db)
  :: List.map
       (fun name -> (name ^ ".csv", Csv.to_string (Catalog.find_exn db.catalog name)))
       (Catalog.names db.catalog)

(* Write generation [n] (snapshot + fresh WAL) and flip CURRENT to it.
   The flip is the commit point: a crash anywhere before it leaves the
   previous generation (snapshot AND un-truncated WAL) authoritative. *)
let write_generation db dir n policy =
  let snap = Snapshot.snap_dir dir n in
  let tmp = snap ^ ".tmp" in
  Snapshot.write ~dir:tmp (snapshot_files db);
  let wal = Wal.create ~policy (Snapshot.wal_path dir n) in
  (try
     Sim_fs.rename tmp snap;
     Sim_fs.fsync_dir dir;
     Snapshot.set_current dir n
   with e ->
     Wal.close wal;
     raise e);
  wal

(* Take a checkpoint of a durable session: new generation, then the old
   one (including its WAL — the logical WAL truncation) is pruned.  On a
   shared store, commits are quiesced (commit lock held), the session's
   view is re-synced to the committed state so the snapshot captures
   exactly that, and the fresh WAL is installed in the store so every
   session's next commit appends to it. *)
let checkpoint_durable db d =
  Trace.with_span ~cat:"storage" "checkpoint" (fun () ->
      let rotate () =
        let n = 1 + List.fold_left max d.generation (Snapshot.generations d.dur_dir) in
        let wal = write_generation db d.dur_dir n (Wal.policy d.wal) in
        Wal.close d.wal;
        d.wal <- wal;
        d.generation <- n;
        Metrics.incr m_checkpoints;
        Snapshot.prune d.dur_dir ~keep:n
      in
      match db.shared with
      | None -> rotate ()
      | Some sh ->
          (match sh.txn with
          | Some _ -> raise (Error "checkpoint: a transaction is in progress")
          | None -> ());
          Store.locked sh.handle (fun () ->
              apply_snapshot db sh (Store.snapshot_unlocked sh.handle);
              rotate ();
              Store.set_wal sh.handle (Some d.wal)))

(* Statements that change durable state and therefore must be logged.
   SELECT and EXPLAIN read only. *)
let is_mutation = function
  | Ast.Select _ | Ast.Explain _ | Ast.Begin | Ast.Commit | Ast.Rollback -> false
  | Ast.Insert _ | Ast.Update _ | Ast.Delete _ | Ast.Copy _ | Ast.Create_table _
  | Ast.Create_table_as _ | Ast.Create_index _ | Ast.Drop_table _ ->
      true

(* The table names a statement writes (creates, drops or mutates) —
   the transaction's conflict footprint and copy-on-write set. *)
let write_targets = function
  | Ast.Insert (n, _, _) | Ast.Update (n, _, _) | Ast.Delete (n, _)
  | Ast.Copy (n, _) | Ast.Create_table (n, _) | Ast.Create_table_as (n, _)
  | Ast.Drop_table n | Ast.Create_index (n, _) ->
      [ n ]
  | Ast.Select _ | Ast.Explain _ | Ast.Begin | Ast.Commit | Ast.Rollback -> []

(* One statement's governor: per-call override beats the session default;
   the session cancel flag is always armed.  [observe_peak] records the
   peak-bytes histogram however the query ends.

   A budgeted statement (unless [set_spill] turned it off) also gets a
   per-query spill session so operators can degrade to disk instead of
   dying: rooted in the durable session's data directory when there is
   one, in the process tmpdir otherwise.  The session is torn down in the
   same [finally] that records the peak — spill files never outlive their
   statement (cancel, disconnect and abort all unwind through here), and
   the governor's abort detail is captured before its session dies. *)
let governed db ?timeout_ms ?budget_bytes f =
  let timeout_ms =
    match timeout_ms with Some _ as t -> t | None -> db.timeout_ms
  in
  let budget_bytes =
    match budget_bytes with Some _ as b -> b | None -> db.budget_bytes
  in
  let spill =
    match budget_bytes with
    | Some _ when db.spill_on ->
        let root =
          match db.durable with
          | Some d -> d.dur_dir
          | None -> Spill.default_root ()
        in
        Some (Spill.fresh_session root)
    | _ -> None
  in
  let gov = Governor.create ?timeout_ms ?budget_bytes ~cancel:db.cancel ?spill () in
  Fun.protect
    ~finally:(fun () ->
      Governor.observe_peak gov;
      (match Governor.abort_detail gov with
      | Some d -> db.last_abort <- Some d
      | None -> ());
      Option.iter Spill.cleanup spill)
    (fun () -> f gov budget_bytes)

(* --- Transactions ------------------------------------------------------ *)

(** [share db] publishes the database's current state as a shared MVCC
    store and returns the store handle; {!session} opens further
    independent sessions on it.  The calling database becomes the
    store's root session: it keeps its durable state (the store commits
    through its WAL) and is the only session that can {!checkpoint}.
    Idempotent — sharing twice returns the same handle. *)
let share db =
  match db.shared with
  | Some sh -> sh.handle
  | None ->
      let tables = List.map (Catalog.find_exn db.catalog) (Catalog.names db.catalog) in
      let index_defs = Index_reg.all_defs db.indexes in
      let wal = Option.map (fun d -> d.wal) db.durable in
      let store = Store.create ?wal ~tables ~index_defs () in
      db.shared <- Some { handle = store; view_ts = 0; txn = None };
      store

(** [session store] opens a new session on a shared store: its own
    catalog view, plan cache, engine defaults and governor settings,
    reading a consistent committed snapshot that re-syncs between
    statements.  Sessions are single-threaded; concurrency comes from
    one session per thread/connection. *)
let session store =
  let db = create () in
  let sh = { handle = store; view_ts = -1; txn = None } in
  db.shared <- Some sh;
  apply_snapshot db sh (Store.snapshot store);
  db

(** [in_transaction db] is true between BEGIN and COMMIT/ROLLBACK. *)
let in_transaction db =
  match db.shared with Some { txn = Some _; _ } -> true | _ -> false

(* A session doing transactional work without an explicit [share]
   becomes the root session of its own private store. *)
let ensure_shared db =
  ignore (share db);
  Option.get db.shared

(* Statements whose row writes the cow clone's tracker accounts for
   exactly: updated base chunks, appended rows, whole-table degradation
   on delete.  Everything else (DDL, drops, creates) is a structural
   write and conflicts with any other writer of the name. *)
let tracker_covers = function
  | Ast.Insert _ | Ast.Update _ | Ast.Delete _ | Ast.Copy _ -> true
  | _ -> false

(* Stage a mutation into an open transaction: copy-on-write every
   written table the first time it is touched (the private version —
   carrying a write-footprint tracker — goes into the session catalog,
   so execution below needs no special cases), extend the conflict
   footprint, and record the SQL for the WAL frame group.

   A name whose table does not exist and which the statement does not
   create is *not* staged: the statement is about to fail, and stamping
   the phantom name at commit would spuriously conflict other
   transactions.  Membership is a hashtable probe ({!Store.stage}), not
   the old O(n^2) list scan. *)
let stage_mutation db (txn : Store.txn) stmt sql =
  List.iter
    (fun name ->
      let existing = Catalog.find db.catalog name in
      let creates =
        match stmt with
        | Ast.Create_table _ | Ast.Create_table_as _ -> true
        | _ -> false
      in
      if existing <> None || creates then begin
        let first_touch = not (Hashtbl.mem txn.Store.writes name) in
        let fp = Store.stage txn name in
        if first_touch then
          Option.iter
            (fun tbl ->
              (* The store's chunk size, not the global default: chunk
                 stamps are keyed by index, so every tracker must share
                 the granularity fixed at store creation. *)
              let chunk_rows =
                match db.shared with
                | Some sh -> Store.chunk_rows sh.handle
                | None -> !Table.default_chunk_rows
              in
              let copy = Table.cow_copy_tracked ~chunk_rows tbl in
              fp.Store.ft_tracker <- Table.tracker copy;
              Catalog.put db.catalog copy)
            existing;
        if not (tracker_covers stmt) then fp.Store.ft_whole <- true
      end)
    (write_targets stmt);
  (match stmt with
  | Ast.Create_index _ | Ast.Drop_table _ -> txn.Store.index_ddl <- true
  | _ -> ());
  if is_mutation stmt then txn.Store.stmts <- String.trim sql :: txn.Store.stmts

(* Open a transaction and pin the session view to its snapshot. *)
let open_txn db (sh : shared_session) =
  let txn = Store.begin_txn sh.handle in
  if sh.view_ts <> txn.Store.snap.Store.ts then apply_snapshot db sh txn.Store.snap;
  sh.txn <- Some txn;
  txn

(* Discard a transaction.  If it wrote anything the session catalog
   holds private versions, so force the next sync to rebuild the view;
   otherwise the view still equals the pinned snapshot. *)
let abort_txn db (sh : shared_session) (txn : Store.txn) =
  Store.rollback txn;
  sh.txn <- None;
  if Store.has_writes txn then sh.view_ts <- -1;
  sync_view db

(* Publish a transaction through the store's commit protocol.  However
   the commit ends — success, [Conflict], or an I/O error from the WAL
   flush — the session must shed its private versions and re-sync: on
   any failure the transaction is dead, and even on success other
   sessions may have committed tables this one never touched.  (Before
   the catch-all, a failed COMMIT's io error left the private rows
   visible to the very session that was told the commit failed.) *)
let publish_txn db (sh : shared_session) (txn : Store.txn) =
  sh.txn <- None;
  let lookup name = Catalog.find db.catalog name in
  let index_defs =
    if txn.Store.index_ddl then Some (Index_reg.all_defs db.indexes) else None
  in
  let reset () =
    if Store.has_writes txn then sh.view_ts <- -1;
    sync_view db
  in
  match Store.commit sh.handle txn ~lookup ~index_defs with
  | _ts -> reset ()
  | exception e ->
      reset ();
      raise e

(* Auto-commit on a shared session: every mutation is its own implicit
   transaction.  First-committer-wins conflicts are retried on a fresh
   snapshot a few times (the statement re-executes against the new
   state) before surfacing to the caller. *)
let autocommit_retries = 3

let exec_autocommit db sh stmt sql =
  let rec go attempt =
    let txn = open_txn db sh in
    let result =
      try
        stage_mutation db txn stmt sql;
        exec_stmt db stmt
      with e ->
        abort_txn db sh txn;
        raise e
    in
    match publish_txn db sh txn with
    | () -> result
    | exception Conflict m ->
        if attempt >= autocommit_retries then raise (Conflict m) else go (attempt + 1)
  in
  let result = go 1 in
  (* COPY on the root durable session folds into a checkpoint at once,
     so recovery never re-reads the external file. *)
  (match (stmt, db.durable) with
  | Ast.Copy _, Some d -> checkpoint_durable db d
  | _ -> ());
  result

(** [begin_transaction db] opens an explicit snapshot-isolation
    transaction (SQL: [BEGIN]).  Reads see the pinned snapshot plus the
    transaction's own writes; nothing is visible to other sessions until
    {!commit_transaction}. *)
let begin_transaction db =
  wrap (fun () ->
      let sh = ensure_shared db in
      match sh.txn with
      | Some _ -> raise (Error "BEGIN: a transaction is already in progress")
      | None -> ignore (open_txn db sh))

(** [commit_transaction db] publishes the open transaction (SQL:
    [COMMIT]).  Raises {!Conflict} — after rolling the transaction
    back — if a concurrent committer won a table in the write set. *)
let commit_transaction db =
  wrap (fun () ->
      match db.shared with
      | Some sh -> (
          match sh.txn with
          | Some txn -> publish_txn db sh txn
          | None -> raise (Error "COMMIT: no transaction in progress"))
      | None -> raise (Error "COMMIT: no transaction in progress"))

(** [rollback_transaction db] discards the open transaction (SQL:
    [ROLLBACK]). *)
let rollback_transaction db =
  wrap (fun () ->
      match db.shared with
      | Some sh -> (
          match sh.txn with
          | Some txn -> abort_txn db sh txn
          | None -> raise (Error "ROLLBACK: no transaction in progress"))
      | None -> raise (Error "ROLLBACK: no transaction in progress"))

(** [query db ?params ?engine ?timeout_ms ?budget_bytes sql] runs a SELECT
    and returns the result table (uncached path).  [timeout_ms] and
    [budget_bytes] override the session defaults for this call. *)
let query db ?(params = [||]) ?engine ?timeout_ms ?budget_bytes sql =
  let engine = Option.value ~default:db.engine engine in
  Trace.with_span ~args:[ ("sql", sql); ("engine", engine_name engine) ] "query"
    (fun () ->
      wrap (fun () ->
          Metrics.incr m_queries;
          sync_view db;
          governed db ?timeout_ms ?budget_bytes (fun gov budget ->
              let result, dt =
                Quill_util.Timer.time (fun () ->
                    let pplan, subs, _ = plan_full db ~params ?budget_bytes:budget sql in
                    fill_subqueries db ~gov ~params subs;
                    rows_to_table pplan (run_engine db engine ~gov ~params pplan))
              in
              Metrics.observe h_query_seconds dt;
              result)))

(** [exec db sql] runs any statement; SELECTs return [Rows].  On a
    durable session every mutation is logged to the WAL before it is
    acknowledged: the statement frame is staged, applied in memory, and
    group-committed (statement + commit marker in one write, fsynced per
    the sync policy).  A statement that fails in memory is rolled back
    from the staging buffer and never reaches the log.  COPY triggers an
    immediate checkpoint so recovery never needs to re-read the external
    file. *)
let exec db ?(params = [||]) ?timeout_ms ?budget_bytes sql =
  wrap (fun () ->
      match Parser.parse sql with
      | Ast.Select _ -> Rows (query db ~params ?timeout_ms ?budget_bytes sql)
      | Ast.Begin ->
          begin_transaction db;
          Affected 0
      | Ast.Commit ->
          commit_transaction db;
          Affected 0
      | Ast.Rollback ->
          rollback_transaction db;
          Affected 0
      | stmt -> (
          sync_view db;
          match db.shared with
          | Some sh -> (
              match sh.txn with
              | Some txn -> (
                  (* Inside an explicit transaction every statement is
                     all-or-nothing at the transaction level: an error
                     rolls the whole transaction back (the copy-on-write
                     version may hold a partial application). *)
                  try
                    stage_mutation db txn stmt sql;
                    exec_stmt db stmt
                  with e ->
                    abort_txn db sh txn;
                    raise e)
              | None ->
                  if is_mutation stmt then exec_autocommit db sh stmt sql
                  else exec_stmt db stmt)
          | None -> (
              match db.durable with
              | Some d when is_mutation stmt ->
                  Wal.log_statement d.wal (String.trim sql);
                  let result =
                    try exec_stmt db stmt
                    with e ->
                      Wal.rollback d.wal;
                      raise e
                  in
                  Wal.commit d.wal;
                  (match stmt with Ast.Copy _ -> checkpoint_durable db d | _ -> ());
                  result
              | _ -> exec_stmt db stmt)))

(** [explain db ?analyze sql] renders the optimized plan; with
    [~analyze:true] also executes and reports estimated vs. actual rows. *)
let explain db ?(analyze = false) sql =
  wrap (fun () ->
      sync_view db;
      match Parser.parse sql with
      | Ast.Select sel -> (
          match exec_stmt db (Ast.Explain { analyze; query = sel }) with
          | Text s -> s
          | _ -> assert false)
      | _ -> raise (Error "explain: not a SELECT statement"))

(** [query_adaptive db ?params sql] is the managed-runtime path: plans are
    cached per (sql, parameter types); the first execution is profiled and
    may trigger feedback re-optimization; repeated executions tier up to
    the compiled engine per the session policy. *)
let query_adaptive db ?(params = [||]) ?timeout_ms ?budget_bytes sql =
  Trace.with_span ~args:[ ("sql", sql) ] "query-adaptive" @@ fun () ->
  wrap (fun () ->
      Metrics.incr m_queries;
      sync_view db;
      governed db ?timeout_ms ?budget_bytes @@ fun gov budget ->
      let param_types = param_types_of params in
      let version = Catalog.version db.catalog in
      match
        Plan_cache.find db.cache ~sql ~param_types ~params
          ~catalog_version:version
      with
      | Some entry ->
          Trace.instant "plan-cache-hit";
          fill_subqueries db ~gov ~params entry.Plan_cache.subs;
          let ctx =
            Exec_ctx.create ~params ~governor:gov db.catalog
          in
          let rows, dt =
            Quill_util.Timer.time (fun () ->
                Trace.with_span ~cat:"exec" "execute" (fun () ->
                    Tiering.execute ~cache:db.cache ~policy:db.policy ~ctx entry))
          in
          Metrics.observe h_query_seconds dt;
          rows_to_table entry.Plan_cache.plan (Quill_util.Vec.to_array rows)
      | None ->
          let pplan, subs, classifier =
            plan_full db ~params ?budget_bytes:budget sql
          in
          fill_subqueries db ~gov ~params subs;
          (* The first execution is instrumented; estimation misses feed
             the feedback store and can trigger an immediate re-plan for
             subsequent executions. *)
          let profile = Profile.create pplan in
          let rows, elapsed =
            Quill_util.Timer.time (fun () ->
                run_engine db Vectorized ~profile ~gov ~params pplan)
          in
          let _ = Feedback.learn db.feedback db.catalog pplan profile in
          let cached_plan, cached_subs =
            if Feedback.should_reoptimize pplan profile then begin
              Trace.instant "re-optimize";
              let p, s, _ = plan_full db ~params ?budget_bytes:budget sql in
              (p, s)
            end
            else (pplan, subs)
          in
          let entry =
            Plan_cache.add db.cache ~sql ~param_types ~params ?classifier
              ~catalog_version:version ~subs:cached_subs cached_plan
          in
          entry.Plan_cache.runs <- 1;
          entry.Plan_cache.total_exec_time <- elapsed;
          Metrics.observe h_query_seconds elapsed;
          rows_to_table pplan rows)

(** [cache_stats db] returns (entries, total runs, compiled count) for
    observability. *)
let cache_stats db =
  let entries = ref 0 and runs = ref 0 and compiled = ref 0 in
  Hashtbl.iter
    (fun _ (e : Plan_cache.entry) ->
      incr entries;
      runs := !runs + e.Plan_cache.runs;
      if e.Plan_cache.compiled <> None then incr compiled)
    db.cache.Plan_cache.entries;
  (!entries, !runs, !compiled)

(* Cheap syntactic dispatch so the prepared path skips a full parse for
   the (dominant) SELECT case; anything else falls through to [exec],
   which parses properly. *)
let starts_with_select sql =
  let n = String.length sql in
  let rec skip i =
    if i < n && (sql.[i] = ' ' || sql.[i] = '\t' || sql.[i] = '\n' || sql.[i] = '\r')
    then skip (i + 1)
    else i
  in
  let i = skip 0 in
  n - i >= 6 && String.lowercase_ascii (String.sub sql i 6) = "select"

(** [exec_prepared db ?params sql] is the prepared-statement execution
    path: SELECTs go through the adaptive plan cache (band-aware cached
    plans, profiling, tier-up), everything else behaves like [exec].
    This is what the server and the traffic driver use per execution. *)
let exec_prepared db ?(params = [||]) ?timeout_ms ?budget_bytes sql =
  if starts_with_select sql then
    Rows (query_adaptive db ~params ?timeout_ms ?budget_bytes sql)
  else exec db ~params ?timeout_ms ?budget_bytes sql

(** [set_plan_cache_budget db bytes] bounds the estimated memory of
    cached plans; least-recently-used entries are evicted immediately if
    the cache is over the new budget. *)
let set_plan_cache_budget db bytes = Plan_cache.set_budget db.cache bytes

(** [set_plan_cache_capacity db n] bounds the number of cached plans. *)
let set_plan_cache_capacity db n = Plan_cache.set_capacity db.cache n

(* --- Observability ----------------------------------------------------- *)

(** [set_tracing on] turns the process-wide query-lifecycle span tracer
    on or off.  Turning it on starts a fresh trace. *)
let set_tracing on = Trace.set_enabled on

(** [tracing ()] is true while spans are being recorded. *)
let tracing () = Trace.enabled ()

(** [clear_trace ()] drops recorded spans and restarts the trace epoch. *)
let clear_trace () = Trace.clear ()

(** [trace_json ()] exports recorded spans as Chrome trace-event JSON. *)
let trace_json () = Trace.to_chrome_json ()

(** [metrics_text ()] renders the process-wide metrics registry. *)
let metrics_text () = Metrics.render ()

(* --- Persistence ------------------------------------------------------- *)

(** [save db dir] writes the database to directory [dir]: one CSV file per
    table plus a [_manifest.sql] of CREATE TABLE / CREATE INDEX statements
    that [load] replays.  Every file is written atomically (tmp + fsync +
    rename) and a [_checksums] manifest records each file's CRC32, so a
    crash or full disk mid-save can never corrupt an existing directory:
    readers see either the old file or the new one, and {!load} verifies
    the checksums before trusting anything. *)
let save db dir = wrap (fun () -> Snapshot.write ~dir (snapshot_files db))

(* Read a snapshot-layout directory (manifest + CSVs [+ checksums]) into
   a fresh database.  Raises [Error] naming the precise missing or
   corrupt file; shared by [load] and durable recovery. *)
let load_dir dir =
  Snapshot.verify ~dir;
  let db = create () in
  let manifest_path = Filename.concat dir "_manifest.sql" in
  let manifest =
    match Sim_fs.read_file manifest_path with
    | Some s -> s
    | None -> raise (Error (Printf.sprintf "load: missing manifest file %s" manifest_path))
  in
  String.split_on_char ';' manifest
  |> List.iter (fun stmt ->
         let stmt = String.trim stmt in
         if stmt <> "" then ignore (exec db stmt));
  List.iter
    (fun name ->
      let path = Filename.concat dir (name ^ ".csv") in
      match Sim_fs.read_file path with
      | None ->
          raise
            (Error (Printf.sprintf "load: missing file %s (table %s)" path name))
      | Some text ->
          let table = Catalog.find_exn db.catalog name in
          let rows = Csv.rows_of_string ~schema:(Table.schema table) ~src:path text in
          Table.insert_all table rows;
          Catalog.bump db.catalog)
    (Catalog.names db.catalog);
  db

(** [load dir] reads a database previously written by {!save}, verifying
    file checksums.  Missing or corrupt files raise {!Error} naming the
    file (never a bare [Sys_error]). *)
let load dir =
  wrap (fun () ->
      if not (Sys.file_exists dir) then
        raise (Error (Printf.sprintf "load: no such directory %s" dir));
      load_dir dir)

(* --- Durable sessions -------------------------------------------------- *)

(** What {!open_durable} recovered. *)
type recovery_report = {
  generation : int;  (** the snapshot generation recovery started from *)
  replayed : int;  (** committed WAL statements re-applied on top of it *)
  dropped : int;  (** uncommitted or torn-tail statements discarded *)
  torn : bool;  (** the WAL scan stopped early (torn frame, bad CRC, replay error) *)
  note : string option;  (** human-readable detail on where/why it stopped *)
}

(** [checkpoint db] snapshots a durable session into a new generation
    (checksummed, atomic) and truncates the WAL: [snap-<n+1>] and an
    empty [wal-<n+1>] are written, [CURRENT] flips atomically, and the
    old generation is pruned.  A crash at any point leaves the previous
    generation fully authoritative. *)
let checkpoint db =
  wrap (fun () ->
      match db.durable with
      | None -> raise (Error "checkpoint: not a durable session (use open_durable)")
      | Some d -> checkpoint_durable db d)

(** [open_durable ?policy dir] opens (or creates) a crash-safe database
    rooted at [dir] and returns it with a report of what recovery found:
    the CURRENT snapshot generation is verified and loaded, then the
    generation's WAL is replayed — committed statements only, stopping at
    the first torn or corrupt record — and if the WAL held anything (or
    was damaged) a fresh checkpoint re-bases the directory.  Subsequent
    mutations are write-ahead logged with sync policy [policy] (default
    {!On_commit}). *)
let open_durable ?(policy = Wal.On_commit) dir =
  wrap (fun () ->
      Metrics.incr m_recoveries;
      Trace.with_span ~cat:"storage" ~args:[ ("dir", dir) ] "recovery" (fun () ->
          if not (Sys.file_exists dir) then Sim_fs.mkdir dir;
          (* Spill files are per-statement scratch; any found here were
             orphaned by a crash mid-spill.  Remove them before recovery
             proper. *)
          let stray = Spill.prune_orphans dir in
          if stray > 0 then
            Trace.instant ~cat:"storage" "spill-pruned"
              ~args:[ ("sessions", string_of_int stray) ];
          match Snapshot.current dir with
          | None ->
              (* Fresh (or pre-durability) directory: generation 0 is an
                 empty database. *)
              Snapshot.prune dir ~keep:(-1);
              let db = create () in
              let wal = write_generation db dir 0 policy in
              db.durable <- Some { dur_dir = dir; generation = 0; wal };
              (db, { generation = 0; replayed = 0; dropped = 0; torn = false; note = None })
          | Some n ->
              let db = load_dir (Snapshot.snap_dir dir n) in
              let wr = Wal.replay (Snapshot.wal_path dir n) in
              let replayed = ref 0 and replay_note = ref None in
              let describe = function
                | Wal.Stmt sql -> sql
                | Wal.Patch { table; _ } -> Printf.sprintf "patch for table %s" table
              in
              (try
                 List.iter
                   (fun entry ->
                     (try
                        match entry with
                        | Wal.Stmt sql -> ignore (exec db sql)
                        | Wal.Patch { table; data } -> (
                            match Catalog.find db.catalog table with
                            | None ->
                                failwith
                                  (Printf.sprintf "patch targets unknown table %s" table)
                            | Some tbl ->
                                Csv.apply_patch tbl data;
                                (* Patches bypass the DML paths, so bump the
                                   catalog version by hand to invalidate
                                   cached plans and statistics. *)
                                Catalog.bump db.catalog)
                      with e ->
                        replay_note :=
                          Some
                            (Printf.sprintf "replay stopped at entry %d (%s): %s"
                               (!replayed + 1) (describe entry) (Printexc.to_string e));
                        raise Exit);
                     incr replayed)
                   wr.Wal.entries
               with Exit -> ());
              let dropped =
                wr.Wal.dropped + (List.length wr.Wal.entries - !replayed)
              in
              let torn = wr.Wal.torn || !replay_note <> None in
              let note =
                match (!replay_note, wr.Wal.detail) with
                | Some m, _ -> Some m
                | None, d -> d
              in
              Metrics.add m_recovered !replayed;
              Metrics.add m_dropped dropped;
              Trace.instant ~cat:"storage" "recovered"
                ~args:
                  [ ("generation", string_of_int n);
                    ("replayed", string_of_int !replayed);
                    ("dropped", string_of_int dropped) ];
              let wal = Wal.open_append ~policy (Snapshot.wal_path dir n) in
              let d = { dur_dir = dir; generation = n; wal } in
              db.durable <- Some d;
              (* Re-base whenever the WAL held anything: replayed work is
                 folded into a fresh snapshot and a damaged tail is
                 discarded for good (appending after it would be lost to
                 the next recovery's stop-at-first-tear scan). *)
              if !replayed > 0 || dropped > 0 || torn then checkpoint_durable db d
              else Snapshot.prune dir ~keep:n;
              (db, { generation = n; replayed = !replayed; dropped; torn; note })))

(** [durable_dir db] is the root directory of a durable session. *)
let durable_dir db =
  match db.durable with Some d -> Some d.dur_dir | None -> None

(** Status of a durable session, for shells and tests. *)
type wal_status = {
  ws_dir : string;
  ws_generation : int;
  ws_policy : sync_policy;
  ws_appended : int;  (** statements committed to the WAL by this handle *)
}

(** [wal_status db] describes the session's WAL ([None] when the session
    is purely in-memory). *)
let wal_status db =
  match db.durable with
  | None -> None
  | Some d ->
      Some
        { ws_dir = d.dur_dir; ws_generation = d.generation;
          ws_policy = Wal.policy d.wal; ws_appended = Wal.appended d.wal }

(** [set_sync_policy db p] changes when WAL commits are fsynced:
    {!Never} (OS decides), {!On_commit} (every commit, the default), or
    {!Every}[ n] (batched).  Errors on a non-durable session. *)
let set_sync_policy db p =
  match db.durable with
  | None -> raise (Error "set_sync_policy: not a durable session")
  | Some d -> Wal.set_policy d.wal p

(** [wal_sync db] forces the session's WAL to stable storage now. *)
let wal_sync db =
  wrap (fun () ->
      match db.durable with
      | None -> raise (Error "wal_sync: not a durable session")
      | Some d -> Wal.sync d.wal)
