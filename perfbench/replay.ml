(* The traced replay: one SELECT driven step by step through the public
   functions of each layer, with a benchmark span around every call.  It
   follows the order [Db] uses (parse, bind, rewrite, join order, pick,
   stencil bind or full codegen, run), so that its result can be checked
   against [Db]'s and its spans attribute the statement's time. *)

module Value = Quill_storage.Value
module Schema = Quill_storage.Schema
module Table = Quill_storage.Table
module Catalog = Quill_storage.Catalog
module Index_reg = Quill_storage.Index.Registry
module Ast = Quill_sql.Ast
module Parser = Quill_sql.Parser
module Binder = Quill_plan.Binder
module Udf = Quill_plan.Udf
module Table_stats = Quill_stats.Table_stats
module Card = Quill_optimizer.Card
module Rewrite = Quill_optimizer.Rewrite
module Join_order = Quill_optimizer.Join_order
module Picker = Quill_optimizer.Picker
module Physical = Quill_optimizer.Physical
module Stencil_bind = Quill_compile.Stencil_bind
module Codegen = Quill_compile.Codegen
module Governor = Quill_exec.Governor

type t = {
  catalog : Catalog.t;
  udfs : Udf.t;
  registry : Table_stats.Registry.reg;
  indexes : Index_reg.t;
  options : Picker.options;
}

let create ?(indexes = Index_reg.create ()) catalog =
  {
    catalog;
    udfs = Udf.builtins ();
    registry = Table_stats.Registry.create ();
    indexes;
    options =
      { Picker.default_options with
        Picker.parallelism = Quill_parallel.Pool.parallelism () };
  }

(** [analyze t] collects statistics for every table; returns seconds. *)
let analyze t =
  let t0 = Common.now () in
  List.iter
    (fun name -> ignore (Table_stats.Registry.analyze t.registry t.catalog name))
    (Catalog.names t.catalog);
  Common.now () -. t0

let param_types params =
  Array.map (fun v -> if Value.is_null v then Value.Str_t else Value.type_of v) params

let indexed t table =
  match Catalog.find t.catalog table with
  | None -> []
  | Some tbl ->
      List.filter_map
        (fun col -> Schema.find (Table.schema tbl) col |> Result.to_option)
        (Index_reg.declared t.indexes table)

let card_env t params = Card.make_env ~indexed:(indexed t) ~params t.catalog t.registry

(** [plan t ~params sql] parses, binds and optimizes [sql]; returns the
    physical plan and the bound logical plan. *)
let plan t ~params sql =
  let sel =
    match Span.with_ "sql.parse" (fun () -> Parser.parse sql) with
    | Ast.Select s -> s
    | _ -> invalid_arg "replay: not a SELECT"
  in
  let env =
    Binder.mk_env ~catalog:t.catalog ~udfs:t.udfs ~param_types:(param_types params) ()
  in
  let lplan = Span.with_ "plan.bind" (fun () -> Binder.bind_select env sel) in
  if !(env.Binder.subqueries) <> [] then invalid_arg "replay: subqueries are not replayed";
  let cenv = card_env t params in
  let p = Span.with_ "optimizer.rewrite" (fun () -> Rewrite.rewrite lplan) in
  let p =
    if t.options.Picker.enable_reorder then
      Span.with_ "optimizer.join_order" (fun () -> Join_order.reorder cenv p)
    else p
  in
  let phys =
    Span.with_ "optimizer.pick" (fun () ->
        Picker.to_physical ~options:t.options cenv
          (Rewrite.drop_noop_projects (Rewrite.merge_perm_projects p)))
  in
  (phys, lplan, cenv)

(** [compile t phys] tries the stencil tier, then full codegen; the flag
    says whether the stencil tier served the plan. *)
let compile t phys =
  match Span.with_ "compile.stencil_bind" (fun () -> Stencil_bind.bind t.catalog phys) with
  | Some f -> (f, true)
  | None ->
      (Span.with_ "compile.codegen" (fun () -> Codegen.compile ~indexes:t.indexes t.catalog phys), false)

(* Result bytes are only charged under a budget; one no query reaches
   makes the governor count the peak without ever aborting. *)
let counting_budget = 1 lsl 60

(** [scanned t phys] is the number of base-table rows the plan's full
    scans read.  The compiled engine keeps no scan counter of its own, so
    the count comes from the plan. *)
let scanned t phys =
  Array.fold_left
    (fun acc -> function
      | Physical.Scan { table; _ } -> (
          match Catalog.find t.catalog table with
          | Some tbl -> acc + Table.row_count tbl
          | None -> acc)
      | _ -> acc)
    0 (Physical.preorder phys)

type outcome = {
  rows : Value.t array array;
  nodes : int;  (** physical plan operators *)
  scanned : int;  (** base-table rows read by full scans *)
  stencil_hit : bool;
  peak_bytes : int;
}

(** [select t sql] is a one-shot statement, as [Db.query] runs it on the
    compiled engine. *)
let select t sql =
  let phys, _, _ = plan t ~params:[||] sql in
  let f, stencil_hit = compile t phys in
  let gov = Governor.create ~budget_bytes:counting_budget () in
  let rows = Span.with_ "exec.run" (fun () -> f gov [||]) in
  {
    rows = Quill_util.Vec.to_array rows;
    nodes = Array.length (Physical.preorder phys);
    scanned = scanned t phys;
    stencil_hit;
    peak_bytes = Governor.peak_bytes gov;
  }
