(* Execution context shared by all engines: the catalog, bound parameter
   values, an optional profile sink, and the per-query resource governor.
   Index scans need no registry here: they read the index cached on the
   table version they scan ({!Quill_storage.Index.Ordered_index.of_table}). *)

type t = {
  catalog : Quill_storage.Catalog.t;
  params : Quill_storage.Value.t array;
  profile : Profile.t option;
  governor : Governor.t;
}

(** [create ?params ?profile ?indexes ?governor catalog] builds a context;
    without [governor] the query runs ungoverned ({!Governor.none}).
    [indexes] is accepted for callers that thread a session registry and
    is not consulted. *)
let create ?(params = [||]) ?profile ?indexes:(_ : Quill_storage.Index.Registry.t option)
    ?(governor = Governor.none) catalog =
  { catalog; params; profile; governor }
