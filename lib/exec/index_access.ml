(* Shared index-scan runtime: fetch the ordered index cached on the
   table version being read (built on first use) and produce matching
   rowids for evaluated bounds.

   A NULL bound value means the comparison can never be true, hence an
   empty result. *)

module Value = Quill_storage.Value
module Index = Quill_storage.Index

(** [rowids table ~col ~lo ~hi] returns matching row ids of [table] in
    index (key) order; bounds are already-evaluated values. *)
let rowids table ~col ~lo ~hi =
  let null_bound =
    (match lo with Some (v, _) when Value.is_null v -> true | _ -> false)
    || match hi with Some (v, _) when Value.is_null v -> true | _ -> false
  in
  if null_bound then []
  else begin
    Index.Ordered_index.range (Index.Ordered_index.of_table table col) ?lo ?hi ()
  end

(** [eval_bound ~params b] evaluates an index bound expression. *)
let eval_bound ~params b =
  Option.map
    (fun (e, incl) -> (Quill_plan.Bexpr.eval ~row:[||] ~params e, incl))
    b
