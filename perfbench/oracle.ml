(* Result comparison for the oracles.  Floats are compared with a
   relative tolerance, because morsel-parallel aggregation adds in a
   different order than the serial reference.  ORDER BY results are
   compared in order, everything else as a multiset of rows. *)

module Value = Quill_storage.Value
module Table = Quill_storage.Table

let float_eq x y =
  x = y || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))

let value_eq a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> float_eq x y
  | Value.Float x, Value.Int y | Value.Int y, Value.Float x -> float_eq x (float_of_int y)
  | _ -> Value.equal a b

let row_eq a b =
  Array.length a = Array.length b && Array.for_all2 value_eq a b

let compare_rows a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then compare (Array.length a) (Array.length b)
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let rows_of_table t = Array.of_list (Table.to_row_list t)

let show_row r = "(" ^ String.concat ", " (Array.to_list (Array.map Value.to_string r)) ^ ")"

(** [check ~what ~ordered expected actual] raises
    {!Common.Oracle_failure} naming the first difference. *)
let check ~what ~ordered (expected : Value.t array array) (actual : Value.t array array) =
  let ne = Array.length expected and na = Array.length actual in
  if ne <> na then Common.oracle_fail "%s: %d rows, expected %d" what na ne;
  let e, a =
    if ordered then (expected, actual)
    else begin
      let e = Array.copy expected and a = Array.copy actual in
      Array.sort compare_rows e;
      Array.sort compare_rows a;
      (e, a)
    end
  in
  Array.iteri
    (fun i r ->
      if not (row_eq r a.(i)) then
        Common.oracle_fail "%s: row %d is %s, expected %s" what i (show_row a.(i))
          (show_row r))
    e

(* --- poison modes ------------------------------------------------------ *)

(** The oracle self-test: [""] (off), ["value"], ["order"] or
    ["lost_write"]. *)
let poison = ref ""

let poisoned = ref false

(** [maybe_poison ~ordered rows] corrupts the first eligible result of
    the run once, the way a faulty engine would: a wrong value in the
    first row, or the first two rows of an ordered result swapped. *)
let maybe_poison ~ordered (r : Value.t array array) =
  if !poisoned then r
  else
    match !poison with
    | "value" when Array.length r > 0 && Array.length r.(0) > 0 ->
        poisoned := true;
        let r = Array.map Array.copy r in
        r.(0).(0) <-
          (match r.(0).(0) with
          | Value.Int i -> Value.Int (i + 1)
          | Value.Float f -> Value.Float (f +. 1.0)
          | _ -> Value.Null);
        r
    | "order" when ordered && Array.length r >= 2 && not (row_eq r.(0) r.(1)) ->
        poisoned := true;
        let r = Array.copy r in
        let x = r.(0) in
        r.(0) <- r.(1);
        r.(1) <- x;
        r
    | _ -> r
