(* The adhoc_small statement pool: distinct SELECTs with inlined
   literals over the TPC-H-like schema.

   A handful of statements can dominate the pool's total time (a 3-way
   join whose customer filter is estimated to keep almost nothing runs
   for about 200 ms, against 0.2 ms for the median statement), so a pool
   drawn afresh per seed would make the mean depend on how many of those
   the seed happened to draw.  The pool's structure (shapes, conjunct
   kinds and counts, where each threshold sits in its range) therefore
   comes from a fixed generator, and the seed moves every numeric
   literal within a narrow band around that position and picks every
   categorical literal.  Every seed yields the same statements per shape
   with different literals. *)

type shape = Filter | Global_agg | Grouped_agg | Join2 | Join3 | Top_n

let shapes = [ Filter; Global_agg; Grouped_agg; Join2; Join3; Top_n ]

let shape_name = function
  | Filter -> "filter"
  | Global_agg -> "global_agg"
  | Grouped_agg -> "grouped_agg"
  | Join2 -> "join2"
  | Join3 -> "join3"
  | Top_n -> "top_n"

type stmt = { sql : string; label : string; ordered : bool }

(* [s] draws the structure and is the same for every seed; [l] draws the
   literals from the seed. *)
type gen = { mutable s : Random.State.t; l : Random.State.t }

let choose g n = Random.State.int g.s n

(* A value in [lo, hi]: a fixed position in the range, moved by the seed
   by up to 2% of the range. *)
let num g lo hi =
  let base = Random.State.float g.s 1.0 and jitter = Random.State.float g.l 0.04 -. 0.02 in
  lo +. ((hi -. lo) *. Float.min 1.0 (Float.max 0.0 (base +. jitter)))

let inum g lo hi = int_of_float (Float.round (num g (float_of_int lo) (float_of_int hi)))
let cat g a = a.(Random.State.int g.l (Array.length a))

let date g =
  let lo = Quill_storage.Value.date_of_ymd ~y:1992 ~m:1 ~d:1
  and hi = Quill_storage.Value.date_of_ymd ~y:1998 ~m:12 ~d:31 in
  Printf.sprintf "DATE '%s'" (Quill_storage.Value.date_string (inum g lo hi))

let money g lo hi = Printf.sprintf "%.2f" (num g lo hi)

(* Candidate conjuncts per table; [orders] is the row count of orders,
   which bounds the key ranges. *)
let lineitem_conj ~orders g =
  match choose g 10 with
  | 0 -> Printf.sprintf "l_quantity < %d" (inum g 5 50)
  | 1 ->
      let a = num g 0.0 0.08 in
      Printf.sprintf "l_discount BETWEEN %.2f AND %.2f" a (a +. 0.02)
  | 2 -> "l_shipdate >= " ^ date g
  | 3 -> "l_shipdate < " ^ date g
  | 4 -> Printf.sprintf "l_returnflag %s '%s'" (cat g [| "="; "<>" |]) (cat g [| "A"; "N"; "R" |])
  | 5 -> Printf.sprintf "l_linestatus = '%s'" (cat g [| "F"; "O" |])
  | 6 -> "l_extendedprice > " ^ money g 100.0 50000.0
  | 7 -> Printf.sprintf "l_tax <= %.2f" (num g 0.0 0.08)
  | 8 ->
      let a = inum g 1 orders in
      Printf.sprintf "l_orderkey BETWEEN %d AND %d" a (a + inum g 0 (orders / 2))
  | _ -> Printf.sprintf "l_linenumber <= %d" (inum g 1 7)

let orders_conj ~orders g =
  match choose g 7 with
  | 0 -> "o_totalprice > " ^ money g 1000.0 300000.0
  | 1 -> "o_orderdate >= " ^ date g
  | 2 -> "o_orderdate < " ^ date g
  | 3 -> Printf.sprintf "o_orderpriority = '%s'" (cat g Quill_workload.Tpch.priorities)
  | 4 -> Printf.sprintf "o_orderstatus = '%s'" (cat g [| "F"; "O" |])
  | 5 ->
      let a = inum g 1 orders in
      Printf.sprintf "o_orderkey BETWEEN %d AND %d" a (a + inum g 0 (orders / 2))
  | _ -> Printf.sprintf "o_shippriority = %d" (cat g [| 0; 1 |])

let customer_conj g =
  match choose g 3 with
  | 0 -> "c_acctbal > " ^ money g (-999.0) 9999.0
  | 1 -> Printf.sprintf "c_mktsegment = '%s'" (cat g Quill_workload.Tpch.segments)
  | _ -> Printf.sprintf "c_nationkey < %d" (inum g 1 25)

let conjs g n gen = List.init n (fun _ -> gen g)
let where cs = String.concat " AND " cs

(* 1–8 conjuncts in total for every statement. *)
let n_conj g = 1 + choose g 8

let gen_stmt ~orders g shape =
  let li = lineitem_conj ~orders and od = orders_conj ~orders in
  let sql =
    match shape with
    | Filter ->
        (* A narrow order-key range first keeps result sets small. *)
        let a = inum g 1 orders in
        let key = Printf.sprintf "l_orderkey BETWEEN %d AND %d" a (a + inum g 0 60) in
        Printf.sprintf
          "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice FROM lineitem WHERE %s"
          (where (key :: conjs g (n_conj g - 1) li))
    | Global_agg ->
        if choose g 2 = 0 then
          Printf.sprintf
            "SELECT COUNT(*), SUM(l_extendedprice), MIN(l_discount), MAX(l_quantity), AVG(l_tax) FROM lineitem WHERE %s"
            (where (conjs g (n_conj g) li))
        else
          Printf.sprintf
            "SELECT COUNT(*), SUM(o_totalprice), MIN(o_orderdate), MAX(o_totalprice) FROM orders WHERE %s"
            (where (conjs g (n_conj g) od))
    | Grouped_agg ->
        if choose g 2 = 0 then
          Printf.sprintf
            "SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), AVG(l_extendedprice) FROM lineitem WHERE %s GROUP BY l_returnflag, l_linestatus"
            (where (conjs g (n_conj g) li))
        else
          Printf.sprintf
            "SELECT o_orderpriority, COUNT(*), AVG(o_totalprice) FROM orders WHERE %s GROUP BY o_orderpriority"
            (where (conjs g (n_conj g) od))
    | Join2 ->
        let n = n_conj g in
        let k = choose g (n + 1) in
        Printf.sprintf
          "SELECT o_orderpriority, COUNT(*), SUM(l_extendedprice) FROM orders, lineitem WHERE %s GROUP BY o_orderpriority"
          (where (("o_orderkey = l_orderkey" :: conjs g k od) @ conjs g (n - k) li))
    | Join3 ->
        let n = n_conj g in
        let k = choose g (n + 1) in
        Printf.sprintf
          "SELECT c_mktsegment, COUNT(*), SUM(l_extendedprice * (1 - l_discount)) FROM customer, orders, lineitem WHERE %s GROUP BY c_mktsegment"
          (where
             (("c_custkey = o_custkey" :: "o_orderkey = l_orderkey" :: conjs g k customer_conj)
             @ conjs g (n - k) (fun g -> if choose g 2 = 0 then od g else li g)))
    | Top_n ->
        Printf.sprintf
          "SELECT o_orderkey, o_custkey, o_totalprice FROM orders WHERE %s ORDER BY o_totalprice DESC, o_orderkey LIMIT %d"
          (where (conjs g (n_conj g) od))
          (inum g 1 50)
  in
  { sql; label = shape_name shape; ordered = shape = Top_n }

(** [pool ~seed ~per_shape ~orders] is [per_shape] statements of every
    shape, in a fixed order, distinct but for rare duplicates. *)
let pool ~seed ~per_shape ~orders =
  let g = { s = Random.State.make [| 0xad40c |]; l = Random.State.make [| seed; 0xad40c |] } in
  let seen = Hashtbl.create 4096 in
  (* A duplicate redraws its literals only, from the same structure, so
     the structure stream stays the same for every seed.  A structure
     whose literals barely move (say, one small integer bound) may stay a
     duplicate; after 50 draws it is kept as one. *)
  let rec fresh shape tries =
    let s0 = Random.State.copy g.s in
    let st = gen_stmt ~orders g shape in
    if Hashtbl.mem seen st.sql && tries < 50 then begin
      g.s <- s0;
      fresh shape (tries + 1)
    end
    else begin
      Hashtbl.replace seen st.sql ();
      st
    end
  in
  let all =
    Array.of_list
      (List.concat_map (fun shape -> List.init per_shape (fun _ -> fresh shape 0)) shapes)
  in
  let order = Random.State.make [| 0x0d3e5 |] in
  for i = Array.length all - 1 downto 1 do
    let j = Random.State.int order (i + 1) in
    let x = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- x
  done;
  all
