(* Bounded top-k selection with a binary heap — spillable.

   Keeps the k best rows under a comparator in a max-heap (worst at the
   root) so each new row costs O(log k); the full sort is avoided, which
   is the point of the Sort+Limit fusion (picker's TopK).

   The heap is already the minimal state for top-k, so it only pressures
   the budget when k itself is large.  When that happens (and [keys] are
   provided, on a spill-capable governor) the heap converts to external
   mode: the kept rows dump as a sorted run, later offers buffer and dump
   likewise, and [finish] k-way merges the runs taking the first k — an
   external merge sort truncated at k. *)

module Value = Quill_storage.Value
module Spill = Quill_storage.Spill
module Vec = Quill_util.Vec
module Lplan = Quill_plan.Lplan

type t = {
  cmp : Value.t array -> Value.t array -> int;  (** ascending "better first" *)
  data : Value.t array array;
  mutable len : int;
  gov : Governor.t;
  bytes : Value.t array -> int;  (** element size estimate while growing *)
  keys : (int * Lplan.dir) list option;  (** sort keys enabling spilling *)
  k : int;
  mutable charged : int;
  mutable external_ : bool;  (** heap abandoned; buffering + spilling *)
  buf : Value.t array Vec.t;  (** external-mode buffer *)
  mutable runs : Spill.run list;  (** newest first *)
  mutable handle : int option;
  session : Spill.t option;
}

(* The governor spill callback: dump the kept set (heap or buffer) as one
   sorted run and release its memory.  First firing abandons the heap for
   external mode.  Runs inside [charge]; must not (un)register or charge. *)
let spill_topk t =
  match (t.session, t.keys) with
  | Some sess, Some keys ->
      let rows =
        if t.external_ then Vec.to_array t.buf else Array.sub t.data 0 t.len
      in
      if Array.length rows = 0 then 0
      else begin
        Sort_algos.sort_rows keys rows;
        let w = Spill.start_run sess in
        let run =
          match
            Array.iter (Spill.add_row w) rows;
            Spill.finish_run w
          with
          | run -> run
          | exception e ->
              Spill.abandon w;
              raise e
        in
        t.runs <- run :: t.runs;
        if t.external_ then Vec.clear t.buf
        else begin
          t.len <- 0;
          t.external_ <- true
        end;
        let released = t.charged in
        t.charged <- 0;
        Governor.uncharge t.gov released;
        released
      end
  | _ -> 0

(** [create ~cmp ~k ~dummy ()] returns an empty top-k collector for the
    [k] smallest elements under [cmp].  [gov] is ticked per offer and
    charged [bytes] per kept element while the heap grows — a bounded
    buffer, but k can be large; passing [keys] (which must order rows
    like [cmp]) lets the collector spill instead of aborting then. *)
let create ?(gov = Governor.none) ?(bytes = fun _ -> 0) ?keys ~cmp ~k ~dummy () =
  assert (k > 0);
  let t =
    {
      cmp;
      data = Array.make k dummy;
      len = 0;
      gov;
      bytes;
      keys;
      k;
      charged = 0;
      external_ = false;
      buf = Vec.create ~dummy:[||];
      runs = [];
      handle = None;
      session = (if keys = None then None else Governor.spill_session gov);
    }
  in
  if t.session <> None then
    t.handle <-
      Governor.register_spiller gov ~name:"top-k" ~cost:2 (fun () -> spill_topk t);
  t

let swap t i j =
  let x = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- x

(* Max-heap on [cmp]: parent >= children, so data.(0) is the current worst
   of the kept set. *)
let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(parent) t.data.(i) < 0 then begin
      swap t parent i;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let largest = ref i in
  if l < t.len && t.cmp t.data.(l) t.data.(!largest) > 0 then largest := l;
  if r < t.len && t.cmp t.data.(r) t.data.(!largest) > 0 then largest := r;
  if !largest <> i then begin
    swap t i !largest;
    sift_down t !largest
  end

(** [offer t x] considers [x] for the kept set.  The growth charge may
    convert the collector to external mode mid-call (charge first, then
    insert into whatever mode the charge left behind). *)
let offer t x =
  Governor.tick t.gov;
  if t.external_ then begin
    let b = 16 + t.bytes x in
    Governor.charge t.gov b;
    t.charged <- t.charged + b;
    Vec.push t.buf x
  end
  else if t.len < Array.length t.data then begin
    let b = 16 + t.bytes x in
    Governor.charge t.gov b;
    t.charged <- t.charged + b;
    if t.external_ then Vec.push t.buf x
    else begin
      t.data.(t.len) <- x;
      t.len <- t.len + 1;
      sift_up t (t.len - 1)
    end
  end
  else if t.cmp x t.data.(0) < 0 then begin
    t.data.(0) <- x;
    sift_down t 0
  end

(** [finish t] returns the kept elements in ascending [cmp] order: a heap
    sort in memory, or a k-truncated merge of the spilled runs. *)
let finish t =
  (match t.handle with
  | Some id -> Governor.unregister_spiller t.gov id
  | None -> ());
  t.handle <- None;
  if t.runs = [] then begin
    let out = Array.sub t.data 0 t.len in
    Array.sort t.cmp out;
    Governor.uncharge t.gov t.charged;
    t.charged <- 0;
    out
  end
  else begin
    (* Hand the runs + buffered tail to the spool merge and stop at k. *)
    let keys = Option.get t.keys in
    let tail = Vec.to_array t.buf in
    Sort_algos.sort_rows keys tail;
    let set =
      {
        Spool.s_count = 0;
        s_keys = Some keys;
        s_runs = List.rev t.runs;
        s_tail = tail;
        s_tail_bytes = t.charged;
        s_gov = t.gov;
        s_consumed = false;
      }
    in
    t.charged <- 0;
    t.runs <- [];
    let out = Vec.create ~dummy:[||] in
    (try
       Spool.consume set (fun row ->
           if Vec.length out >= t.k then raise Exit;
           Vec.push out row)
     with Exit -> ());
    Vec.to_array out
  end
