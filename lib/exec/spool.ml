(* Spillable row spools: the out-of-core replacement for [drain].

   A spool buffers rows like the pipeline breakers' drains do, but
   registers itself with the governor as the *cheapest* spill target:
   under budget pressure its buffer dumps to a spill run (sorted first
   when the spool carries sort keys) and the memory is uncharged.  A
   spool that never spills behaves exactly like the in-memory buffer it
   replaces — same rows, same order, same sort — so the fast path pays
   only a registration.

   [finish] turns the spool into a single-use {!set}:

   - unsorted spools replay runs in spill order, then the in-memory tail
     — the original input order, preserved exactly;
   - keyed spools k-way merge their sorted runs with the sorted tail,
     breaking ties by run age (earlier run first, tail last), which
     reproduces a stable in-memory [Sort_algos.sort_rows] bit-for-bit:
     external merge sort. *)

module Value = Quill_storage.Value
module Spill = Quill_storage.Spill
module Vec = Quill_util.Vec
module Lplan = Quill_plan.Lplan

type t = {
  gov : Governor.t;
  keys : (int * Lplan.dir) list option;  (** sort keys; None = FIFO spool *)
  buf : Value.t array Vec.t;
  mutable charged : int;  (** live bytes this spool holds *)
  mutable runs : Spill.run list;  (** newest first *)
  mutable handle : int option;  (** governor spiller registration *)
  mutable count : int;
  session : Spill.t option;
}

let spill_now t =
  let n = Vec.length t.buf in
  if n = 0 then 0
  else
    match t.session with
    | None -> 0
    | Some sp ->
        let rows = Vec.to_array t.buf in
        (match t.keys with
        | Some keys -> Sort_algos.sort_rows keys rows
        | None -> ());
        let w = Spill.start_run sp in
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
        Vec.clear t.buf;
        let released = t.charged in
        t.charged <- 0;
        Governor.uncharge t.gov released;
        released

(** [create ?keys ~name gov] makes a spool; with a spill-capable governor
    it registers as a rank-1 (cheapest) spill target. *)
let create ?keys ~name gov =
  let t =
    {
      gov;
      keys;
      buf = Vec.create ~dummy:[||];
      charged = 0;
      runs = [];
      handle = None;
      count = 0;
      session = Governor.spill_session gov;
    }
  in
  t.handle <- Governor.register_spiller gov ~name ~cost:1 (fun () -> spill_now t);
  t

(** [add t row] buffers one row, charging the governor — which may spill
    this very spool mid-charge; the fresh row then starts the next
    buffer generation. *)
let add t row =
  Governor.tick t.gov;
  let b = Governor.row_bytes row in
  Governor.charge t.gov b;
  t.charged <- t.charged + b;
  Vec.push t.buf row;
  t.count <- t.count + 1

(** The single-use result of {!finish}: a stream of the spooled rows. *)
type set = {
  s_count : int;
  s_keys : (int * Lplan.dir) list option;
  s_runs : Spill.run list;  (** oldest first *)
  s_tail : Value.t array array;  (** in-memory remainder (sorted if keyed) *)
  s_tail_bytes : int;
  s_gov : Governor.t;
  mutable s_consumed : bool;
}

(** [finish t] seals the spool: unregisters its spill hook and returns
    the row set.  The in-memory tail is sorted in place for keyed
    spools, exactly as the non-spilling path would have. *)
let finish t =
  (match t.handle with
  | Some id -> Governor.unregister_spiller t.gov id
  | None -> ());
  t.handle <- None;
  let tail = Vec.to_array t.buf in
  (match t.keys with
  | Some keys -> Sort_algos.sort_rows keys tail
  | None -> ());
  Vec.clear t.buf;
  {
    s_count = t.count;
    s_keys = t.keys;
    s_runs = List.rev t.runs;
    s_tail = tail;
    s_tail_bytes = t.charged;
    s_gov = t.gov;
    s_consumed = false;
  }

(** [length set] is the number of rows the spool collected. *)
let length set = set.s_count

(** [spilled set] is true when at least one run went to disk. *)
let spilled set = set.s_runs <> []

(* A pull cursor over one sorted run; [cur] is the batch in flight. *)
type cursor = {
  c_rd : Spill.reader;
  c_run : Spill.run;
  mutable c_batch : Value.t array array;
  mutable c_idx : int;
  mutable c_open : bool;
}

let cursor_of run =
  let rd = Spill.open_run run in
  { c_rd = rd; c_run = run; c_batch = [||]; c_idx = 0; c_open = true }

(* Current row of a cursor, refilling from the next frame as needed;
   [None] once the run is exhausted (the file is deleted eagerly). *)
let rec cursor_peek c =
  if not c.c_open then None
  else if c.c_idx < Array.length c.c_batch then Some c.c_batch.(c.c_idx)
  else
    match Spill.next_batch c.c_rd with
    | Some rows ->
        c.c_batch <- rows;
        c.c_idx <- 0;
        cursor_peek c
    | None ->
        c.c_open <- false;
        Spill.close_reader ~delete:true c.c_rd;
        None

let cursor_advance c = c.c_idx <- c.c_idx + 1

let cursor_close c =
  if c.c_open then begin
    c.c_open <- false;
    Spill.close_reader ~delete:true c.c_rd
  end

(** [consume set f] streams every row through [f] exactly once,
    releasing the tail's budget charge up front (the consumer re-charges
    whatever it retains) and deleting run files as they drain.

    Unkeyed: runs in spill order, then the tail — input order.  Keyed: a
    k-way merge of the sorted runs and sorted tail; ties break toward
    the oldest run (the tail is youngest), reproducing a stable
    in-memory sort. *)
let consume set f =
  if set.s_consumed then invalid_arg "Spool.consume: set already consumed";
  set.s_consumed <- true;
  Governor.uncharge set.s_gov set.s_tail_bytes;
  match (set.s_runs, set.s_keys) with
  | [], _ -> Array.iter f set.s_tail
  | runs, None ->
      List.iter
        (fun run -> Spill.iter_run ~delete:true run f)
        runs;
      Array.iter f set.s_tail
  | runs, Some keys ->
      Spill.note_merge ();
      let cmp = Sort_algos.row_compare keys in
      let cursors = Array.of_list (List.map cursor_of runs) in
      let nc = Array.length cursors in
      let tail = set.s_tail in
      let tpos = ref 0 in
      Fun.protect
        ~finally:(fun () -> Array.iter cursor_close cursors)
        (fun () ->
          let continue_ = ref true in
          while !continue_ do
            Governor.tick set.s_gov;
            (* Pick the least current row; ties go to the lowest cursor
               index (oldest run), then the tail. *)
            let best = ref (-1) in
            let best_row = ref [||] in
            for i = 0 to nc - 1 do
              match cursor_peek cursors.(i) with
              | Some row ->
                  if !best < 0 || cmp row !best_row < 0 then begin
                    best := i;
                    best_row := row
                  end
              | None -> ()
            done;
            let take_tail =
              !tpos < Array.length tail
              && (!best < 0 || cmp tail.(!tpos) !best_row < 0)
            in
            if take_tail then begin
              f tail.(!tpos);
              incr tpos
            end
            else if !best >= 0 then begin
              f !best_row;
              cursor_advance cursors.(!best)
            end
            else continue_ := false
          done)

(** [to_source set] is [consume] curried for push-style consumers. *)
let to_source set f = consume set f

(** [to_array set] materializes the (merged) rows; the array is not
    charged to the governor — callers that retain it account for it. *)
let to_array set =
  if set.s_runs = [] then begin
    if set.s_consumed then invalid_arg "Spool.to_array: set already consumed";
    set.s_consumed <- true;
    Governor.uncharge set.s_gov set.s_tail_bytes;
    set.s_tail
  end
  else begin
    let out = Vec.create ~dummy:[||] in
    consume set (Vec.push out);
    Vec.to_array out
  end
