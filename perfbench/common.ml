(* Shared pieces of the benchmark: clocks, sample pools and their
   percentiles, process memory, the host fingerprint, and the result
   line. *)

let now = Unix.gettimeofday

exception Oracle_failure of string

let oracle_fail fmt = Printf.ksprintf (fun m -> raise (Oracle_failure m)) fmt

(* --- sample pools ------------------------------------------------------ *)

(** A growable pool of float samples (latencies in seconds). *)
module Pool = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n
  let sum t = Array.fold_left ( +. ) 0.0 (Array.sub t.a 0 t.n)

  (* Nearest-rank percentile over the whole pool: the smallest sample
     with at least [p] of the pool at or below it. *)
  let percentile t p =
    if t.n = 0 then nan
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
      s.(max 0 (min (t.n - 1) (rank - 1)))
    end
end

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- process memory ---------------------------------------------------- *)

(** [hwm_mb pid] is the resident-set high-water mark (VmHWM) of process
    [pid] ("self" for this one), in MiB. *)
let hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* --- host fingerprint -------------------------------------------------- *)

(* An integer loop the compiler cannot fold away.  Its rate is a
   diagnostic of how fast the host ran between measured stretches; no
   metric is normalized by it, because it tracks the workloads' rate
   only weakly on a shared host. *)
let probe_sink = ref 0

let probe_miter_per_s () =
  let iters = 20_000_000 in
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to iters do
    x := (!x * 1103515245) + i
  done;
  probe_sink := !x;
  float_of_int iters /. (now () -. t0) /. 1e6

(** Measured runs are split into this many stretches, with a probe
    between them. *)
let stretches = 10

let print_host () =
  Printf.printf "host: nproc=%d ocaml=%s\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version

(* --- GC counts --------------------------------------------------------- *)

type gc_counts = { minor : float; promoted : float; majors : int }

let gc_counts () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; promoted = s.Gc.promoted_words;
    majors = s.Gc.major_collections }

let gc_delta a b =
  { minor = b.minor -. a.minor; promoted = b.promoted -. a.promoted;
    majors = b.majors - a.majors }

let gc_add a b =
  { minor = a.minor +. b.minor; promoted = a.promoted +. b.promoted;
    majors = a.majors + b.majors }

(* --- output ------------------------------------------------------------ *)

(** Every per-layer metric a traced run reports, with its unit, in
    output order.  A workload that does not exercise a layer reports 0
    for it. *)
let per_layer =
  [
    ("sql.parse_us", "us");
    ("plan.bind_us", "us");
    ("optimizer.rewrite_us", "us");
    ("optimizer.join_order_us", "us");
    ("optimizer.pick_us", "us");
    ("optimizer.plan_nodes", "count");
    ("stats.collect_ms", "ms");
    ("compile.stencil_bind_us", "us");
    ("compile.codegen_us", "us");
    ("compile.stencil_hit_frac", "frac");
    ("exec.run_ms", "ms");
    ("exec.rows_scanned", "count");
    ("exec.peak_bytes", "B");
    ("parallel.morsels", "count");
    ("parallel.dispatches", "count");
    ("adaptive.plan_cache_hit_frac", "frac");
    ("adaptive.lookup_us", "us");
    ("adaptive.repicks", "count");
    ("storage.index_build_ms", "ms");
    ("storage.index_builds_per_commit", "count");
    ("storage.wal_bytes_per_commit", "B");
    ("storage.wal_syncs_per_commit", "count");
    ("storage.load_s", "s");
    ("txn.commit_us", "us");
    ("txn.stripe_waits", "count");
    ("txn.conflicts_per_commit", "count");
    ("server.overhead_us", "us");
    ("server.encode_us", "us");
    ("server.decode_us", "us");
    ("oltp.first_read_p50_ms", "ms");
    ("oltp.write_p50_ms", "ms");
    ("oltp.write_p90_ms", "ms");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections_per_kop", "count");
    ("unattributed_frac", "frac");
    ("trace_overhead_frac", "frac")
  ]

(** [complete metrics] lists every per-layer metric, taking the
    measured ones from [metrics] and 0 for the rest. *)
let complete metrics =
  List.iter
    (fun (name, unit, _) ->
      if List.assoc_opt name per_layer <> Some unit then
        invalid_arg ("unknown per-layer metric " ^ name ^ " in " ^ unit))
    metrics;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) metrics with
      | Some m -> m
      | None -> (name, unit, 0.0))
    per_layer

(** The run's result: the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(** Where the benchmark keeps its data and span files. *)
let work_dir () =
  let d = Filename.concat ".bench_build" "qbench" in
  if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
