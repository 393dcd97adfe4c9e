(* Tiered execution: interpret cold queries, compile hot ones (claim C4).

   This reproduces the managed-runtime economics the keynote points at:
   interpretation starts instantly but pays per tuple; staging pays a
   fixed compilation cost and then runs several times faster.  The
   copy-and-patch stencil tier ({!Quill_compile.Stencil_bind}) changes
   those economics: binding a covered shape costs so little that it is
   attempted on the very FIRST execution — a one-shot query still gets
   the compiled loop.  Only plans the binder rejects fall back to the
   classic trade-off, and for those the break-even is no longer a fixed
   run count alone: the policy compares the time interpretation has
   already burned against the *measured* cost of a full staging pass
   (EWMA over real compiles, seeded from the optimizer's cost model),
   compiling as soon as the projected savings cover it.  Experiment E5
   sweeps the policies; E23 measures the stencil-vs-full staging gap. *)

module Physical = Quill_optimizer.Physical
module Codegen = Quill_compile.Codegen
module Stencil_bind = Quill_compile.Stencil_bind
module Cost = Quill_optimizer.Cost
module Timer = Quill_util.Timer

type policy =
  | Interpret_always
  | Compile_always
  | Tiered of int  (** compile after this many runs *)

(** Default invocation-counter threshold. *)
let default_hot_threshold = 3

(* Cached plans promoted to a compiled tier (stencil or full). *)
let m_tierups = Quill_obs.Metrics.counter "quill.tiering.tierups"

let policy_name = function
  | Interpret_always -> "interpret-always"
  | Compile_always -> "compile-always"
  | Tiered n -> Printf.sprintf "tiered(%d)" n

(* --- Measured staging economics ----------------------------------------- *)

(* Per-operator staging cost, EWMA over the compiles this process has
   actually performed.  Two series: full codegen staging and stencil
   binding.  [bind_per_op] is not used for tier-up decisions (binding is
   attempted unconditionally, it is that cheap) but it is what E23 and
   the registry report, keeping the measured gap observable. *)
type staging_stats = {
  mutable full_per_op : float;  (* seconds per plan operator *)
  mutable full_samples : int;
  mutable bind_per_op : float;
  mutable bind_samples : int;
}

let stats =
  { full_per_op = 0.0; full_samples = 0; bind_per_op = 0.0; bind_samples = 0 }

let ewma_alpha = 0.2

let note_full ~operators dt =
  let per = dt /. Float.of_int (max 1 operators) in
  stats.full_per_op <-
    (if stats.full_samples = 0 then per
     else ((1.0 -. ewma_alpha) *. stats.full_per_op) +. (ewma_alpha *. per));
  stats.full_samples <- stats.full_samples + 1

let note_bind ~operators dt =
  let per = dt /. Float.of_int (max 1 operators) in
  stats.bind_per_op <-
    (if stats.bind_samples = 0 then per
     else ((1.0 -. ewma_alpha) *. stats.bind_per_op) +. (ewma_alpha *. per));
  stats.bind_samples <- stats.bind_samples + 1

(** [reset_stats ()] clears the measured staging costs (tests and
    benchmark isolation). *)
let reset_stats () =
  stats.full_per_op <- 0.0;
  stats.full_samples <- 0;
  stats.bind_per_op <- 0.0;
  stats.bind_samples <- 0

(* Translation of the optimizer's abstract cost units into seconds, used
   only to seed the estimate before this process has measured a real
   staging pass (roughly 50M cost units/second). *)
let seconds_per_cost_unit = 2e-8

(** [est_full_compile_seconds ~operators] projects what a full staging
    pass of a plan with [operators] nodes would cost: the measured
    per-operator EWMA when available, the optimizer cost model's
    [compile_setup] term otherwise. *)
let est_full_compile_seconds ~operators =
  if stats.full_samples > 0 then stats.full_per_op *. Float.of_int (max 1 operators)
  else Cost.compile_setup ~operators *. seconds_per_cost_unit

(* --- Execution ---------------------------------------------------------- *)

(** [execute ?cache ~policy ~ctx entry] runs a cached plan under the
    given tiering policy, updating the entry's counters; returns the
    rows.  [cache] lets compiled entries be re-charged for their
    tier-specific memory footprint ({!Plan_cache.note_compiled}). *)
let execute ?cache ~policy ~(ctx : Quill_exec.Exec_ctx.t) (entry : Plan_cache.entry) =
  entry.Plan_cache.runs <- entry.Plan_cache.runs + 1;
  let operators = Array.length (Physical.preorder entry.Plan_cache.plan) in
  let note_tier tier =
    Quill_obs.Metrics.incr m_tierups;
    match cache with
    | Some c -> Plan_cache.note_compiled c entry ~tier
    | None -> entry.Plan_cache.compiled_tier <- Some tier
  in
  (* Charge staging to the query that triggered it, as a JIT would. *)
  let charge_compile dt =
    entry.Plan_cache.compile_time <- dt;
    entry.Plan_cache.total_exec_time <- entry.Plan_cache.total_exec_time +. dt
  in
  let try_stencil () =
    if entry.Plan_cache.stencil_missed then None
    else begin
      let c, dt =
        Timer.time (fun () ->
            Stencil_bind.bind ctx.Quill_exec.Exec_ctx.catalog entry.Plan_cache.plan)
      in
      match c with
      | Some f ->
          note_bind ~operators dt;
          entry.Plan_cache.compiled <- Some f;
          charge_compile dt;
          note_tier Codegen.Tier_stencil;
          Some f
      | None ->
          entry.Plan_cache.stencil_missed <- true;
          None
    end
  in
  let full_compile () =
    let c, dt =
      Timer.time (fun () ->
          Codegen.compile ctx.Quill_exec.Exec_ctx.catalog entry.Plan_cache.plan)
    in
    note_full ~operators dt;
    entry.Plan_cache.compiled <- Some c;
    charge_compile dt;
    note_tier Codegen.Tier_full;
    c
  in
  (* Stencil-missed plans tier up on the classic invocation counter — or
     earlier, once interpretation has already burned what a measured full
     staging pass costs.  The payback rule only engages after this
     process has measured at least one real compile ([full_samples]), so
     break-even reflects this machine, not a guess. *)
  let full_pays_off () =
    stats.full_samples > 0
    && entry.Plan_cache.total_exec_time *. (1.0 -. (1.0 /. Cost.compiled_speedup))
       >= est_full_compile_seconds ~operators
  in
  let compiled =
    match (policy, entry.Plan_cache.compiled) with
    | Interpret_always, _ -> None
    | _, Some c -> Some c
    | Compile_always, None -> (
        match try_stencil () with Some c -> Some c | None -> Some (full_compile ()))
    | Tiered n, None -> (
        match try_stencil () with
        | Some c -> Some c
        | None ->
            if entry.Plan_cache.runs >= n || full_pays_off () then
              Some (full_compile ())
            else None)
  in
  (* Stencil drivers are pre-composed and cannot register spill hooks:
     a spill-capable execution of a stencil-tier entry routes through the
     vector interpreter instead, whose operators can spill.  The entry
     keeps its stencil for ordinary executions. *)
  let compiled =
    match compiled with
    | Some _
      when entry.Plan_cache.compiled_tier = Some Codegen.Tier_stencil
           && Quill_exec.Governor.can_spill ctx.Quill_exec.Exec_ctx.governor ->
        None
    | c -> c
  in
  let rows, elapsed =
    match compiled with
    | Some c ->
        Timer.time (fun () ->
            c ctx.Quill_exec.Exec_ctx.governor ctx.Quill_exec.Exec_ctx.params)
    | None ->
        Timer.time (fun () ->
            let arr = Quill_exec.Vector.run ctx entry.Plan_cache.plan in
            let v = Quill_util.Vec.create ~dummy:[||] in
            Array.iter (fun r -> Quill_util.Vec.push v r) arr;
            v)
  in
  entry.Plan_cache.total_exec_time <- entry.Plan_cache.total_exec_time +. elapsed;
  rows
