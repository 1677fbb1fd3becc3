(** Predictor-only trace replay — the fast path of the trace frontend.

    Drives a composed {!Cobra.Pipeline} (any [Topology.spec]) one retired
    branch at a time through the pipeline's replay mode, without
    instantiating the uarch core model: no scoreboard, no wrong-path fetch,
    no cycle accounting. This is the standard ChampSim/CBP predict/update
    replay idiom. Every driver — this module, [Cobra_eval.Software_model]
    and the conformance kit — uses the same two transactions
    ([Pipeline.reference_step] and its closed form [Pipeline.replay_step])
    and the same mispredict rule, so for a trace exported from a workload
    the mispredict counters, and hence MPKI, are bit-identical to driving
    the pipeline over the original stream, while running an order of
    magnitude faster than the uarch model.

    The hot loop allocates O(1) state up front (one reusable slot vector)
    and streams records from the source, so a multi-million-branch trace
    replays in constant memory. *)

type source = unit -> Btrace.record option

type result = {
  design : string;
  trace : string;
  instructions : int;  (** instructions represented: sum of [gap + 1] *)
  branches : int;
  cond_branches : int;
  mispredicts : int;  (** wrong direction, or wrong target on a taken
                          non-return unconditional with a known target *)
  cond_mispredicts : int;
  elapsed_s : float;  (** wall-clock of the replay loop *)
}

exception Timeout of { branches : int; deadline_s : float }
(** Raised from {!run} when a [deadline] passes mid-replay — the per-request
    isolation mechanism of [cobra serve]. *)

val mpki : result -> float
(** Mispredicts per kilo-instruction represented by the trace. *)

val accuracy : result -> float
val branches_per_sec : result -> float
val insns_per_sec : result -> float

val to_perf : result -> Cobra_uarch.Perf.t
(** The replay counters as a [Perf.t] (cycle counters zero — replay has no
    timing model), which is what lets the runner's content-addressed result
    cache store replay points unchanged. *)

val summary : result -> string
(** One human-readable line. *)

val run :
  ?max_branches:int ->
  ?max_insns:int ->
  ?deadline:float ->
  ?observe:(Btrace.record -> taken_pred:bool -> wrong:bool -> unit) ->
  ?progress:(branches:int -> insns:int -> unit) ->
  ?progress_every:int ->
  design:string ->
  trace:string ->
  Cobra.Pipeline.t ->
  source ->
  result
(** Replay [source] through the pipeline with the reference transaction
    ([Pipeline.reference_step]: predict, fire, resolve or mispredict,
    commit), so an attached observer sees every protocol step. [deadline]
    is an absolute [Unix.gettimeofday] time checked every 2048 branches;
    [observe] fires per branch with the final-stage direction decision and
    whether it was wrong (the conformance lockstep hook); [progress] fires
    every [progress_every] branches (default 262144). [design]/[trace] are
    labels carried into the result. *)

val run_compiled :
  ?max_branches:int ->
  ?max_insns:int ->
  ?deadline:float ->
  ?observe:(Btrace.record -> taken_pred:bool -> wrong:bool -> unit) ->
  ?progress:(branches:int -> insns:int -> unit) ->
  ?progress_every:int ->
  design:string ->
  trace:string ->
  Cobra.Pipeline.t ->
  source ->
  result
(** {!run} with the closed-form transaction ([Pipeline.replay_step]): the
    same loop, counters and per-branch decisions, several times faster.
    Raises [Invalid_argument] when an observer is attached. *)

type engine_kind = [ `Interpreted | `Compiled ]
(** Which transaction {!run_design} replays with: [`Interpreted] is the
    reference transaction ({!run}), [`Compiled] the closed form
    ({!run_compiled}). *)

val compiled : Cobra_eval.Designs.t -> Cobra.Pipeline.t
(** [Designs.pipeline]: a fresh pipeline for the design. *)

(** {1 Checkpoints}

    A replay loop is quiesced between any two records (every branch fires,
    resolves and commits immediately), so the whole design checkpoints into
    one flat slab at any record boundary; together with the reader's byte
    offset that is enough to resume the replay mid-trace on any identically
    configured pipeline — the warm-state reuse behind [cobra serve] sweeps
    and {!run_sliced}. *)

type checkpoint = {
  ck_slab : Cobra_util.Slab.t;  (** {!Cobra.Pipeline.snapshot} of the design *)
  ck_offset : int;  (** {!Reader.offset} at the boundary *)
  ck_branches : int;  (** branches replayed up to the boundary *)
  ck_insns : int;  (** instructions represented up to the boundary *)
}

val checkpoint :
  Cobra.Pipeline.t -> Reader.t -> branches:int -> insns:int -> checkpoint
(** Capture the current pipeline state and stream position.
    [branches]/[insns] are carried as labels. Raises [Invalid_argument]
    when the pipeline is not quiesced. *)

val warmup :
  ?deadline:float ->
  branches:int ->
  design:string ->
  trace:string ->
  Cobra.Pipeline.t ->
  Reader.t ->
  checkpoint * result
(** Replay exactly [branches] records (fewer at end of trace) with the
    reference transaction and checkpoint the boundary. Unlike
    [run ~max_branches], no record past the cap is consumed, so the
    checkpoint resumes exactly where the warmup stopped. *)

val restore : Cobra.Pipeline.t -> Reader.t -> checkpoint -> unit
(** Overwrite the pipeline state from the checkpoint's slab (one memcpy
    per region) and seek the reader back to the boundary. *)

val warmup_compiled :
  ?deadline:float ->
  branches:int ->
  design:string ->
  trace:string ->
  Cobra.Pipeline.t ->
  Reader.t ->
  checkpoint * result
(** {!warmup} with the closed-form transaction. *)

val checkpoint_compiled :
  Cobra.Pipeline.t -> Reader.t -> branches:int -> insns:int -> checkpoint
(** Same as {!checkpoint}. *)

val restore_compiled : Cobra.Pipeline.t -> Reader.t -> checkpoint -> unit
(** Same as {!restore}. *)

val counters_equal : result -> result -> bool
(** All five counters equal (wall-clock ignored) — the bit-identity
    predicate used by the snapshot verification paths. *)

(** {1 Time-sliced parallel replay} *)

type sliced = {
  sl_total : result;  (** summed counters; [elapsed_s] = parallel wall-clock *)
  sl_slices : result list;  (** per-slice results from the parallel pass *)
  sl_serial : result list;  (** per-slice results from the boundary pass *)
  sl_boundary_s : float;  (** wall-clock of the serial boundary pass *)
  sl_parallel_s : float;  (** wall-clock of the parallel pass *)
}

val run_sliced :
  ?buffer_size:int ->
  ?jobs:int ->
  ?slice_branches:int ->
  Cobra_eval.Designs.t ->
  path:string ->
  sliced
(** Split one long trace into [slice_branches]-sized slices (default
    262144): a serial boundary pass replays the trace once, snapshotting
    the design at every slice boundary, then the parallel pass re-replays
    every slice concurrently across {!Cobra_runner.Pool} domains, each
    from its boundary snapshot on a fresh pipeline and reader. Both passes
    use the closed-form transaction. Raises
    [Failure] if any parallel slice's counters diverge from the serial
    pass — the handoff is certified bit-identical on every run. *)

val run_design :
  ?max_branches:int ->
  ?max_insns:int ->
  ?deadline:float ->
  ?buffer_size:int ->
  ?engine:engine_kind ->
  Cobra_eval.Designs.t ->
  path:string ->
  result
(** Elaborate a fresh pipeline for the design and stream the trace file at
    [path] through it with the [engine] transaction (default
    [`Interpreted], the reference). {!Reader} errors propagate. *)

val run_design_with_stats :
  ?max_branches:int ->
  ?max_insns:int ->
  ?deadline:float ->
  ?buffer_size:int ->
  ?top:int ->
  Cobra_eval.Designs.t ->
  path:string ->
  result * Cobra_stats.Report.t
(** Like {!run_design} with a [Cobra_stats.Collector] attached: the report
    carries per-component mispredict attribution, arbitration tallies,
    hard-branch tables and the interval MPKI series (interval cycle counts
    are zero — replay has no timing model). *)
