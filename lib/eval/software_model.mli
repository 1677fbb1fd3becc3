(** A trace-based {e software} branch-predictor simulator — the methodology
    the paper argues against (Section II-B).

    It drives the very same composed predictor pipelines, but the way
    ChampSim/CBP-style simulators do: one branch at a time in retired order,
    with the final (deepest-stage) prediction always available, updates
    applied immediately at the next event, no speculative execution, no
    wrong-path fetch, no in-flight history corruption, no pipeline-latency
    effects and no repair traffic.

    Comparing its accuracy estimates with the hardware-guided core model's
    measurements reproduces the paper's motivating observation: software
    simulation systematically mis-estimates predictor behaviour, and the
    error differs per design, so it can even mis-rank candidates. *)

type result = {
  design : string;
  workload : string;
  branches : int;
  mispredicts : int;
}

val accuracy : result -> float
val mpki_proxy : result -> instructions:int -> float

val run :
  ?insns:int ->
  ?observe:(Cobra_isa.Trace.event -> taken_pred:bool -> unit) ->
  Designs.t ->
  Cobra_workloads.Suite.entry ->
  result
(** Simulate [insns] instructions' worth of trace through the design's
    composed pipeline, trace-based-style ([Pipeline.replay_step] per
    branch). [observe] fires per branch event with the model's direction
    prediction — the hook differential tests use to compare this model
    prediction-for-prediction against an independent reference. *)

val comparison_report : ?insns:int -> unit -> string
(** Per design x benchmark subset: software-model accuracy vs the
    hardware-guided core model's measured accuracy. *)
