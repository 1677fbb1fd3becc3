open Cobra
module Trace = Cobra_isa.Trace
module Text = Cobra_util.Text_render

type result = {
  design : string;
  workload : string;
  branches : int;
  mispredicts : int;
}

let accuracy r =
  if r.branches = 0 then 1.0
  else 1.0 -. (float_of_int r.mispredicts /. float_of_int r.branches)

let mpki_proxy r ~instructions = Cobra_util.Stats.mpki ~misses:r.mispredicts ~instructions

(* One branch per packet, in retired order, final-stage prediction, update
   immediately: the trace-based idiom, which is exactly the pipeline's
   replay mode. *)
let run ?insns ?observe (design : Designs.t) (workload : Cobra_workloads.Suite.entry) =
  let insns = Option.value insns ~default:(Experiment.default_insns ()) in
  let pl = Designs.pipeline design in
  let stream = workload.Cobra_workloads.Suite.make () in
  let branches = ref 0 and mispredicts = ref 0 in
  let consumed = ref 0 in
  let continue_ = ref true in
  while !continue_ && !consumed < insns do
    match stream () with
    | None -> continue_ := false
    | Some ev ->
      incr consumed;
      (match ev.Trace.branch with
      | None -> ()
      | Some info ->
        incr branches;
        let wrong =
          Pipeline.replay_step pl ~pc:ev.Trace.pc ~kind:info.Trace.kind ~taken:info.Trace.taken
            ~target:info.Trace.target
        in
        if wrong then incr mispredicts;
        match observe with
        | Some f -> f ev ~taken_pred:(Pipeline.last_taken_pred pl)
        | None -> ())
  done;
  {
    design = design.Designs.name;
    workload = workload.Cobra_workloads.Suite.name;
    branches = !branches;
    mispredicts = !mispredicts;
  }

let comparison_report ?insns () =
  let workloads =
    List.map Cobra_workloads.Suite.find [ "gcc"; "mcf"; "x264"; "leela"; "exchange2" ]
  in
  let rows =
    List.concat_map
      (fun w ->
        List.map
          (fun d ->
            let sw = run ?insns d w in
            let hw = Experiment.run ?insns d w in
            let sw_acc = 100.0 *. accuracy sw in
            let hw_acc =
              100.0 *. Cobra_uarch.Perf.branch_accuracy hw.Experiment.perf
            in
            [
              sw.workload;
              sw.design;
              Text.float_cell ~decimals:2 sw_acc;
              Text.float_cell ~decimals:2 hw_acc;
              Printf.sprintf "%+.2f" (sw_acc -. hw_acc);
            ])
          Designs.all)
      workloads
  in
  Text.table
    ~title:
      "Software (trace-based) vs hardware-guided evaluation of the same composed pipelines \
       (paper Section II-B: software models mis-estimate, and the error is design-dependent)"
    ~header:[ "workload"; "design"; "sw acc%"; "hw acc%"; "sw - hw" ]
    ~rows ()
