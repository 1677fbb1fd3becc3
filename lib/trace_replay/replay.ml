open Cobra

type source = unit -> Btrace.record option

type result = {
  design : string;
  trace : string;
  instructions : int;
  branches : int;
  cond_branches : int;
  mispredicts : int;
  cond_mispredicts : int;
  elapsed_s : float;
}

exception Timeout of { branches : int; deadline_s : float }

let () =
  Printexc.register_printer (function
    | Timeout { branches; deadline_s = _ } ->
      Some (Printf.sprintf "Replay.Timeout after %d branches (deadline passed)" branches)
    | _ -> None)

let mpki r = Cobra_util.Stats.mpki ~misses:r.mispredicts ~instructions:r.instructions

let accuracy r =
  if r.branches = 0 then 1.0
  else 1.0 -. (float_of_int r.mispredicts /. float_of_int r.branches)

let per_sec count elapsed =
  float_of_int count /. (if elapsed > 0.0 then elapsed else epsilon_float)

let branches_per_sec r = per_sec r.branches r.elapsed_s
let insns_per_sec r = per_sec r.instructions r.elapsed_s

let to_perf r =
  let p = Cobra_uarch.Perf.create () in
  p.Cobra_uarch.Perf.instructions <- r.instructions;
  p.Cobra_uarch.Perf.branches <- r.branches;
  p.Cobra_uarch.Perf.cond_branches <- r.cond_branches;
  p.Cobra_uarch.Perf.mispredicts <- r.mispredicts;
  p.Cobra_uarch.Perf.cond_mispredicts <- r.cond_mispredicts;
  p

let summary r =
  Printf.sprintf
    "%s on %s: %d branches (%d cond) over %d insns, %d mispredicts (%d cond), MPKI %.3f, \
     accuracy %.2f%%, %.2fs (%.0f branches/s)"
    r.design r.trace r.branches r.cond_branches r.instructions r.mispredicts
    r.cond_mispredicts (mpki r)
    (100.0 *. accuracy r)
    r.elapsed_s (branches_per_sec r)

(* The one replay loop, over either replay-mode transaction of the
   pipeline: [step] predicts, resolves and commits one branch and says
   whether it was mispredicted. *)
let drive step ?(max_branches = max_int) ?(max_insns = max_int) ?deadline ?observe
    ?progress ?(progress_every = 262_144) ~design ~trace pl source =
  if progress_every < 1 then invalid_arg "Replay.run: progress_every < 1";
  let instructions = ref 0 in
  let branches = ref 0 in
  let cond_branches = ref 0 in
  let mispredicts = ref 0 in
  let cond_mispredicts = ref 0 in
  let t0 = Unix.gettimeofday () in
  let continue_ = ref true in
  while !continue_ do
    (* amortized deadline check: a poisoned or huge trace cannot wedge a
       serving domain past its budget *)
    (match deadline with
    | Some d when !branches land 2047 = 0 && Unix.gettimeofday () > d ->
      raise (Timeout { branches = !branches; deadline_s = d })
    | _ -> ());
    match source () with
    | None -> continue_ := false
    | Some r ->
      if !branches >= max_branches || !instructions + Btrace.insns r > max_insns then
        continue_ := false
      else begin
        instructions := !instructions + Btrace.insns r;
        incr branches;
        let kind = r.Btrace.b_kind in
        let is_cond = Types.equal_branch_kind kind Types.Cond in
        if is_cond then incr cond_branches;
        let wrong =
          step pl ~pc:r.Btrace.b_pc ~kind ~taken:r.Btrace.b_taken ~target:r.Btrace.b_target
        in
        if wrong then begin
          incr mispredicts;
          if is_cond then incr cond_mispredicts
        end;
        (match observe with
        | Some f -> f r ~taken_pred:(Pipeline.last_taken_pred pl) ~wrong
        | None -> ());
        match progress with
        | Some f when !branches mod progress_every = 0 ->
          f ~branches:!branches ~insns:!instructions
        | _ -> ()
      end
  done;
  {
    design;
    trace;
    instructions = !instructions;
    branches = !branches;
    cond_branches = !cond_branches;
    mispredicts = !mispredicts;
    cond_mispredicts = !cond_mispredicts;
    elapsed_s = Unix.gettimeofday () -. t0;
  }

let run = drive Pipeline.reference_step
let run_compiled = drive Pipeline.replay_step

type engine_kind = [ `Interpreted | `Compiled ]

let step_of = function
  | `Interpreted -> Pipeline.reference_step
  | `Compiled -> Pipeline.replay_step

let compiled = Cobra_eval.Designs.pipeline

(* ------------------------------------------------------------------ *)
(* Warmup checkpoints and time-sliced parallel replay, built on the flat
   whole-design snapshots: a quiesced pipeline (which a replay loop is
   between any two records — every branch commits immediately) checkpoints
   into one slab, and the reader's byte offset pins the stream position. *)

type checkpoint = {
  ck_slab : Cobra_util.Slab.t;
  ck_offset : int;
  ck_branches : int;
  ck_insns : int;
}

(* A source that consumes {e exactly} [branches] records from the reader.
   [run ~max_branches] is not suitable for checkpointing: it reads one
   record past the cap and drops it, so the reader would no longer sit on
   the boundary. *)
let capped_source rd ~branches =
  let taken = ref 0 in
  fun () ->
    if !taken >= branches then None
    else
      match Reader.next rd with
      | None -> None
      | Some r ->
        incr taken;
        Some r

let checkpoint pl rd ~branches ~insns =
  {
    ck_slab = Pipeline.snapshot pl;
    ck_offset = Reader.offset rd;
    ck_branches = branches;
    ck_insns = insns;
  }

let warmup_with step ?deadline ~branches ~design ~trace pl rd =
  let res = drive step ?deadline ~design ~trace pl (capped_source rd ~branches) in
  (checkpoint pl rd ~branches:res.branches ~insns:res.instructions, res)

let warmup = warmup_with Pipeline.reference_step
let warmup_compiled = warmup_with Pipeline.replay_step

let restore pl rd ck =
  Pipeline.restore pl ck.ck_slab;
  Reader.seek rd ck.ck_offset

let checkpoint_compiled = checkpoint
let restore_compiled = restore

let counters_equal a b =
  a.instructions = b.instructions
  && a.branches = b.branches
  && a.cond_branches = b.cond_branches
  && a.mispredicts = b.mispredicts
  && a.cond_mispredicts = b.cond_mispredicts

let sum_counters ~design ~trace ~elapsed_s rs =
  List.fold_left
    (fun acc r ->
      {
        acc with
        instructions = acc.instructions + r.instructions;
        branches = acc.branches + r.branches;
        cond_branches = acc.cond_branches + r.cond_branches;
        mispredicts = acc.mispredicts + r.mispredicts;
        cond_mispredicts = acc.cond_mispredicts + r.cond_mispredicts;
      })
    {
      design;
      trace;
      instructions = 0;
      branches = 0;
      cond_branches = 0;
      mispredicts = 0;
      cond_mispredicts = 0;
      elapsed_s;
    }
    rs

type sliced = {
  sl_total : result;
  sl_slices : result list;
  sl_serial : result list;
  sl_boundary_s : float;
  sl_parallel_s : float;
}

let run_sliced ?buffer_size ?jobs ?(slice_branches = 262_144) (d : Cobra_eval.Designs.t)
    ~path =
  if slice_branches < 1 then invalid_arg "Replay.run_sliced: slice_branches < 1";
  let name = d.Cobra_eval.Designs.name in
  let replay_slice pl rd =
    run_compiled ~design:name ~trace:path pl (capped_source rd ~branches:slice_branches)
  in
  (* Pass 1 (serial): replay slice by slice, snapshotting each boundary as
     it is crossed. *)
  let t0 = Unix.gettimeofday () in
  let boundaries = ref [] and serial = ref [] in
  let pl = Cobra_eval.Designs.pipeline d in
  Reader.with_file ?buffer_size path (fun rd ->
      let cum_branches = ref 0 and cum_insns = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let ck = checkpoint pl rd ~branches:!cum_branches ~insns:!cum_insns in
        let r = replay_slice pl rd in
        if r.branches = 0 then continue_ := false
        else begin
          boundaries := ck :: !boundaries;
          serial := r :: !serial;
          cum_branches := !cum_branches + r.branches;
          cum_insns := !cum_insns + r.instructions;
          if r.branches < slice_branches then continue_ := false
        end
      done);
  let boundaries = List.rev !boundaries and serial = List.rev !serial in
  let boundary_s = Unix.gettimeofday () -. t0 in
  (* Pass 2 (parallel): each slice in its own domain with a fresh pipeline
     and reader; predictor state is handed off via the boundary snapshot. *)
  let t1 = Unix.gettimeofday () in
  let outcomes =
    Cobra_runner.Pool.map ?jobs
      (List.map
         (fun ck () ->
           let pl = Cobra_eval.Designs.pipeline d in
           Reader.with_file ?buffer_size path (fun rd ->
               restore pl rd ck;
               replay_slice pl rd))
         boundaries)
  in
  let slices =
    List.mapi
      (fun i -> function
        | Ok r -> r
        | Error (e : Cobra_runner.Pool.error) ->
          failwith (Printf.sprintf "Replay.run_sliced: slice %d failed: %s" i e.message))
      outcomes
  in
  let parallel_s = Unix.gettimeofday () -. t1 in
  List.iteri
    (fun i (par, ser) ->
      if not (counters_equal par ser) then
        failwith
          (Printf.sprintf
             "Replay.run_sliced: slice %d diverged from the serial pass (parallel %d/%d \
              mispredicts/branches vs serial %d/%d)"
             i par.mispredicts par.branches ser.mispredicts ser.branches))
    (List.combine slices serial);
  {
    sl_total = sum_counters ~design:name ~trace:path ~elapsed_s:parallel_s slices;
    sl_slices = slices;
    sl_serial = serial;
    sl_boundary_s = boundary_s;
    sl_parallel_s = parallel_s;
  }

let run_design ?max_branches ?max_insns ?deadline ?buffer_size ?(engine = `Interpreted)
    (d : Cobra_eval.Designs.t) ~path =
  let pl = Cobra_eval.Designs.pipeline d in
  Reader.with_file ?buffer_size path (fun rd ->
      drive (step_of engine) ?max_branches ?max_insns ?deadline
        ~design:d.Cobra_eval.Designs.name ~trace:path pl (fun () -> Reader.next rd))

let run_design_with_stats ?max_branches ?max_insns ?deadline ?buffer_size ?(top = 20)
    (d : Cobra_eval.Designs.t) ~path =
  let pl = Cobra_eval.Designs.pipeline d in
  let coll =
    Cobra_stats.Collector.create ~interval_width:(Cobra_stats.Env.interval ()) pl
  in
  let insns_seen = ref 0 and mis_seen = ref 0 in
  let observe r ~taken_pred:_ ~wrong =
    insns_seen := !insns_seen + Btrace.insns r;
    if wrong then incr mis_seen;
    Cobra_stats.Collector.sample coll ~insns:!insns_seen ~cycles:0 ~mispredicts:!mis_seen
  in
  let res =
    Reader.with_file ?buffer_size path (fun rd ->
        run ?max_branches ?max_insns ?deadline ~observe
          ~design:d.Cobra_eval.Designs.name ~trace:path pl (fun () -> Reader.next rd))
  in
  Cobra_stats.Collector.flush coll ~insns:res.instructions ~cycles:0
    ~mispredicts:res.mispredicts;
  Cobra_stats.Collector.detach coll;
  let report =
    Cobra_stats.Collector.report ~design:res.design
      ~workload:(Filename.basename path)
      ~perf:(Cobra_uarch.Perf.counters (to_perf res))
      ~top coll
  in
  (res, report)
