(* Benchmark harness: regenerates every table and figure of the paper
   (Tables I-III, Figs 7-10, the Section I/VI experiments) from this
   repository's implementation, then runs Bechamel microbenchmarks of the
   framework itself.

   Scale with COBRA_INSNS (default 100_000 instructions per run) and
   COBRA_JOBS (parallel simulation workers; 1 reproduces the serial
   harness). Pass section names as arguments to run a subset, e.g.
   [dune exec bench/main.exe -- table_1 figure_10]; [--list] prints the
   valid section names. *)

open Cobra_eval

let banner name =
  Printf.printf "\n================ %s ================\n%!" name

let timed label f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[%s took %.1f s]\n%!" label (Unix.gettimeofday () -. t0);
  r

(* --- tables -------------------------------------------------------------- *)

let table_1 () = print_string (Tables.table_1 ())
let table_2 () = print_string (Tables.table_2 ())
let table_3 () = print_string (Tables.table_3 ())

let table_attribution () =
  print_string
    (timed "table_attribution" (fun () -> Tables.table_attribution ()))

(* --- figures ------------------------------------------------------------- *)

let figure_7 () = print_string (Figures.figure_7 ())
let figure_8 () = print_string (Figures.figure_8 ())
let figure_9 () = print_string (Figures.figure_9 ())

let figure_10 () =
  let results =
    timed "figure_10 runs" (fun () ->
        Experiment.run_matrix Designs.all Cobra_workloads.Suite.specint)
  in
  print_string (Figures.figure_10 results);
  Printf.printf "\npaper shape check: %s\n" (List.assoc "Fig10" Reference.paper_claims)

(* --- ablations ------------------------------------------------------------ *)

let ablation o =
  let { Ablations.id; paper_claim; measured; report } = o in
  Printf.printf "%s\n" report;
  Printf.printf "paper [%s]: %s\n" id paper_claim;
  Printf.printf "measured:   %s\n" measured

let ablation_serialized_fetch () =
  ablation (timed "serialized_fetch" (fun () -> Ablations.serialized_fetch ()))

let ablation_tage_latency () =
  ablation (timed "tage_latency" (fun () -> Ablations.tage_latency ()))

let ablation_history_repair () =
  ablation (timed "history_repair" (fun () -> Ablations.history_repair ()))

let ablation_sfb () =
  ablation (timed "sfb" (fun () -> Ablations.short_forward_branch ()))

(* --- design-space sweeps (extensions) ----------------------------------------- *)

let sweep name f () = print_string (timed name f)

let sweep_storage = sweep "tage_storage_sweep" (fun () -> Sweeps.tage_storage_sweep ())
let sweep_ubtb = sweep "ubtb_value" (fun () -> Sweeps.ubtb_value ())
let sweep_fetch_width = sweep "fetch_width_sweep" (fun () -> Sweeps.fetch_width_sweep ())
let sweep_indexing = sweep "indexing_ablation" (fun () -> Sweeps.indexing_ablation ())
let sweep_ittage = sweep "indirect_predictor" (fun () -> Sweeps.indirect_predictor ())
let sweep_ras = sweep "ras_repair" (fun () -> Sweeps.ras_repair ())
let sweep_sc = sweep "sc_value" (fun () -> Sweeps.statistical_corrector_value ())
let sweep_core_size = sweep "core_size" (fun () -> Sweeps.core_size ())
let sweep_families = sweep "cbp_families" (fun () -> Sweeps.gehl_vs_tage ())

let software_vs_hardware () =
  print_string (timed "software_vs_hardware" (fun () -> Software_model.comparison_report ()))

(* --- energy (extension) ----------------------------------------------------- *)

let energy () =
  List.iter
    (fun (d : Designs.t) ->
      let pl = Designs.pipeline d in
      let e = Cobra_synth.Energy.of_pipeline pl in
      Printf.printf "%-8s predict %.1f pJ, update %.1f pJ, ~%.2f nJ/kilo-instruction\n"
        d.Designs.name e.Cobra_synth.Energy.predict_pj e.Cobra_synth.Energy.update_pj
        (Cobra_synth.Energy.per_kilo_instruction pl ~packets_per_ki:400.0))
    Designs.all

(* --- perf regression bench ---------------------------------------------------- *)

(* Times the whole simulation loop (Core.run over a deterministic synthetic
   trace) in simulated instructions per second, with a Gc.allocated_bytes
   probe over the steady-state portion, and emits BENCH_PR4.json. Compares
   against the pinned numbers in bench/BASELINE_PR4.txt when present: the
   speedup column and a bit-identity check of the Perf counters. Scale with
   COBRA_BENCH_INSNS (default 400_000; the first fifth is warmup). *)

let bench_insns =
  Cobra_util.Env.int_var ~min:1_000 "COBRA_BENCH_INSNS" ~default:400_000

let bench_workload_name = "aliasing"
let bench_json_path () =
  Option.value (Sys.getenv_opt "COBRA_BENCH_JSON") ~default:"BENCH_PR4.json"
let bench_baseline_path () =
  Option.value (Sys.getenv_opt "COBRA_BENCH_BASELINE") ~default:"bench/BASELINE_PR4.txt"

let perf_designs () = [ Designs.gshare_only; Designs.tourney; Designs.tage_l ]

type perf_sample = {
  ps_design : string;
  ps_insns_per_sec : float;
  ps_alloc_per_insn : float;
  ps_measured_insns : int;
  ps_counters : (string * int) list;
}

let measure_design ?(workload = bench_workload_name) (d : Designs.t) ~insns =
  let w = Cobra_workloads.Suite.find workload in
  let pl = Cobra.Pipeline.create d.Designs.pipeline_config (d.Designs.make ()) in
  let core =
    Cobra_uarch.Core.create ?decode:w.Cobra_workloads.Suite.decode
      Cobra_uarch.Config.default pl
      (w.Cobra_workloads.Suite.make ())
  in
  (* Warm the tables and reach steady state before the probe starts. *)
  let warm = max 1 (insns / 5) in
  ignore (Cobra_uarch.Core.run core ~max_insns:warm);
  let i0 = (Cobra_uarch.Core.perf core).Cobra_uarch.Perf.instructions in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let perf = Cobra_uarch.Core.run core ~max_insns:insns in
  let dt = Unix.gettimeofday () -. t0 in
  let da = Gc.allocated_bytes () -. a0 in
  let measured = max 1 (perf.Cobra_uarch.Perf.instructions - i0) in
  {
    ps_design = d.Designs.name;
    ps_insns_per_sec =
      float_of_int measured /. (if dt > 0.0 then dt else epsilon_float);
    ps_alloc_per_insn = da /. float_of_int measured;
    ps_measured_insns = measured;
    ps_counters = Cobra_uarch.Perf.counters perf;
  }

(* Baseline file: "key=value" lines. "insns" and "workload" pin the
   configuration; per-design lines are "<design>.insns_per_sec",
   "<design>.alloc_per_insn" and "<design>.<counter>". *)
let load_baseline path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> None
  | lines ->
    let kvs =
      List.filter_map
        (fun line ->
          let line = String.trim line in
          if line = "" || line.[0] = '#' then None
          else
            match String.index_opt line '=' with
            | Some i ->
              Some
                ( String.sub line 0 i,
                  String.sub line (i + 1) (String.length line - i - 1) )
            | None -> None)
        lines
    in
    Some kvs

let write_baseline path ~insns samples =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# pinned bench perf baseline (see EXPERIMENTS.md)\n";
      Printf.fprintf oc "insns=%d\nworkload=%s\n" insns bench_workload_name;
      List.iter
        (fun s ->
          Printf.fprintf oc "%s.insns_per_sec=%.1f\n" s.ps_design s.ps_insns_per_sec;
          Printf.fprintf oc "%s.alloc_per_insn=%.1f\n" s.ps_design s.ps_alloc_per_insn;
          List.iter
            (fun (name, v) -> Printf.fprintf oc "%s.%s=%d\n" s.ps_design name v)
            s.ps_counters)
        samples)

let json_of_samples ~insns ~baseline samples =
  let buf = Buffer.create 2048 in
  let baseline_insns =
    match baseline with
    | Some kvs -> (
      match List.assoc_opt "insns" kvs with
      | Some s -> int_of_string_opt (String.trim s)
      | None -> None)
    | None -> None
  in
  let comparable = baseline_insns = Some insns in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"cobra-bench-perf/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"insns\": %d,\n" insns);
  Buffer.add_string buf
    (Printf.sprintf "  \"workload\": %S,\n" bench_workload_name);
  Buffer.add_string buf
    (Printf.sprintf "  \"baseline_comparable\": %b,\n" comparable);
  Buffer.add_string buf "  \"designs\": [\n";
  List.iteri
    (fun i s ->
      let base key =
        match baseline with
        | Some kvs -> List.assoc_opt (s.ps_design ^ "." ^ key) kvs
        | None -> None
      in
      let base_ips =
        match base "insns_per_sec" with
        | Some v -> float_of_string_opt (String.trim v)
        | None -> None
      in
      let counters_match =
        if not comparable then None
        else
          Some
            (List.for_all
               (fun (name, v) ->
                 match base name with
                 | Some b -> int_of_string_opt (String.trim b) = Some v
                 | None -> false)
               s.ps_counters)
      in
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf (Printf.sprintf "      \"design\": %S,\n" s.ps_design);
      Buffer.add_string buf
        (Printf.sprintf "      \"insns_per_sec\": %.1f,\n" s.ps_insns_per_sec);
      Buffer.add_string buf
        (Printf.sprintf "      \"alloc_bytes_per_insn\": %.1f,\n" s.ps_alloc_per_insn);
      Buffer.add_string buf
        (Printf.sprintf "      \"measured_insns\": %d,\n" s.ps_measured_insns);
      (match (base_ips, comparable) with
      | Some b, true when b > 0.0 ->
        Buffer.add_string buf
          (Printf.sprintf "      \"baseline_insns_per_sec\": %.1f,\n" b);
        Buffer.add_string buf
          (Printf.sprintf "      \"speedup\": %.3f,\n" (s.ps_insns_per_sec /. b))
      | _ ->
        Buffer.add_string buf "      \"baseline_insns_per_sec\": null,\n";
        Buffer.add_string buf "      \"speedup\": null,\n");
      (match counters_match with
      | Some m ->
        Buffer.add_string buf
          (Printf.sprintf "      \"counters_match_baseline\": %b,\n" m)
      | None ->
        Buffer.add_string buf "      \"counters_match_baseline\": null,\n");
      Buffer.add_string buf "      \"counters\": {";
      List.iteri
        (fun j (name, v) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "%S: %d" name v))
        s.ps_counters;
      Buffer.add_string buf "}\n";
      Buffer.add_string buf
        (if i = List.length samples - 1 then "    }\n" else "    },\n"))
    samples;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let perf () =
  let insns = bench_insns in
  let samples =
    List.map
      (fun d ->
        timed ("perf/" ^ d.Designs.name) (fun () -> measure_design d ~insns))
      (perf_designs ())
  in
  let baseline = load_baseline (bench_baseline_path ()) in
  List.iter
    (fun s ->
      let speed =
        match baseline with
        | Some kvs -> (
          match
            ( List.assoc_opt (s.ps_design ^ ".insns_per_sec") kvs,
              List.assoc_opt "insns" kvs )
          with
          | Some b, Some bi
            when int_of_string_opt (String.trim bi) = Some insns -> (
            match float_of_string_opt (String.trim b) with
            | Some b when b > 0.0 ->
              Printf.sprintf " (%.2fx vs baseline)" (s.ps_insns_per_sec /. b)
            | Some _ | None -> "")
          | _ -> "")
        | None -> ""
      in
      Printf.printf "%-8s %10.0f insns/s, %7.1f alloc B/insn%s\n" s.ps_design
        s.ps_insns_per_sec s.ps_alloc_per_insn speed)
    samples;
  let json = json_of_samples ~insns ~baseline samples in
  let path = bench_json_path () in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc json);
  Printf.printf "wrote %s\n" path;
  if Sys.getenv_opt "COBRA_BENCH_WRITE_BASELINE" = Some "1" then begin
    write_baseline (bench_baseline_path ()) ~insns samples;
    Printf.printf "pinned new baseline at %s\n" (bench_baseline_path ())
  end

(* --- trace-replay perf bench --------------------------------------------------- *)

(* Exports a pinned multi-million-instruction branch trace from the h2p-mix
   kernel, times the predictor-only replay fast path in branches/sec and
   insns/sec against the uarch core on the same workload, probes constant
   memory via the major-heap high-water mark across the replay, and emits
   BENCH_PR6.json (schema cobra-bench-perf/2: the PR4-shaped "designs"
   array plus a "replay" section). Scale with COBRA_BENCH_REPLAY_BRANCHES
   (default 1_000_000). *)

let replay_branches =
  Cobra_util.Env.int_var ~min:1_000 "COBRA_BENCH_REPLAY_BRANCHES" ~default:1_000_000

let replay_workload_name = "h2p-mix"

let bench_json6_path () =
  Option.value (Sys.getenv_opt "COBRA_BENCH_JSON6") ~default:"BENCH_PR6.json"

type replay_sample = {
  rs_uarch : perf_sample;
  rs_branches : int;
  rs_insns : int;
  rs_mispredicts : int;
  rs_mpki : float;
  rs_branches_per_sec : float;
  rs_insns_per_sec : float;
  rs_alloc_per_branch : float;
  rs_top_heap_delta_bytes : int;
  rs_speedup_vs_uarch : float;
}

let json_of_replay ~insns ~trace_branches ~trace_insns samples =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"cobra-bench-perf/2\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"insns\": %d,\n" insns);
  Buffer.add_string buf (Printf.sprintf "  \"workload\": %S,\n" replay_workload_name);
  Buffer.add_string buf
    (Printf.sprintf "  \"trace\": {\"branches\": %d, \"insns\": %d},\n" trace_branches
       trace_insns);
  Buffer.add_string buf "  \"designs\": [\n";
  List.iteri
    (fun i r ->
      let s = r.rs_uarch in
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf (Printf.sprintf "      \"design\": %S,\n" s.ps_design);
      Buffer.add_string buf
        (Printf.sprintf "      \"insns_per_sec\": %.1f,\n" s.ps_insns_per_sec);
      Buffer.add_string buf
        (Printf.sprintf "      \"alloc_bytes_per_insn\": %.1f,\n" s.ps_alloc_per_insn);
      Buffer.add_string buf
        (Printf.sprintf "      \"measured_insns\": %d,\n" s.ps_measured_insns);
      Buffer.add_string buf "      \"counters\": {";
      List.iteri
        (fun j (name, v) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "%S: %d" name v))
        s.ps_counters;
      Buffer.add_string buf "}\n";
      Buffer.add_string buf
        (if i = List.length samples - 1 then "    }\n" else "    },\n"))
    samples;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"replay\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf
        (Printf.sprintf "      \"design\": %S,\n" r.rs_uarch.ps_design);
      Buffer.add_string buf (Printf.sprintf "      \"branches\": %d,\n" r.rs_branches);
      Buffer.add_string buf (Printf.sprintf "      \"insns\": %d,\n" r.rs_insns);
      Buffer.add_string buf
        (Printf.sprintf "      \"mispredicts\": %d,\n" r.rs_mispredicts);
      Buffer.add_string buf (Printf.sprintf "      \"mpki\": %.4f,\n" r.rs_mpki);
      Buffer.add_string buf
        (Printf.sprintf "      \"branches_per_sec\": %.1f,\n" r.rs_branches_per_sec);
      Buffer.add_string buf
        (Printf.sprintf "      \"insns_per_sec\": %.1f,\n" r.rs_insns_per_sec);
      Buffer.add_string buf
        (Printf.sprintf "      \"alloc_bytes_per_branch\": %.1f,\n" r.rs_alloc_per_branch);
      Buffer.add_string buf
        (Printf.sprintf "      \"top_heap_delta_bytes\": %d,\n" r.rs_top_heap_delta_bytes);
      Buffer.add_string buf
        (Printf.sprintf "      \"uarch_insns_per_sec\": %.1f,\n"
           r.rs_uarch.ps_insns_per_sec);
      Buffer.add_string buf
        (Printf.sprintf "      \"speedup_vs_uarch\": %.2f\n" r.rs_speedup_vs_uarch);
      Buffer.add_string buf
        (if i = List.length samples - 1 then "    }\n" else "    },\n"))
    samples;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let perf_replay () =
  let w = Cobra_workloads.Suite.find replay_workload_name in
  let path = Filename.temp_file "cobra_bench" ".btrace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let trace_branches, trace_insns =
        timed "export" (fun () ->
            Cobra_trace_replay.Writer.export_workload ~max_branches:replay_branches ~path
              w)
      in
      Printf.printf "exported %d branches (%d insns) to %s\n%!" trace_branches
        trace_insns path;
      let samples =
        List.map
          (fun (d : Designs.t) ->
            let uarch =
              timed ("uarch/" ^ d.Designs.name) (fun () ->
                  measure_design ~workload:replay_workload_name d ~insns:bench_insns)
            in
            (* warm replay (tables + code paths), then the measured run with
               allocation and major-heap high-water probes around it *)
            ignore
              (Cobra_trace_replay.Replay.run_design ~max_branches:(trace_branches / 10) d
                 ~path);
            Gc.compact ();
            let h0 = (Gc.quick_stat ()).Gc.top_heap_words in
            let a0 = Gc.allocated_bytes () in
            let res =
              timed ("replay/" ^ d.Designs.name) (fun () ->
                  Cobra_trace_replay.Replay.run_design d ~path)
            in
            let da = Gc.allocated_bytes () -. a0 in
            let h1 = (Gc.quick_stat ()).Gc.top_heap_words in
            let word = Sys.word_size / 8 in
            let speedup =
              Cobra_trace_replay.Replay.insns_per_sec res /. uarch.ps_insns_per_sec
            in
            {
              rs_uarch = uarch;
              rs_branches = res.Cobra_trace_replay.Replay.branches;
              rs_insns = res.Cobra_trace_replay.Replay.instructions;
              rs_mispredicts = res.Cobra_trace_replay.Replay.mispredicts;
              rs_mpki = Cobra_trace_replay.Replay.mpki res;
              rs_branches_per_sec = Cobra_trace_replay.Replay.branches_per_sec res;
              rs_insns_per_sec = Cobra_trace_replay.Replay.insns_per_sec res;
              rs_alloc_per_branch =
                da /. float_of_int (max 1 res.Cobra_trace_replay.Replay.branches);
              rs_top_heap_delta_bytes = (h1 - h0) * word;
              rs_speedup_vs_uarch = speedup;
            })
          [ Designs.gshare_only; Designs.tage_l ]
      in
      List.iter
        (fun r ->
          Printf.printf
            "%-8s replay %10.0f branches/s (%10.0f insns/s), %5.1f alloc B/branch, \
             heap +%d B, %.1fx vs uarch%s\n"
            r.rs_uarch.ps_design r.rs_branches_per_sec r.rs_insns_per_sec
            r.rs_alloc_per_branch r.rs_top_heap_delta_bytes r.rs_speedup_vs_uarch
            (if r.rs_speedup_vs_uarch >= 10.0 then "" else "  [below 10x target]"))
        samples;
      let json =
        json_of_replay ~insns:bench_insns ~trace_branches ~trace_insns samples
      in
      let path6 = bench_json6_path () in
      Out_channel.with_open_text path6 (fun oc -> Out_channel.output_string oc json);
      Printf.printf "wrote %s\n" path6)

(* --- snapshot-sweep perf bench -------------------------------------------------- *)

(* Pins the payoff of the flat-state engine: a windowed sweep over the
   pinned h2p-mix trace (shared warmup, N measurement windows) replayed two
   ways — the baseline re-replays the trace from the top for every window
   (what a sweep without checkpoints must do), the snapshot path warms
   once and restores the boundary checkpoint per window. Counters must be
   bit-identical between the two; the wall-clock ratio is the headline.
   Also times Pipeline.snapshot/restore at two warmup depths: the flat
   slabs make both O(state size), independent of how far the replay ran.
   Emits BENCH_PR9.json (schema cobra-bench-snapshot/1). *)

let bench_json9_path () =
  Option.value (Sys.getenv_opt "COBRA_BENCH_JSON9") ~default:"BENCH_PR9.json"

let snapshot_windows = 8

type snapshot_sample = {
  ss_design : string;
  ss_cells : int;
  ss_snapshot_us_shallow : float;  (* after 1/10 of the warmup *)
  ss_snapshot_us_deep : float;  (* after the full warmup *)
  ss_restore_us : float;
  ss_baseline_s : float;
  ss_snapshot_s : float;
  ss_speedup : float;
  ss_windows : (int * int) list;  (* (branches, mispredicts) per window *)
}

let time_us f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e6

let json_of_snapshot ~trace_branches ~trace_insns ~warmup ~window samples =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"cobra-bench-snapshot/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"workload\": %S,\n" replay_workload_name);
  Buffer.add_string buf
    (Printf.sprintf "  \"trace\": {\"branches\": %d, \"insns\": %d},\n" trace_branches
       trace_insns);
  Buffer.add_string buf (Printf.sprintf "  \"warmup_branches\": %d,\n" warmup);
  Buffer.add_string buf (Printf.sprintf "  \"window_branches\": %d,\n" window);
  Buffer.add_string buf (Printf.sprintf "  \"windows\": %d,\n" snapshot_windows);
  Buffer.add_string buf "  \"designs\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf (Printf.sprintf "      \"design\": %S,\n" s.ss_design);
      Buffer.add_string buf (Printf.sprintf "      \"snapshot_cells\": %d,\n" s.ss_cells);
      Buffer.add_string buf
        (Printf.sprintf "      \"snapshot_us_shallow\": %.1f,\n" s.ss_snapshot_us_shallow);
      Buffer.add_string buf
        (Printf.sprintf "      \"snapshot_us_deep\": %.1f,\n" s.ss_snapshot_us_deep);
      Buffer.add_string buf (Printf.sprintf "      \"restore_us\": %.1f,\n" s.ss_restore_us);
      Buffer.add_string buf
        (Printf.sprintf "      \"baseline_sweep_s\": %.3f,\n" s.ss_baseline_s);
      Buffer.add_string buf
        (Printf.sprintf "      \"snapshot_sweep_s\": %.3f,\n" s.ss_snapshot_s);
      Buffer.add_string buf (Printf.sprintf "      \"speedup\": %.2f,\n" s.ss_speedup);
      Buffer.add_string buf "      \"counters_identical\": true,\n";
      Buffer.add_string buf "      \"windows\": [";
      List.iteri
        (fun j (b, m) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "{\"branches\": %d, \"mispredicts\": %d}" b m))
        s.ss_windows;
      Buffer.add_string buf "]\n";
      Buffer.add_string buf
        (if i = List.length samples - 1 then "    }\n" else "    },\n"))
    samples;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let perf_snapshot () =
  let w = Cobra_workloads.Suite.find replay_workload_name in
  let path = Filename.temp_file "cobra_bench" ".btrace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let trace_branches, trace_insns =
        timed "export" (fun () ->
            Cobra_trace_replay.Writer.export_workload ~max_branches:replay_branches ~path
              w)
      in
      let warmup = trace_branches * 3 / 5 in
      let window = (trace_branches - warmup) / snapshot_windows in
      Printf.printf
        "exported %d branches; warmup %d, %d windows x %d branches\n%!" trace_branches
        warmup snapshot_windows window;
      let module Replay = Cobra_trace_replay.Replay in
      let module Reader = Cobra_trace_replay.Reader in
      let samples =
        List.map
          (fun (d : Designs.t) ->
            let name = d.Designs.name in
            (* O(1) evidence: snapshot/restore cost at two warmup depths *)
            let probe_depth branches =
              Cobra_trace_replay.Reader.with_file path (fun rd ->
                  let pl = Designs.pipeline d in
                  let ck, _ = Replay.warmup ~branches ~design:name ~trace:path pl rd in
                  let snap_us = time_us (fun () -> ignore (Cobra.Pipeline.snapshot pl)) in
                  let rest_us = time_us (fun () -> Replay.restore pl rd ck) in
                  (Cobra.Pipeline.snapshot_cells pl, snap_us, rest_us))
            in
            let cells, snap_shallow, _ = probe_depth (warmup / 10) in
            let _, snap_deep, restore_us = probe_depth warmup in
            (* baseline sweep: every window replays the trace from the top *)
            let t0 = Unix.gettimeofday () in
            let baseline_windows =
              List.init snapshot_windows (fun i ->
                  Reader.with_file path (fun rd ->
                      let pl = Designs.pipeline d in
                      let _ck, _skip =
                        Replay.warmup ~branches:(warmup + (i * window)) ~design:name
                          ~trace:path pl rd
                      in
                      let _ck, r =
                        Replay.warmup ~branches:window ~design:name ~trace:path pl rd
                      in
                      r))
            in
            let baseline_s = Unix.gettimeofday () -. t0 in
            (* snapshot sweep: warm once, restore the boundary per window *)
            let t1 = Unix.gettimeofday () in
            let snapshot_windows_rs =
              Reader.with_file path (fun rd ->
                  let pl = Designs.pipeline d in
                  let ck0, _ =
                    Replay.warmup ~branches:warmup ~design:name ~trace:path pl rd
                  in
                  let boundary = ref ck0 in
                  List.init snapshot_windows (fun _i ->
                      Replay.restore pl rd !boundary;
                      let ck, r =
                        Replay.warmup ~branches:window ~design:name ~trace:path pl rd
                      in
                      boundary := ck;
                      r))
            in
            let snapshot_s = Unix.gettimeofday () -. t1 in
            List.iteri
              (fun i (b, s) ->
                if not (Replay.counters_equal b s) then
                  failwith
                    (Printf.sprintf
                       "perf_snapshot: %s window %d: snapshot path diverged from the \
                        baseline (%d/%d mispredicts/branches vs %d/%d)"
                       name i s.Replay.mispredicts s.Replay.branches b.Replay.mispredicts
                       b.Replay.branches))
              (List.combine baseline_windows snapshot_windows_rs);
            {
              ss_design = name;
              ss_cells = cells;
              ss_snapshot_us_shallow = snap_shallow;
              ss_snapshot_us_deep = snap_deep;
              ss_restore_us = restore_us;
              ss_baseline_s = baseline_s;
              ss_snapshot_s = snapshot_s;
              ss_speedup = baseline_s /. (if snapshot_s > 0.0 then snapshot_s else epsilon_float);
              ss_windows =
                List.map
                  (fun (r : Replay.result) -> (r.Replay.branches, r.Replay.mispredicts))
                  snapshot_windows_rs;
            })
          [ Designs.tourney; Designs.tage_l ]
      in
      List.iter
        (fun s ->
          Printf.printf
            "%-8s %7d cells, snapshot %6.1f us shallow / %6.1f us deep, restore %6.1f us, \
             sweep %6.3fs -> %6.3fs (%.1fx)%s\n"
            s.ss_design s.ss_cells s.ss_snapshot_us_shallow s.ss_snapshot_us_deep
            s.ss_restore_us s.ss_baseline_s s.ss_snapshot_s s.ss_speedup
            (if s.ss_speedup >= 3.0 then "" else "  [below 3x target]"))
        samples;
      let json =
        json_of_snapshot ~trace_branches ~trace_insns ~warmup ~window samples
      in
      let path9 = bench_json9_path () in
      Out_channel.with_open_text path9 (fun oc -> Out_channel.output_string oc json);
      Printf.printf "wrote %s\n" path9)

(* --- replay-mode perf bench ------------------------------------------------------ *)

(* Pins the payoff of the pipeline's closed-form replay transaction: the
   pinned h2p-mix trace replayed with the reference transaction (the
   "interpreted" side) and the closed form (the "compiled" side) for each
   reference design, against the uarch core on the same workload. Counters
   must be bit-identical between the two (the conformance gate, re-checked
   here over a multi-million-branch stream), and the closed form must not
   fall below COBRA_BENCH_COMPILED_GATE_PCT percent (default 80, i.e. "no
   regression below the reference modulo timer noise") of the reference
   throughput — in practice it is several times faster. Emits
   BENCH_PR10.json (schema cobra-bench-compiled/1). *)

let bench_json10_path () =
  Option.value (Sys.getenv_opt "COBRA_BENCH_JSON10") ~default:"BENCH_PR10.json"

let compiled_gate_pct =
  Cobra_util.Env.int_var ~min:1 "COBRA_BENCH_COMPILED_GATE_PCT" ~default:80

type engine_side = {
  es_branches : int;
  es_insns : int;
  es_mispredicts : int;
  es_mpki : float;
  es_branches_per_sec : float;
  es_insns_per_sec : float;
  es_alloc_per_branch : float;
}

type compiled_sample = {
  cs_design : string;
  cs_uarch_insns_per_sec : float;
  cs_interpreted : engine_side;
  cs_compiled : engine_side;
  cs_speedup_vs_interpreted : float;
  cs_speedup_vs_uarch : float;
}

let json_of_engine_side buf indent s =
  Buffer.add_string buf "{\n";
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (indent ^ "  " ^ l)) fmt in
  line "\"branches\": %d,\n" s.es_branches;
  line "\"insns\": %d,\n" s.es_insns;
  line "\"mispredicts\": %d,\n" s.es_mispredicts;
  line "\"mpki\": %.4f,\n" s.es_mpki;
  line "\"branches_per_sec\": %.1f,\n" s.es_branches_per_sec;
  line "\"insns_per_sec\": %.1f,\n" s.es_insns_per_sec;
  line "\"alloc_bytes_per_branch\": %.1f\n" s.es_alloc_per_branch;
  Buffer.add_string buf (indent ^ "}")

let json_of_compiled ~trace_branches ~trace_insns samples =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"cobra-bench-compiled/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"workload\": %S,\n" replay_workload_name);
  Buffer.add_string buf
    (Printf.sprintf "  \"trace\": {\"branches\": %d, \"insns\": %d},\n" trace_branches
       trace_insns);
  Buffer.add_string buf (Printf.sprintf "  \"gate_pct\": %d,\n" compiled_gate_pct);
  Buffer.add_string buf "  \"designs\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf (Printf.sprintf "      \"design\": %S,\n" s.cs_design);
      Buffer.add_string buf
        (Printf.sprintf "      \"uarch_insns_per_sec\": %.1f,\n" s.cs_uarch_insns_per_sec);
      Buffer.add_string buf "      \"interpreted\": ";
      json_of_engine_side buf "      " s.cs_interpreted;
      Buffer.add_string buf ",\n";
      Buffer.add_string buf "      \"compiled\": ";
      json_of_engine_side buf "      " s.cs_compiled;
      Buffer.add_string buf ",\n";
      Buffer.add_string buf "      \"counters_identical\": true,\n";
      Buffer.add_string buf
        (Printf.sprintf "      \"speedup_compiled_vs_interpreted\": %.2f,\n"
           s.cs_speedup_vs_interpreted);
      Buffer.add_string buf
        (Printf.sprintf "      \"speedup_compiled_vs_uarch\": %.2f\n" s.cs_speedup_vs_uarch);
      Buffer.add_string buf
        (if i = List.length samples - 1 then "    }\n" else "    },\n"))
    samples;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let perf_compiled () =
  let w = Cobra_workloads.Suite.find replay_workload_name in
  let path = Filename.temp_file "cobra_bench" ".btrace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let trace_branches, trace_insns =
        timed "export" (fun () ->
            Cobra_trace_replay.Writer.export_workload ~max_branches:replay_branches ~path
              w)
      in
      Printf.printf "exported %d branches (%d insns) to %s\n%!" trace_branches
        trace_insns path;
      let module Replay = Cobra_trace_replay.Replay in
      let measure_engine engine (d : Designs.t) =
        (* warm replay (tables + code paths), then the measured run with an
           allocation probe around it *)
        ignore
          (Replay.run_design ~engine ~max_branches:(max 1 (trace_branches / 10)) d ~path);
        Gc.compact ();
        let a0 = Gc.allocated_bytes () in
        let res =
          timed
            (Printf.sprintf "%s/%s"
               (match engine with `Interpreted -> "reference" | `Compiled -> "replay-mode")
               d.Designs.name)
            (fun () -> Replay.run_design ~engine d ~path)
        in
        let da = Gc.allocated_bytes () -. a0 in
        ( res,
          {
            es_branches = res.Replay.branches;
            es_insns = res.Replay.instructions;
            es_mispredicts = res.Replay.mispredicts;
            es_mpki = Replay.mpki res;
            es_branches_per_sec = Replay.branches_per_sec res;
            es_insns_per_sec = Replay.insns_per_sec res;
            es_alloc_per_branch = da /. float_of_int (max 1 res.Replay.branches);
          } )
      in
      let samples =
        List.map
          (fun (d : Designs.t) ->
            let name = d.Designs.name in
            let uarch =
              timed ("uarch/" ^ name) (fun () ->
                  measure_design ~workload:replay_workload_name d ~insns:bench_insns)
            in
            let res_i, side_i = measure_engine `Interpreted d in
            let res_c, side_c = measure_engine `Compiled d in
            if not (Replay.counters_equal res_i res_c) then
              failwith
                (Printf.sprintf
                   "perf_compiled: %s: replay-mode counters diverged from the reference \
                    (%d/%d mispredicts/branches vs %d/%d)"
                   name res_c.Replay.mispredicts res_c.Replay.branches
                   res_i.Replay.mispredicts res_i.Replay.branches);
            if
              side_c.es_insns_per_sec
              < float_of_int compiled_gate_pct /. 100.0 *. side_i.es_insns_per_sec
            then
              failwith
                (Printf.sprintf
                   "perf_compiled: %s: replay mode at %.0f insns/s is below %d%% of the \
                    reference (%.0f insns/s)"
                   name side_c.es_insns_per_sec compiled_gate_pct side_i.es_insns_per_sec);
            {
              cs_design = name;
              cs_uarch_insns_per_sec = uarch.ps_insns_per_sec;
              cs_interpreted = side_i;
              cs_compiled = side_c;
              cs_speedup_vs_interpreted =
                side_c.es_insns_per_sec
                /. (if side_i.es_insns_per_sec > 0.0 then side_i.es_insns_per_sec
                    else epsilon_float);
              cs_speedup_vs_uarch =
                side_c.es_insns_per_sec
                /. (if uarch.ps_insns_per_sec > 0.0 then uarch.ps_insns_per_sec
                    else epsilon_float);
            })
          (perf_designs ())
      in
      List.iter
        (fun s ->
          Printf.printf
            "%-8s compiled %10.0f insns/s (%10.0f branches/s), %.1fx vs interpreted, \
             %.1fx vs uarch%s\n"
            s.cs_design s.cs_compiled.es_insns_per_sec s.cs_compiled.es_branches_per_sec
            s.cs_speedup_vs_interpreted s.cs_speedup_vs_uarch
            (if s.cs_speedup_vs_uarch >= 10.0 then ""
             else if s.cs_speedup_vs_uarch >= 5.0 then "  [5x met, below 10x]"
             else "  [below 5x target]"))
        samples;
      let json = json_of_compiled ~trace_branches ~trace_insns samples in
      let path10 = bench_json10_path () in
      Out_channel.with_open_text path10 (fun oc -> Out_channel.output_string oc json);
      Printf.printf "wrote %s\n" path10)

(* --- bechamel microbenchmarks ------------------------------------------------ *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let predict_test (d : Designs.t) =
    let pl = Designs.pipeline d in
    let pc = ref 0x1000 in
    Test.make ~name:(Printf.sprintf "predict/%s" d.Designs.name)
      (Staged.stage (fun () ->
           let tok = Cobra.Pipeline.predict pl ~pc:!pc ~max_len:4 in
           pc := (!pc + 16) land 0xFFFFF;
           Cobra.Pipeline.squash_from pl tok))
  in
  let elaborate_test (d : Designs.t) =
    Test.make ~name:(Printf.sprintf "elaborate/%s" d.Designs.name)
      (Staged.stage (fun () -> ignore (Designs.pipeline d)))
  in
  let tests =
    List.map predict_test Designs.all @ List.map elaborate_test Designs.all
  in
  let test = Test.make_grouped ~name:"cobra" ~fmt:"%s %s" tests in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
    in
    let raw = Benchmark.all cfg instances test in
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = benchmark () in
  List.iter
    (fun tbl ->
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-28s (no estimate)\n" name)
        (List.sort (fun (a, _) (b, _) -> String.compare a b) rows))
    results

(* --- main ---------------------------------------------------------------------- *)

let sections =
  [
    ("table_1", table_1);
    ("table_2", table_2);
    ("table_3", table_3);
    ("table_attribution", table_attribution);
    ("figure_7", figure_7);
    ("figure_8", figure_8);
    ("figure_9", figure_9);
    ("figure_10", figure_10);
    ("ablation_serialized_fetch", ablation_serialized_fetch);
    ("ablation_tage_latency", ablation_tage_latency);
    ("ablation_history_repair", ablation_history_repair);
    ("ablation_sfb", ablation_sfb);
    ("sweep_storage", sweep_storage);
    ("sweep_ubtb", sweep_ubtb);
    ("sweep_fetch_width", sweep_fetch_width);
    ("sweep_indexing", sweep_indexing);
    ("sweep_ittage", sweep_ittage);
    ("sweep_ras", sweep_ras);
    ("sweep_sc", sweep_sc);
    ("sweep_core_size", sweep_core_size);
    ("sweep_families", sweep_families);
    ("software_vs_hardware", software_vs_hardware);
    ("energy", energy);
    ("perf", perf);
    ("perf_replay", perf_replay);
    ("perf_snapshot", perf_snapshot);
    ("perf_compiled", perf_compiled);
    ("bechamel", bechamel);
  ]

let section_names = List.map fst sections

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.exists (fun a -> a = "--list" || a = "-l") args then begin
    List.iter print_endline section_names;
    exit 0
  end;
  (match List.filter (fun a -> not (List.mem_assoc a sections)) args with
  | [] -> ()
  | unknown ->
    Printf.eprintf "error: unknown section%s %s\nvalid sections:\n%s\n"
      (if List.length unknown = 1 then "" else "s")
      (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
      (String.concat "\n" (List.map (fun n -> "  " ^ n) section_names));
    exit 2);
  let enabled name = args = [] || List.mem name args in
  Printf.printf "COBRA benchmark harness (insns per run: %d)\n" (Experiment.default_insns ());
  List.iter
    (fun (name, f) ->
      if enabled name then begin
        banner name;
        f ()
      end)
    sections
