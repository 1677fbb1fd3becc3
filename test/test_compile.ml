(* Replay-mode certification beyond the fixed conformance suites:

   - a seeded property over {e random} well-formed topology specs (random
     component subsets and arbitration orders, random geometry knobs,
     including path_bits = 0 and predecode correction off): the closed-form
     transaction ([Pipeline.replay_step]) must agree with the reference
     transaction branch-for-branch on direction and mispredict decisions
     and end with a bit-identical snapshot slab, with shrinking and
     COBRA_SEED replay hints via {!Prop};
   - mode interleaving: one pipeline alternating closed-form windows,
     reference windows and general-protocol excursions stays bit-identical
     to a reference-only twin, and the closed form refuses a pipeline that
     is not quiesced or is observed;
   - time-sliced replay: every closed-form slice of [Replay.run_sliced]
     equals the reference transaction resumed at that slice's boundary;
   - windowed [cobra serve] sweeps, including [verify] (reference
     recomputation) and the warm-checkpoint reuse path;
   - the warm-cache LRU regression: with [COBRA_WARM_CACHE] at 2, three
     distinct warm regions must evict down to the cap and bump the
     eviction counter. *)

open Cobra
module Slab = Cobra_util.Slab
module Designs = Cobra_eval.Designs
module Fuzz = Cobra_conformance.Fuzz
module Writer = Cobra_trace_replay.Writer
module Btrace = Cobra_trace_replay.Btrace
module Serve = Cobra_trace_replay.Serve
module Reader = Cobra_trace_replay.Reader
module Replay = Cobra_trace_replay.Replay
module C = Cobra_components

let check = Alcotest.check
let width = 4
let seed = 0xc0de5

(* --- random topology specs ------------------------------------------------------ *)

(* A generatable, shrinkable description of one component. Latencies stay in
   1..3 so any sub-tree satisfies Topology.validate under a latency-3
   selector; history lengths are clamped to the generated geometry. *)
type idx = IPc | IGhist of int | ILhist of int | IPhist of int

type comp =
  | CGshare of { index_bits : int; hist : int; lat : int }
  | CHbim of { entries_l2 : int; idx : idx; lat : int }
  | CBtb of { sets_l2 : int; ways : int; lat : int }

type node =
  | Leaf of comp
  | Over of comp * node
  | Arb of int * node * node  (** tourney chooser (entries_log2) over two subs *)

type tcase = {
  t_ghist : int;
  t_lhist_bits : int;
  t_lhist_entries : int;
  t_path : int;
  t_predecode : bool;
  t_topo : node;
  t_shape : Fuzz.shape;
  t_len : int;
  t_sseed : int;  (** branch-stream seed, independent of the driver seed *)
}

let show_idx = function
  | IPc -> "pc"
  | IGhist n -> Printf.sprintf "ghist:%d" n
  | ILhist n -> Printf.sprintf "lhist:%d" n
  | IPhist n -> Printf.sprintf "phist:%d" n

let show_comp = function
  | CGshare { index_bits; hist; lat } ->
    Printf.sprintf "gshare(ix=%d,h=%d,lat=%d)" index_bits hist lat
  | CHbim { entries_l2; idx; lat } ->
    Printf.sprintf "hbim(2^%d,%s,lat=%d)" entries_l2 (show_idx idx) lat
  | CBtb { sets_l2; ways; lat } ->
    Printf.sprintf "btb(2^%d x%d,lat=%d)" sets_l2 ways lat

let rec show_node = function
  | Leaf c -> show_comp c
  | Over (c, sub) -> Printf.sprintf "(%s > %s)" (show_comp c) (show_node sub)
  | Arb (e, a, b) ->
    Printf.sprintf "tourney(2^%d) > [%s; %s]" e (show_node a) (show_node b)

let show_tcase tc =
  Printf.sprintf "ghist=%d lhist=%dx%d path=%d predecode=%b shape=%s len=%d sseed=%d %s"
    tc.t_ghist tc.t_lhist_bits tc.t_lhist_entries tc.t_path tc.t_predecode
    (Fuzz.shape_name tc.t_shape) tc.t_len tc.t_sseed (show_node tc.t_topo)

let gen_comp st ~ghist ~lhist_bits ~path =
  let ri n = Random.State.int st n in
  match ri 3 with
  | 0 ->
    CGshare { index_bits = 4 + ri 6; hist = 1 + ri (min 16 ghist); lat = 1 + ri 2 }
  | 1 ->
    let idx =
      match ri (if path > 0 then 4 else 3) with
      | 0 -> IPc
      | 1 -> IGhist (1 + ri (min 12 ghist))
      | 2 -> ILhist (1 + ri (min 12 lhist_bits))
      | _ -> IPhist (1 + ri (min 12 path))
    in
    CHbim { entries_l2 = 4 + ri 5; idx; lat = 1 + ri 2 }
  | _ -> CBtb { sets_l2 = 3 + ri 4; ways = 1 + ri 3; lat = 1 + ri 2 }

let rec gen_node st ~depth ~ghist ~lhist_bits ~path =
  let leaf () = Leaf (gen_comp st ~ghist ~lhist_bits ~path) in
  if depth = 0 then leaf ()
  else
    match Random.State.int st 4 with
    | 0 | 1 -> leaf ()
    | 2 ->
      Over
        ( gen_comp st ~ghist ~lhist_bits ~path,
          gen_node st ~depth:(depth - 1) ~ghist ~lhist_bits ~path )
    | _ ->
      Arb
        ( 4 + Random.State.int st 5,
          gen_node st ~depth:(depth - 1) ~ghist ~lhist_bits ~path,
          gen_node st ~depth:(depth - 1) ~ghist ~lhist_bits ~path )

let gen_tcase st =
  let ghist = 8 + Random.State.int st 41 in
  let lhist_bits = 4 + Random.State.int st 21 in
  let lhist_entries = if Random.State.bool st then 64 else 256 in
  let path = [| 0; 8; 16 |].(Random.State.int st 3) in
  {
    t_ghist = ghist;
    t_lhist_bits = lhist_bits;
    t_lhist_entries = lhist_entries;
    t_path = path;
    t_predecode = Random.State.bool st;
    t_topo = gen_node st ~depth:2 ~ghist ~lhist_bits ~path;
    t_shape =
      [| Fuzz.Loops; Fuzz.Correlated; Fuzz.Aliasing; Fuzz.Phases; Fuzz.Storms; Fuzz.Mixed |]
        .(Random.State.int st 6);
    t_len = 20 + Random.State.int st 141;
    t_sseed = Random.State.int st 10_000;
  }

(* Shrink the topology structurally (replace a node by a sub-tree), then the
   stream length toward a handful of branches. *)
let rec shrink_node = function
  | Leaf _ -> []
  | Over (c, sub) -> sub :: List.map (fun s -> Over (c, s)) (shrink_node sub)
  | Arb (e, a, b) ->
    (a :: b :: List.map (fun a' -> Arb (e, a', b)) (shrink_node a))
    @ List.map (fun b' -> Arb (e, a, b')) (shrink_node b)

let shrink_tcase tc =
  List.map (fun n -> { tc with t_topo = n }) (shrink_node tc.t_topo)
  @ (if tc.t_len > 4 then [ { tc with t_len = tc.t_len / 2 }; { tc with t_len = 4 } ]
     else [])
  @ (if tc.t_predecode then [] else [ { tc with t_predecode = true } ])
  @ if tc.t_path = 0 then [] else [ { tc with t_path = 0 } ]

let tcase_arb = Prop.make ~shrink:shrink_tcase ~show:show_tcase gen_tcase

(* --- building and driving the twins --------------------------------------------- *)

let build_topo node =
  let counter = ref 0 in
  let name () =
    incr counter;
    Printf.sprintf "c%d" !counter
  in
  let build_comp = function
    | CGshare { index_bits; hist; lat } ->
      C.Gshare.make
        {
          C.Gshare.name = name ();
          latency = lat;
          index_bits;
          counter_bits = 2;
          history_length = hist;
          fetch_width = width;
        }
    | CHbim { entries_l2; idx; lat } ->
      let indexing =
        match idx with
        | IPc -> C.Indexing.Pc
        | IGhist n -> C.Indexing.Ghist n
        | ILhist n -> C.Indexing.Lhist n
        | IPhist n -> C.Indexing.Phist n
      in
      C.Hbim.make
        {
          C.Hbim.name = name ();
          latency = lat;
          entries = 1 lsl entries_l2;
          counter_bits = 2;
          indexing;
          fetch_width = width;
        }
    | CBtb { sets_l2; ways; lat } ->
      C.Btb.make
        {
          C.Btb.name = name ();
          latency = lat;
          sets = 1 lsl sets_l2;
          ways;
          tag_bits = 10;
          fetch_width = width;
        }
  in
  let rec build = function
    | Leaf c -> Topology.node (build_comp c)
    | Over (c, sub) -> Topology.over (build_comp c) (build sub)
    | Arb (e, a, b) ->
      let sel =
        C.Tourney.make
          {
            C.Tourney.name = name ();
            latency = 3;
            entries = 1 lsl e;
            counter_bits = 2;
            history_length = 10;
            fetch_width = width;
          }
      in
      Topology.arbitrate sel [ build a; build b ]
  in
  build node

let config_of tc =
  {
    Pipeline.default_config with
    Pipeline.fetch_width = width;
    ghist_bits = tc.t_ghist;
    lhist_bits = tc.t_lhist_bits;
    lhist_entries = tc.t_lhist_entries;
    path_bits = tc.t_path;
    predecode_history_correction = tc.t_predecode;
  }

let step mode pl (b : Fuzz.branch) =
  mode pl ~pc:b.Fuzz.br_pc ~kind:b.Fuzz.br_kind ~taken:b.Fuzz.br_taken ~target:b.Fuzz.br_target

let compile_equiv tc =
  let cfg = config_of tc in
  let reference = Pipeline.create cfg (build_topo tc.t_topo) in
  let fast = Pipeline.create cfg (build_topo tc.t_topo) in
  let bs = Fuzz.branches { Fuzz.seed = tc.t_sseed; shape = tc.t_shape; length = tc.t_len } in
  List.iteri
    (fun i (b : Fuzz.branch) ->
      let w_r = step Pipeline.reference_step reference b in
      let w_f = step Pipeline.replay_step fast b in
      let tp_r = Pipeline.last_taken_pred reference and tp_f = Pipeline.last_taken_pred fast in
      if tp_r <> tp_f || w_r <> w_f then
        Alcotest.failf
          "branch %d/%d (pc=0x%x taken=%b): reference taken_pred=%b wrong=%b, replay mode \
           taken_pred=%b wrong=%b"
          i tc.t_len b.Fuzz.br_pc b.Fuzz.br_taken tp_r w_r tp_f w_f)
    bs;
  if not (Slab.equal (Pipeline.snapshot reference) (Pipeline.snapshot fast)) then
    Alcotest.fail "final snapshot slabs differ between the reference and replay mode"

let test_random_topologies () =
  Prop.check ~count:60 ~name:"replay mode = reference transaction on random topologies"
    tcase_arb compile_equiv

(* The flattened evaluator against the recursive definition of the stage
   composites: a node's opinion shows from its latency on and overrides
   everything below it; a selector overrides its first sub-topology. The
   oracle recomputes every stage from the per-component raw predictions an
   observer receives, for full-width packets. *)
let rec oracle id raw topo (below : Types.prediction array) =
  let overlay (c : Component.t) weak =
    Array.mapi
      (fun s b -> if s + 1 < c.latency then b else Types.merge ~strong:raw.(id c) ~weak:b)
      weak
  in
  match topo with
  | Topology.Node c -> overlay c below
  | Topology.Override (hi, lo) -> oracle id raw hi (oracle id raw lo below)
  | Topology.Arbitrate (sel, subs) ->
    overlay sel (oracle id raw (List.hd subs) below)

let evaluator_matches_oracle tc =
  let cfg = config_of tc in
  let pl = Pipeline.create cfg (build_topo tc.t_topo) in
  let comps = Pipeline.components pl and depth = Pipeline.depth pl in
  let id c =
    let rec find i = if comps.(i) == c then i else find (i + 1) in
    find 0
  in
  let raw = ref [||] in
  Pipeline.set_observer pl
    (Some (function Pipeline.Fired { raw = Some r; _ } -> raw := r | _ -> ()));
  let bs = Fuzz.branches { Fuzz.seed = tc.t_sseed; shape = tc.t_shape; length = tc.t_len } in
  List.iteri
    (fun i (b : Fuzz.branch) ->
      let tok = Pipeline.predict pl ~pc:b.Fuzz.br_pc ~max_len:width in
      let stages = Pipeline.stages pl tok in
      let final = stages.(depth - 1).(0) in
      let taken_pred = Pipeline.predicted_taken ~kind:b.Fuzz.br_kind final in
      let slots = Array.make width Types.no_branch in
      slots.(0) <-
        Types.resolved_branch ~kind:b.Fuzz.br_kind ~taken:taken_pred
          ~target:(if taken_pred then b.Fuzz.br_target else 0);
      let seq = Pipeline.fire pl tok ~slots ~packet_len:1 in
      let expect =
        oracle id !raw (Pipeline.topology pl)
          (Array.make depth (Types.no_prediction ~width))
      in
      Array.iteri
        (fun s e ->
          if not (Types.equal_prediction e stages.(s)) then
            Alcotest.failf "branch %d: stage %d composite differs from the oracle" i (s + 1))
        expect;
      let actual =
        Types.resolved_branch ~kind:b.Fuzz.br_kind ~taken:b.Fuzz.br_taken
          ~target:b.Fuzz.br_target
      in
      if
        Pipeline.mispredicted ~kind:b.Fuzz.br_kind ~taken:b.Fuzz.br_taken
          ~target:b.Fuzz.br_target final
      then Pipeline.mispredict pl ~seq ~slot:0 actual
      else Pipeline.resolve pl ~seq ~slot:0 actual;
      Pipeline.commit pl)
    bs

let test_evaluator_oracle () =
  Prop.check ~count:60 ~name:"stage composites = recursive oracle on random topologies"
    tcase_arb evaluator_matches_oracle

(* --- mode interleaving ------------------------------------------------------------ *)

(* A 4-wide general-protocol excursion: predicted, then squashed. *)
let excursion pl pc =
  ignore (Pipeline.predict pl ~pc ~max_len:width);
  Pipeline.squash_all_pending pl

(* One pipeline alternates 50-branch windows of the closed form and of the
   reference transaction, with an excursion between windows; its twin runs
   the reference transaction throughout, with the same excursions. Every
   decision, every metadata word and the final slab must match. *)
let test_mode_interleaving () =
  List.iter
    (fun (d : Designs.t) ->
      let mixed = Designs.pipeline d and reference = Designs.pipeline d in
      let bs = Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length = 400 } in
      List.iteri
        (fun i (b : Fuzz.branch) ->
          let window = i / 50 in
          if i mod 50 = 0 && window > 0 then begin
            excursion mixed b.Fuzz.br_pc;
            excursion reference b.Fuzz.br_pc
          end;
          let mode =
            if window mod 2 = 0 then Pipeline.replay_step else Pipeline.reference_step
          in
          let w_m = step mode mixed b in
          let w_r = step Pipeline.reference_step reference b in
          let what = Printf.sprintf "%s branch %d" d.Designs.name i in
          check Alcotest.bool (what ^ " wrong") w_r w_m;
          check Alcotest.bool (what ^ " taken_pred") (Pipeline.last_taken_pred reference)
            (Pipeline.last_taken_pred mixed);
          check
            Alcotest.(array string)
            (what ^ " metas")
            (Array.map Cobra_util.Bits.to_string (Pipeline.last_metas reference))
            (Array.map Cobra_util.Bits.to_string (Pipeline.last_metas mixed)))
        bs;
      check Alcotest.bool (d.Designs.name ^ " final slab") true
        (Slab.equal (Pipeline.snapshot reference) (Pipeline.snapshot mixed)))
    [ Designs.tourney; Designs.tage_l ]

let test_replay_step_preconditions () =
  let refused what pl =
    match
      Pipeline.replay_step pl ~pc:0x1000 ~kind:Types.Cond ~taken:true ~target:0x1040
    with
    | _ -> Alcotest.failf "replay_step accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  let pl = Designs.pipeline Designs.tourney in
  let tok = Pipeline.predict pl ~pc:0x1000 ~max_len:width in
  refused "a pending packet" pl;
  let slots = Array.make width Types.no_branch in
  ignore (Pipeline.fire pl tok ~slots ~packet_len:1);
  refused "an in-flight entry" pl;
  Pipeline.commit pl;
  Pipeline.set_observer pl (Some ignore);
  refused "an attached observer" pl;
  Pipeline.set_observer pl None;
  ignore (Pipeline.replay_step pl ~pc:0x1000 ~kind:Types.Cond ~taken:true ~target:0x1040)

let fuzz_records length =
  List.map
    (fun (b : Fuzz.branch) ->
      {
        Btrace.b_pc = b.Fuzz.br_pc;
        b_taken = b.Fuzz.br_taken;
        b_kind = b.Fuzz.br_kind;
        b_target = b.Fuzz.br_target;
        b_gap = 2;
      })
    (Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length })

let with_trace length f =
  let path = Filename.temp_file "cobra_compile_test" ".cobt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Writer.save ~format:Btrace.Binary path (fuzz_records length);
      f path)

(* --- time-sliced replay against the reference transaction ------------------------ *)

(* run_sliced replays every slice with the closed form and certifies the
   parallel pass against its own serial pass; here each slice is checked
   against the reference transaction instead: a reference pipeline warmed
   up to the slice's first branch and then run for the slice's length must
   produce the same counters. TAGE-L over 350 branches in slices of 120
   leaves a ragged last slice of 110. *)
let test_run_sliced_compiled () =
  let d = Designs.tage_l in
  let slice = 120 in
  with_trace 350 (fun path ->
      let sliced = Replay.run_sliced ~jobs:2 ~slice_branches:slice d ~path in
      check Alcotest.(list int) "slice lengths" [ 120; 120; 110 ]
        (List.map (fun (r : Replay.result) -> r.Replay.branches) sliced.Replay.sl_slices);
      List.iteri
        (fun i (r : Replay.result) ->
          let reference =
            Reader.with_file path (fun rd ->
                let pl = Designs.pipeline d in
                let name = d.Designs.name in
                ignore (Replay.warmup ~branches:(i * slice) ~design:name ~trace:path pl rd);
                snd (Replay.warmup ~branches:slice ~design:name ~trace:path pl rd))
          in
          check Alcotest.bool
            (Printf.sprintf "slice %d equals the reference transaction" i)
            true
            (Replay.counters_equal r reference))
        sliced.Replay.sl_slices;
      check Alcotest.bool "sliced totals equal the reference single pass" true
        (Replay.counters_equal sliced.Replay.sl_total (Replay.run_design d ~path)))

(* --- windowed serve sweeps ----------------------------------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s: expected %S inside %S" what needle haystack

let collect_handle cfg line =
  let out = ref [] in
  let status = Serve.handle_line cfg (fun s -> out := s :: !out) line in
  (status, List.rev !out)

let serve_cfg () = { (Serve.default_config ~socket:"/tmp/unused.sock") with Serve.jobs = 2 }

let count_events out needle =
  List.length (List.filter (fun l -> contains l needle) out)

let test_serve_windowed_compiled () =
  with_trace 300 (fun path ->
      let cfg = serve_cfg () in
      let req =
        Printf.sprintf
          {|{"op": "sweep", "designs": ["Tourney"], "traces": ["%s"], "warmup_branches": 120, "window_branches": 60, "windows": 3, "verify": true, "no_cache": true}|}
          path
      in
      let status, out = collect_handle cfg req in
      check Alcotest.bool "continue" true (status = `Continue);
      let all = String.concat "\n" out in
      check Alcotest.int "no error events" 0 (count_events out {|"event": "error"|});
      check Alcotest.int "one result per window" 3 (count_events out {|"event": "result"|});
      check_contains "windows verified against the reference oracle" all
        {|"verified": true|};
      check_contains "summary reports warm telemetry" all {|"warm_entries"|};
      check_contains "terminator" all {|"event": "done"|};
      (* repeat: the warm checkpoint is reused across requests (restore
         instead of re-warm), still verified and error-free *)
      let _, out2 = collect_handle cfg req in
      let all2 = String.concat "\n" out2 in
      check Alcotest.int "repeat has no errors" 0 (count_events out2 {|"event": "error"|});
      check_contains "warm checkpoint reused" all2 {|"warm_cached": true|})

(* --- warm-cache LRU regression ---------------------------------------------------- *)

(* The warm cache used to grow without bound — one entry per distinct
   (design, trace, warmup) forever. With COBRA_WARM_CACHE=2, three distinct
   warm regions must leave at most 2 entries and bump the eviction
   counter. *)
let test_warm_cache_lru () =
  Unix.putenv "COBRA_WARM_CACHE" "2";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "COBRA_WARM_CACHE" "")
    (fun () ->
      with_trace 300 (fun path ->
          let cfg = serve_cfg () in
          let _, evictions0 = Serve.warm_cache_stats () in
          List.iter
            (fun warm ->
              let req =
                Printf.sprintf
                  {|{"op": "sweep", "designs": ["Tourney"], "traces": ["%s"], "warmup_branches": %d, "window_branches": 40, "no_cache": true}|}
                  path warm
              in
              let _, out = collect_handle cfg req in
              check Alcotest.int
                (Printf.sprintf "warmup %d runs clean" warm)
                0
                (count_events out {|"event": "error"|}))
            [ 60; 80; 100 ];
          let entries, evictions = Serve.warm_cache_stats () in
          check Alcotest.bool "entries capped at COBRA_WARM_CACHE" true (entries <= 2);
          check Alcotest.bool "evictions counted" true (evictions > evictions0)))

(* --- registration ----------------------------------------------------------------- *)

(* --- steady-state allocation ---------------------------------------------------- *)

(* Minor-heap words per replayed branch, by design, after a 5000-branch
   warm-up, over the next 20000 branches of the pinned h2p-mix stream.
   ALWAYS (the framework floor) and GShare allocate nothing; TAGE-L's
   remaining words are the opinions its BTB and micro-BTB build for hits
   (each carries the entry's own target) and the merges of a direction
   over them. The bounds sit half a word above what this stream measures,
   so putting back any allocation on the per-branch path trips them. *)
let allocation_bounds = [ ("ALWAYS", 0.5); ("GShare", 0.5); ("TAGE-L", 20.9) ]

let test_replay_step_allocation () =
  let path = Filename.temp_file "cobra_alloc" ".cobt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore
        (Writer.export_stream ~max_branches:25_000 ~path
           (Cobra_workloads.Kernels.h2p_mix ~seed:1 ()));
      let recs = Array.of_list (Reader.load path) in
      check Alcotest.int "stream length" 25_000 (Array.length recs);
      let pipeline = function
        | "ALWAYS" ->
          let t = Cobra_probe.Target.find_exn "ALWAYS" in
          Pipeline.create t.Cobra_probe.Target.t_config (t.Cobra_probe.Target.t_make ())
        | "GShare" -> Designs.pipeline Designs.gshare_only
        | _ -> Designs.pipeline Designs.tage_l
      in
      List.iter
        (fun (name, bound) ->
          let pl = pipeline name in
          let step (r : Btrace.record) =
            ignore
              (Pipeline.replay_step pl ~pc:r.Btrace.b_pc ~kind:r.Btrace.b_kind
                 ~taken:r.Btrace.b_taken ~target:r.Btrace.b_target)
          in
          for i = 0 to 4_999 do
            step recs.(i)
          done;
          let w0 = Gc.minor_words () in
          for i = 5_000 to 24_999 do
            step recs.(i)
          done;
          let per_branch = (Gc.minor_words () -. w0) /. 20_000.0 in
          if per_branch > bound then
            Alcotest.failf "%s: replay_step allocates %.2f words per branch (bound %.1f)" name
              per_branch bound)
        allocation_bounds)

let () =
  Alcotest.run "compile"
    [
      ( "property",
        [
          Alcotest.test_case "random topology compile/interpret equivalence" `Quick
            test_random_topologies;
          Alcotest.test_case "random topology evaluator vs recursive oracle" `Quick
            test_evaluator_oracle;
        ] );
      ( "replay-mode",
        [
          Alcotest.test_case "fast and reference windows interleave" `Quick
            test_mode_interleaving;
          Alcotest.test_case "replay_step refuses a busy pipeline" `Quick
            test_replay_step_preconditions;
        ] );
      ( "checkpoints",
        [ Alcotest.test_case "time-sliced compiled replay" `Quick test_run_sliced_compiled ]
      );
      ( "serve",
        [
          Alcotest.test_case "windowed sweep on the compiled engine" `Quick
            test_serve_windowed_compiled;
          Alcotest.test_case "warm cache LRU cap" `Quick test_warm_cache_lru;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "replay_step steady state within word bounds" `Quick
            test_replay_step_allocation;
        ] );
    ]
