(* The repository benchmark. See README.md for the workloads, the metrics,
   their units, and which end-to-end metric each layer metric should move.

   cobench.exe --workload replay|serve --seed N --seconds S --trace 0|1
     --cobra PATH   (the cobra CLI binary run as the serve daemon)

   Every run sets up all inputs from the seed and measures all three parts
   (replay, uarch, serve), interleaved. The named workload gets more work,
   scaled to S (replay rounds, or serve requests); the others run a fixed
   base. Every output is checked, and one JSON result line is printed last. *)

module Replay = Cobra_trace_replay.Replay
module Reader = Cobra_trace_replay.Reader
module Writer = Cobra_trace_replay.Writer
module Serve = Cobra_trace_replay.Serve
module Designs = Cobra_eval.Designs
module Experiment = Cobra_eval.Experiment
module Suite = Cobra_workloads.Suite
module Kernels = Cobra_workloads.Kernels
module Perf = Cobra_uarch.Perf
module Json = Cobra_stats.Json
module Target = Cobra_probe.Target
module Engine = Cobra_compile.Engine
open Cobench

let now = Unix.gettimeofday

(* ---- sizes ------------------------------------------------------------ *)

let h2p_branches = 32768
let wide_passes = 1 (* x 65536 sites *)
let serve_traces = 4
let serve_trace_branches = 100_000
let uarch_insns = 5_000 (* per kernel *)
let interp_check_cap = 20_000 (* branches per trace in the engine cross-check *)
let setup_reps = 5
(* Work on every run. The named workload gets more, in proportion to
   --seconds: replay [replay_rounds_per_s] rounds per second, serve
   [serve_requests_per_s] requests per second; never less than the base. *)
let replay_rounds = 8
let uarch_rounds = 8
let serve_requests = 1000
let replay_rounds_per_s = 0.4
let serve_requests_per_s = 40.0
let serve_segments = 5 (* pieces of the serve loop, interleaved with the rounds *)
let warmup_base = 4_000 (* opening sweep k warms base + k branches *)
let sweep_windows = 2
let sweep_window = 2_000
let loop_window = 1_000
(* Loop sweeps cycle through 4 traces x [loop_warmups] warmup lengths x 2
   designs = 16 warm keys; the daemon's warm LRU holds [warm_capacity]. *)
let loop_warmup = 2_000
let loop_warmups = 2
let warm_capacity = 8
(* One closed-loop client and a one-job daemon: the loop never runs more
   than one thing at a time, so on a 2-core host its latencies measure the
   daemon, not how two busy cores share the machine. *)
let jobs = 1
let clients = 1
let layer_reps = 3 (* passes per isolated layer measurement *)
let opening_sweeps = 12

let designs = [ Designs.gshare_only; Designs.tourney; Designs.b2; Designs.tage_l ]
let dname (d : Designs.t) = d.Designs.name
(* The named workloads; every run measures all three parts. *)
let workloads = [ "replay"; "serve" ]
let parts = [ "replay"; "uarch"; "serve" ]

(* ---- arguments -------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  cobra : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload replay|serve --seed N --seconds S --trace 0|1 --cobra PATH";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seconds = int_of "seconds" in
  if seconds < 1 then usage ();
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  { workload; seed = int_of "seed"; seconds = float_of_int seconds; traced; cobra = get "cobra" }

(* ---- small helpers ---------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* Peak resident set of a process in MiB, from /proc ([VmHWM]). *)
let peak_rss_mib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> 0.0
          | l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> go ())
        in
        go ())

(* Host time, bytes allocated and minor collections of one call. *)
type cost = { wall_s : float; alloc_b : float; minors : int }

let costed f =
  let m0 = (Gc.quick_stat ()).Gc.minor_collections in
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let v = f () in
  let wall_s = now () -. t0 in
  let alloc_b = Gc.allocated_bytes () -. a0 in
  (v, { wall_s; alloc_b; minors = (Gc.quick_stat ()).Gc.minor_collections - m0 })

(* One order statistic of each field over several runs of identical work. *)
let summary_cost stat cs =
  let f g = stat (List.map g cs) in
  {
    wall_s = f (fun c -> c.wall_s);
    alloc_b = f (fun c -> c.alloc_b);
    minors = int_of_float (f (fun c -> float_of_int c.minors));
  }

let median_cost = summary_cost Bstats.median
let upper_cost = summary_cost Bstats.upper_quartile

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Metrics are printed in insertion order. *)
let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

(* ---- inputs ----------------------------------------------------------- *)

type inputs = {
  h2p : string;
  wide : string;
  served : string list;  (** the serve workload's aliasing traces *)
  kernels : Suite.entry list;
}

let kernels seed =
  [
    {
      Suite.name = "h2p-mix";
      description = "seeded h2p-mix";
      make = Kernels.h2p_mix ~seed;
      decode = None;
    };
    {
      Suite.name = "aliasing32";
      description = "seeded 32-site aliasing";
      make = Kernels.aliasing ~sites:32 ~seed;
      decode = None;
    };
    Suite.find "mcf";
    Suite.find "exchange2";
  ]

let generate ~seed dir =
  let h2p = Filename.concat dir "h2p.cobt" and wide = Filename.concat dir "wide.cobt" in
  ignore (Gen.h2p ~seed ~branches:h2p_branches h2p);
  ignore (Gen.wide ~seed ~passes:wide_passes wide);
  let served =
    List.init serve_traces (fun k ->
        let p = Filename.concat dir (Printf.sprintf "alias%d.cobt" k) in
        ignore
          (Gen.aliasing ~seed:((seed * serve_traces) + k) ~sites:32
             ~branches:serve_trace_branches p);
        p)
  in
  { h2p; wide; served; kernels = kernels seed }

let trace_files i = i.h2p :: i.wide :: i.served

(* ---- the serve daemon ------------------------------------------------- *)

type daemon = { pid : int; sock : string }

let live_daemons : daemon list ref = ref []

let clean_env extra =
  let keep e = not (String.length e >= 6 && String.sub e 0 6 = "COBRA_") in
  Array.append (Array.of_list (List.filter keep (Array.to_list (Unix.environment ())))) extra

let ping sock =
  match Serve.request ~timeout_s:5.0 ~socket:sock {|{"op": "ping"}|} with
  | _ -> true
  | exception Failure _ -> false

let start_daemon ~cobra ~dir =
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" and cache = Filename.concat dir "cache" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process_env cobra
          [| cobra; "serve"; "--socket"; sock; "-j"; string_of_int jobs |]
          (clean_env
             [| "COBRA_CACHE_DIR=" ^ cache; "COBRA_WARM_CACHE=" ^ string_of_int warm_capacity |])
          null null Unix.stderr)
  in
  let d = { pid; sock } in
  live_daemons := d :: !live_daemons;
  let deadline = now () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> failwith "serve daemon exited during start-up"
    | _ ->
      if Sys.file_exists sock && ping sock then d
      else if now () > deadline then failwith "serve daemon did not answer within 60 s"
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
  in
  wait ()

let stop_daemon d =
  (try Serve.shutdown ~timeout_s:30.0 ~socket:d.sock () with Failure _ -> ());
  let deadline = now () +. 30.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | p, _ when p = d.pid -> ()
    | _ ->
      if now () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.01;
        reap ()
      end
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  live_daemons := List.filter (fun x -> x.pid <> d.pid) !live_daemons

let kill_all_daemons () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live_daemons;
  live_daemons := []

(* ---- set-up ----------------------------------------------------------- *)

(* Set-up is generation of every input, elaboration of every design (both
   engines) and a daemon start to its first answered ping, repeated
   [setup_reps] times; [setup_s] is the median. Every repetition must
   produce byte-identical traces. The last daemon stays up for the serve
   workload. *)
let setup ledger ~seed ~cobra ~work =
  let times = ref [] and inputs = ref None and digests = ref None and daemon = ref None in
  for rep = 1 to setup_reps do
    let t0 = now () in
    let i = Span.with_ "setup.generate" (fun _ -> generate ~seed work) in
    Span.with_ "setup.elaborate" (fun _ ->
        List.iter
          (fun d ->
            ignore (Replay.compiled d);
            ignore (Designs.pipeline d))
          designs);
    let dm =
      Span.with_ "setup.daemon_start" (fun _ ->
          start_daemon ~cobra ~dir:(Filename.concat work (Printf.sprintf "daemon%d" rep)))
    in
    times := (now () -. t0) :: !times;
    let ds = List.map Gen.md5 (trace_files i) in
    (match !digests with
    | None -> digests := Some ds
    | Some first -> Bstats.check ledger (first = ds) "traces differ between set-up repetitions");
    (match !daemon with Some old -> stop_daemon old | None -> ());
    daemon := Some dm;
    inputs := Some i
  done;
  let i = Option.get !inputs in
  List.iter2
    (fun p md5 ->
      say "# trace %s md5 %s bytes %d" (Filename.basename p) md5 (Unix.stat p).Unix.st_size)
    (trace_files i) (Option.get !digests);
  (i, Option.get !daemon, Bstats.median !times)

(* ---- rounds ----------------------------------------------------------- *)

(* A workload measured in rounds: [round] runs one more round, [result]
   checks and summarises the rounds run so far. *)
type 'a rounds = { round : unit -> unit; result : unit -> 'a }

(* Run the rounds of several workloads spread evenly over one schedule:
   round k of a workload with n rounds runs at position (k + 1/2) / n. A
   burst of interference on the host then costs each workload a few of its
   rounds, instead of costing one workload all of them. *)
let interleave parts =
  List.concat_map
    (fun (n, round) ->
      List.init n (fun k -> ((float_of_int k +. 0.5) /. float_of_int n, round)))
    parts
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.iter (fun (_, round) -> round ())

(* ---- replay workload -------------------------------------------------- *)

(* The five replay counters, in the order serve's result events carry them
   (see [result_counters]). *)
let replay_counters (r : Replay.result) =
  [ r.Replay.branches; r.Replay.cond_branches; r.Replay.mispredicts; r.Replay.cond_mispredicts;
    r.Replay.instructions ]

(* A round replays both traces through all four designs in turn. Each
   sample replays one trace on a fresh simulator, elaboration included. A
   design's branches/s is both traces' branches over the sum of each
   trace's mean time across rounds. *)
let replay_part ?parent ledger (i : inputs) =
  let traces = [ i.h2p; i.wide ] in
  let times = Hashtbl.create 8 and reference = Hashtbl.create 8 in
  let round () =
    (* every round starts from a compacted heap, whatever ran before *)
    Gc.compact ();
    Span.with_ ?parent "workload.replay" (fun root ->
        List.iter
          (fun d ->
            List.iter
              (fun path ->
                let r, c =
                  costed (fun () ->
                      Span.with_ ~parent:root ("Replay.run_design." ^ dname d) (fun _ ->
                          Replay.run_design ~engine:`Compiled d ~path))
                in
                let key = (dname d, path) in
                Hashtbl.add times key c.wall_s;
                match Hashtbl.find_opt reference key with
                | None -> Hashtbl.replace reference key r
                | Some r0 ->
                  Bstats.check ledger (Replay.counters_equal r0 r)
                    (Printf.sprintf "replay of %s on %s not repeatable" (dname d) path))
              traces)
          designs)
  in
  let result () =
    (* compiled vs interpreted, on a prefix of each trace *)
    List.iter
      (fun d ->
        List.iter
          (fun path ->
            let c = Replay.run_design ~max_branches:interp_check_cap ~engine:`Compiled d ~path in
            let r =
              Replay.run_design ~max_branches:interp_check_cap ~engine:`Interpreted d ~path
            in
            Bstats.check ledger (Replay.counters_equal c r)
              (Printf.sprintf "compiled and interpreted replay differ: %s on %s" (dname d) path))
          traces)
      designs;
    List.iter
      (fun ((d, t), r) ->
        say "# replay %s %s branches %d mispredicts %d mpki %.3f" d (Filename.basename t)
          r.Replay.branches r.Replay.mispredicts (Replay.mpki r))
      (List.sort compare (List.of_seq (Hashtbl.to_seq reference)));
    List.map
      (fun d ->
        let sum f = List.fold_left (fun a t -> a +. f (dname d, t)) 0.0 traces in
        let branches k = float_of_int (Hashtbl.find reference k).Replay.branches in
        let time k = Bstats.upper_quartile (Hashtbl.find_all times k) in
        (dname d, sum branches /. sum time))
      designs
  in
  { round; result }

(* ---- uarch workload --------------------------------------------------- *)

(* One design over the four kernels: each kernel's mean host cost across
   rounds, summed, and the (round-invariant) counters. *)
type uarch = {
  u_insns : float;
  u_wall_s : float;
  u_alloc_b : float;
  u_minors : float;
  u_perfs : Perf.t list;
}

let sum_perf perfs f = List.fold_left (fun a p -> a + f p) 0 perfs

(* A round runs the four kernels under all four designs in turn. *)
let uarch_part ?parent ledger (i : inputs) =
  let costs = Hashtbl.create 16 and reference = Hashtbl.create 16 in
  let round () =
    (* every round starts from a compacted heap, whatever ran before *)
    Gc.compact ();
    Span.with_ ?parent "workload.uarch" (fun root ->
        List.iter
          (fun d ->
            List.iter
              (fun (k : Suite.entry) ->
                let p, c =
                  costed (fun () ->
                      Span.with_ ~parent:root ("Experiment.run." ^ dname d) (fun _ ->
                          (Experiment.run ~insns:uarch_insns d k).Experiment.perf))
                in
                let key = (dname d, k.Suite.name) in
                Hashtbl.add costs key c;
                match Hashtbl.find_opt reference key with
                | None -> Hashtbl.replace reference key p
                | Some p0 ->
                  Bstats.check ledger (Perf.counters p0 = Perf.counters p)
                    (Printf.sprintf "uarch counters of %s on %s not repeatable" (dname d)
                       k.Suite.name))
              i.kernels)
          designs)
  in
  let result () =
    List.map
      (fun d ->
        let perfs =
          List.map
            (fun (k : Suite.entry) -> Hashtbl.find reference (dname d, k.Suite.name))
            i.kernels
        in
        List.iter2
          (fun (k : Suite.entry) p ->
            say "# uarch %s %s insns %d cycles %d mispredicts %d wrong_path_packets %d" (dname d)
              k.Suite.name p.Perf.instructions p.Perf.cycles p.Perf.mispredicts
              p.Perf.wrong_path_packets)
          i.kernels perfs;
        let sum f =
          List.fold_left
            (fun a (k : Suite.entry) -> a +. f (dname d, k.Suite.name))
            0.0 i.kernels
        in
        let avg f key = f (upper_cost (Hashtbl.find_all costs key)) in
        ( dname d,
          {
            u_insns = float_of_int (sum_perf perfs (fun p -> p.Perf.instructions));
            u_wall_s = sum (avg (fun c -> c.wall_s));
            u_alloc_b = sum (avg (fun c -> c.alloc_b));
            u_minors = sum (avg (fun c -> float_of_int c.minors));
            u_perfs = perfs;
          } ))
      designs
  in
  { round; result }

(* ---- serve workload --------------------------------------------------- *)

type kind = Ping | Cold | Hit | Sweep | Probe

let kind_name = function
  | Ping -> "ping"
  | Cold -> "replay_cold"
  | Hit -> "replay_hit"
  | Sweep -> "sweep"
  | Probe -> "probe"

(* One block of one client's request mix: exact counts per kind, shuffled
   per block from the seed, so every run serves the same proportions. A
   block opens with a cold replay so a client always has an earlier request
   to repeat. No recorded serve traffic exists to take the proportions
   from: they follow the daemon's documented use (EXPERIMENTS.md: replay a
   point, repeat it from the cache, sweep windows from a warm checkpoint,
   run a probe pair, check liveness), in proportions that are an
   unverified assumption. *)
let block = [ Cold; Cold; Cold; Cold; Hit; Hit; Sweep; Sweep; Probe; Ping ]

let shuffled_block rng =
  let a = Array.of_list (List.tl block) in
  for i = Array.length a - 1 downto 1 do
    let j = Cobra_util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Cold :: Array.to_list a

(* The probe pairs the loop cycles through: 6 probes x 4 targets, less
   ladder x GSHARE12 and loop x LOOP. Those two take 100-200 ms, 10-50 times
   any other pair; at one request in 120 they would sit exactly at the p99
   rank, so the p99 would jump with each run's noise on two requests. *)
let probe_pairs =
  List.concat_map
    (fun p -> List.map (fun t -> (p, t)) [ "BIM"; "GSHARE12"; "GTAG"; "LOOP" ])
    [ "ladder"; "corr"; "loop"; "phase"; "alias"; "tag" ]
  |> List.filter (fun pair -> pair <> ("ladder", "GSHARE12") && pair <> ("loop", "LOOP"))
  |> Array.of_list

type outcome = {
  o_kind : kind;
  o_ms : float;
  o_ok : bool;
  o_events : Json.t list;
}

let events_of lines =
  List.filter_map (fun l -> match Json.of_string l with Ok j -> Some j | Error _ -> None) lines

let event_is name j = Json.member "event" j = Some (Json.String name)
let results_of evs = List.filter (event_is "result") evs
let has_error evs = List.exists (event_is "error") evs

let send ~sock ~kind ?(parent = 0) ~rid line =
  let t0 = now () in
  let evs, ok =
    Span.with_ ~parent ~rid ("Serve.request." ^ kind_name kind) (fun _ ->
        match Serve.request ~timeout_s:120.0 ~socket:sock line with
        | lines ->
          let evs = events_of lines in
          (evs, not (has_error evs))
        | exception Failure _ -> ([], false))
  in
  { o_kind = kind; o_ms = (now () -. t0) *. 1000.0; o_ok = ok; o_events = evs }

let failed_outcome kind = { o_kind = kind; o_ms = 0.0; o_ok = false; o_events = [] }

let int_field name j = match Json.member name j with Some (Json.Int n) -> n | _ -> -1
let bool_field name j = match Json.member name j with Some (Json.Bool b) -> b | _ -> false

let result_counters j =
  List.map
    (fun f -> int_field f j)
    [ "branches"; "cond_branches"; "mispredicts"; "cond_mispredicts"; "instructions" ]

type served = {
  sv_opening_s : float list;
  sv_efficiency : float list;
  sv_outcomes : outcome list;
  sv_block_rps : float list;
      (** requests per second of the whole loop during each client block *)
  sv_warm_hits : int;
  sv_warm_points : int;
  sv_evictions : int;
  sv_rss_mib : float;
}

let sweep_json ?(verify = false) ~designs ~traces ~warmup ~window ~windows () =
  let strs l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.to_string
    (Json.Obj
       [
         ("op", Json.String "sweep");
         ("designs", strs designs);
         ("traces", strs traces);
         ("warmup_branches", Json.Int warmup);
         ("window_branches", Json.Int window);
         ("windows", Json.Int windows);
         ("no_cache", Json.Bool true);
         ("verify", Json.Bool verify);
       ])

(* The serve workload in pieces that interleave with the other workloads'
   rounds: [opening] runs one cold opening sweep, [segment] the next
   [1 / serve_segments] of the closed loop, [finish] the checks. *)
type serve_part = { opening : unit -> unit; segment : unit -> unit; finish : unit -> served }

(* One closed-loop client; its state carries over from segment to segment. *)
type client = {
  c : int;
  rng : Cobra_util.Rng.t;
  mutable colds : (string * int list * string * string * int) list;
      (** line, counters, design, trace, cap of each successful cold replay *)
  mutable outs : outcome list;
  mutable block_s : float list;  (** wall time of each block *)
  mutable n_cold : int;
  mutable n_probe : int;
  mutable n_sweep : int;
}

let serve_part ?parent ledger ~requests ~seed (i : inputs) (d : daemon) =
  let sock = d.sock in
  let sweep_designs = [ "Tourney"; "TAGE-L" ] in
  let rid = Atomic.make 1 in
  let warm_hits = Atomic.make 0 and warm_points = Atomic.make 0 and evictions = Atomic.make 0 in
  let note_sweep evs =
    List.iter
      (fun j ->
        if event_is "result" j then begin
          Atomic.incr warm_points;
          if bool_field "warm_cached" j then Atomic.incr warm_hits
        end;
        if event_is "sweep_summary" j then Atomic.set evictions (int_field "warm_evictions" j))
      evs
  in
  (* opening: cold windowed sweeps, each with its own warmup length so each
     is cold in the warm LRU *)
  let opening_runs = ref [] in
  let opening () =
    let k = List.length !opening_runs in
    let line =
      sweep_json ~designs:sweep_designs ~traces:i.served ~warmup:(warmup_base + k)
        ~window:sweep_window ~windows:sweep_windows ()
    in
    let o = send ~sock ~kind:Sweep ?parent ~rid:(Atomic.fetch_and_add rid 1) line in
    let rs = results_of o.o_events in
    Bstats.check ledger
      (o.o_ok && List.length rs = 2 * serve_traces * sweep_windows)
      "opening sweep failed";
    note_sweep o.o_events;
    let busy =
      List.fold_left
        (fun a j ->
          let e = Option.bind (Json.member "elapsed_s" j) Json.to_float in
          a +. Option.value ~default:0.0 e)
        0.0 rs
    in
    opening_runs :=
      (o.o_ms /. 1000.0, busy /. (o.o_ms /. 1000.0 *. float_of_int jobs)) :: !opening_runs
  in
  (* the closed loop: [clients] clients, each waiting for its reply. Cold
     replays, loop sweeps and probes cycle through designs, traces, warm keys
     and probe pairs, so every seed pays for the same work; the seed orders
     each block and picks the hits. *)
  let cold_seq = Atomic.make 0 in
  let per_client = (requests + clients - 1) / clients in
  let blocks = (per_client + List.length block - 1) / List.length block in
  let clients =
    Array.init clients (fun c ->
        {
          c;
          rng = Cobra_util.Rng.create ~seed:((seed * 7919) + c);
          colds = [];
          outs = [];
          block_s = [];
          n_cold = 0;
          n_probe = 0;
          n_sweep = 0;
        })
  in
  let request cl ~root kind =
    let rid = Atomic.fetch_and_add rid 1 in
    let id = Printf.sprintf "c%d-%d" cl.c rid in
    match kind with
    | Ping ->
      let line = Printf.sprintf {|{"op": "ping", "id": %S}|} id in
      send ~sock ~kind ~parent:root ~rid line
    | Cold ->
      let k = cl.n_cold in
      cl.n_cold <- k + 1;
      let design = dname (List.nth designs (k mod 4)) in
      let trace = List.nth i.served (((k / 4) + cl.c) mod serve_traces) in
      (* a cap never asked before: a guaranteed miss *)
      let cap = 2000 + Atomic.fetch_and_add cold_seq 1 in
      let line =
        Printf.sprintf {|{"op": "replay", "design": %S, "trace": %S, "max_branches": %d}|} design
          trace cap
      in
      let o = send ~sock ~kind ~parent:root ~rid line in
      let ok =
        match results_of o.o_events with
        | [ r ] when not (bool_field "cached" r) ->
          cl.colds <- (line, result_counters r, design, trace, cap) :: cl.colds;
          true
        | _ -> false
      in
      { o with o_ok = o.o_ok && ok }
    | Hit -> (
      match cl.colds with
      | [] -> failed_outcome kind (* no earlier cold replay succeeded *)
      | cs ->
        let line, expect, _, _, _ = List.nth cs (Cobra_util.Rng.int cl.rng (List.length cs)) in
        let o = send ~sock ~kind ~parent:root ~rid line in
        let ok =
          match results_of o.o_events with
          | [ r ] -> bool_field "cached" r && result_counters r = expect
          | _ -> false
        in
        { o with o_ok = o.o_ok && ok })
    | Sweep ->
      (* sweeps come in threes on one warm key, cycling through the 16 keys:
         an LRU of 8 entries has evicted the key since its last visit, so
         the first sweep of three warms up and the other two restore *)
      let k = cl.n_sweep / 3 in
      cl.n_sweep <- cl.n_sweep + 1;
      let key = (k + (3 * cl.c)) mod (serve_traces * loop_warmups) in
      let trace = List.nth i.served (key mod serve_traces) in
      let warmup = loop_warmup + (key / serve_traces) in
      let line =
        sweep_json ~designs:sweep_designs ~traces:[ trace ] ~warmup ~window:loop_window
          ~windows:1 ()
      in
      let o = send ~sock ~kind ~parent:root ~rid line in
      note_sweep o.o_events;
      { o with o_ok = o.o_ok && List.length (results_of o.o_events) = 2 }
    | Probe ->
      let probe, target =
        probe_pairs.((cl.n_probe + (7 * cl.c)) mod Array.length probe_pairs)
      in
      cl.n_probe <- cl.n_probe + 1;
      let line =
        Printf.sprintf {|{"op": "probe", "probes": [%S], "targets": [%S], "seed": %d, "id": %S}|}
          probe target seed id
      in
      let o = send ~sock ~kind ~parent:root ~rid line in
      { o with o_ok = o.o_ok && List.exists (event_is "probe-summary") o.o_events }
  in
  let run_blocks cl ~root n =
    for _ = 1 to n do
      let t0 = now () in
      List.iter
        (fun kind ->
          (* an exception is a failed request, never a lost client *)
          let o = try request cl ~root kind with _ -> failed_outcome kind in
          (* the events are checked; keeping them would grow the heap the
             measuring clients allocate in *)
          cl.outs <- { o with o_events = [] } :: cl.outs)
        (shuffled_block cl.rng);
      cl.block_s <- (now () -. t0) :: cl.block_s
    done
  in
  let segments_run = ref 0 in
  let segment () =
    let k = !segments_run in
    incr segments_run;
    let n = (blocks * (k + 1) / serve_segments) - (blocks * k / serve_segments) in
    (* each segment starts from a compacted heap, whatever ran before *)
    Gc.compact ();
    Span.with_ ?parent "workload.serve" (fun root ->
        let threads =
          Array.to_list (Array.map (fun cl -> Thread.create (run_blocks cl ~root) n) clients)
        in
        List.iter Thread.join threads)
  in
  let finish () =
    Bstats.check ledger (!segments_run = serve_segments) "serve loop segments not all run";
    Array.iter
      (fun cl ->
        Bstats.check ledger
          (List.length cl.outs = blocks * List.length block)
          (Printf.sprintf "serve client %d did not finish its %d blocks" cl.c blocks))
      clients;
    let outcomes = List.concat_map (fun cl -> cl.outs) (Array.to_list clients) in
    List.iter
      (fun o -> Bstats.check ledger o.o_ok ("serve " ^ kind_name o.o_kind ^ " failed"))
      outcomes;
    (* sampled results against a direct in-process replay *)
    let colds = List.concat_map (fun cl -> cl.colds) (Array.to_list clients) in
    Bstats.check ledger (colds <> []) "no served cold replay succeeded";
    let sample_rng = Cobra_util.Rng.create ~seed in
    if colds <> [] then
      for _ = 1 to 6 do
        let _, expect, design, trace, cap =
          List.nth colds (Cobra_util.Rng.int sample_rng (List.length colds))
        in
        let d = List.find (fun d -> dname d = design) designs in
        let r = Replay.run_design ~max_branches:cap d ~path:trace in
        Bstats.check ledger (replay_counters r = expect)
          (Printf.sprintf "served %s on %s differs from direct replay" design trace)
      done;
    (* one verified windowed sweep *)
    let o =
      send ~sock ~kind:Sweep ?parent ~rid:0
        (sweep_json ~verify:true ~designs:sweep_designs ~traces:[ List.hd i.served ]
           ~warmup:warmup_base ~window:loop_window ~windows:2 ())
    in
    let rs = results_of o.o_events in
    Bstats.check ledger
      (o.o_ok && List.length rs = 4 && List.for_all (bool_field "verified") rs)
      "verified windowed sweep failed";
    {
      sv_opening_s = List.map fst !opening_runs;
      sv_efficiency = List.map snd !opening_runs;
      sv_outcomes = outcomes;
      sv_block_rps =
        List.concat_map
          (fun cl ->
            List.map
              (fun s -> float_of_int (Array.length clients * List.length block) /. s)
              cl.block_s)
          (Array.to_list clients);
      sv_warm_hits = Atomic.get warm_hits;
      sv_warm_points = Atomic.get warm_points;
      sv_evictions = Atomic.get evictions;
      sv_rss_mib = peak_rss_mib (string_of_int d.pid);
    }
  in
  { opening; segment; finish }

(* Requests per second of the closed loop: the lower quartile of the
   blocks' rates, the rate counterpart of [Bstats.upper_quartile]. *)
let serve_rps sv = Bstats.percentile sv.sv_block_rps 25.0

let latencies ?kind sv =
  List.filter_map
    (fun o -> if kind = None || kind = Some o.o_kind then Some o.o_ms else None)
    sv.sv_outcomes

(* ---- layer profile (traced runs) -------------------------------------- *)

let array_source arr =
  let i = ref 0 in
  fun () ->
    if !i < Array.length arr then begin
      let r = arr.(!i) in
      incr i;
      Some r
    end
    else None

(* Median host cost of [layer_reps] passes of [f] over [n] branches: ns,
   bytes and minor collections per branch. *)
let per_branch ?(parent = 0) ?(reps = layer_reps) name n f =
  let cs = List.init reps (fun _ -> snd (Span.with_ ~parent name (fun _ -> costed f))) in
  let c = median_cost cs in
  ( c.wall_s *. 1e9 /. float_of_int n,
    c.alloc_b /. float_of_int n,
    float_of_int c.minors *. 1000.0 /. float_of_int n )

let layer_profile ledger (i : inputs) =
  Span.with_ "layers" (fun root ->
      let recs = Array.of_list (Reader.load i.h2p) in
      let n = Array.length recs in
      (* Writer *)
      let wpath = Filename.concat (Filename.dirname i.h2p) "writer.cobt" in
      let w_ns, _, _ =
        per_branch ~parent:root "Writer.add" n (fun () ->
            Writer.with_file wpath (fun w -> Array.iter (Writer.add w) recs))
      in
      Bstats.check ledger (Gen.md5 wpath = Gen.md5 i.h2p) "re-encoded trace differs";
      metric "Writer.ns_per_branch" "ns" w_ns;
      (* Reader: decode only *)
      let r_ns, r_b, _ =
        per_branch ~parent:root "Reader.next" n (fun () ->
            Reader.fold i.h2p ~init:0 ~f:(fun a _ -> a + 1) |> ignore)
      in
      metric "Reader.ns_per_branch" "ns" r_ns;
      metric "Reader.bytes_per_branch" "B" r_b;
      (* compiled engine over the in-memory source *)
      let engine_pass name cfg make =
        per_branch ~parent:root name n (fun () ->
            let e = Engine.create cfg (make ()) in
            ignore (Replay.run_compiled ~design:name ~trace:"mem" e (array_source recs)))
      in
      let target name = Target.find_exn name in
      let always = target "ALWAYS" in
      let f_ns, f_b, f_gc =
        engine_pass "Engine.floor" always.Target.t_config always.Target.t_make
      in
      metric "Engine.floor_ns_per_branch" "ns" f_ns;
      metric "Engine.floor_bytes_per_branch" "B" f_b;
      metric "Engine.floor_minor_gcs_per_kbranch" "count" f_gc;
      List.iter
        (fun d ->
          let ns, b, gc =
            engine_pass ("Engine." ^ dname d) d.Designs.pipeline_config d.Designs.make
          in
          metric ("Engine.ns_per_branch." ^ dname d) "ns" ns;
          metric ("Engine.bytes_per_branch." ^ dname d) "B" b;
          metric ("Engine.minor_gcs_per_kbranch." ^ dname d) "count" gc)
        designs;
      List.iter
        (fun (t : Target.t) ->
          if not (List.mem t.Target.t_name [ "ALWAYS"; "BTFN"; "GSHARE6"; "GTAG0" ]) then begin
            let ns, b, _ =
              engine_pass ("component." ^ t.Target.t_name) t.Target.t_config t.Target.t_make
            in
            metric ("component." ^ t.Target.t_name ^ ".ns_per_branch") "ns" (ns -. f_ns);
            metric ("component." ^ t.Target.t_name ^ ".bytes_per_branch") "B" (b -. f_b)
          end)
        Target.components;
      (* closure against the file replay of the same trace: [layer_reps]
         back-to-back triples of decode only, in-memory engine and file
         replay, so a change in host speed hits all three of a triple
         alike; closure.D is the median of the triples' closures *)
      List.iter
        (fun d ->
          let once name f =
            let ns, _, _ = per_branch ~parent:root ~reps:1 name n f in
            ns
          in
          let closures =
            List.init layer_reps (fun _ ->
                let reader_ns =
                  once "Reader.next" (fun () ->
                      Reader.fold i.h2p ~init:0 ~f:(fun a _ -> a + 1) |> ignore)
                in
                let engine_ns =
                  once ("Engine." ^ dname d) (fun () ->
                      let e = Replay.compiled d in
                      ignore (Replay.run_compiled ~design:(dname d) ~trace:"mem" e (array_source recs)))
                in
                let file_ns =
                  once ("Replay.file." ^ dname d) (fun () ->
                      ignore (Replay.run_design ~engine:`Compiled d ~path:i.h2p))
                in
                Bstats.closure ~reader_ns ~engine_ns ~file_ns)
          in
          let c = Bstats.median closures in
          metric ("closure." ^ dname d) "ratio" c;
          metric ("closure_unexplained." ^ dname d) "ratio" (Bstats.unexplained ~closure:c))
        designs;
      (* interpreted pipeline over the in-memory source *)
      List.iter
        (fun d ->
          let ns, b, _ =
            per_branch ~parent:root ("Pipeline." ^ dname d) n (fun () ->
                let pl = Designs.pipeline d in
                ignore (Replay.run ~design:(dname d) ~trace:"mem" pl (array_source recs)))
          in
          let create_ms =
            Span.with_ ~parent:root ("Pipeline.create." ^ dname d) (fun _ ->
                Bstats.median
                  (List.init 20 (fun _ ->
                       (snd (costed (fun () -> Designs.pipeline d))).wall_s *. 1e3)))
          in
          metric ("Pipeline.ns_per_branch." ^ dname d) "ns" ns;
          metric ("Pipeline.bytes_per_branch." ^ dname d) "B" b;
          metric ("Pipeline.create_ms." ^ dname d) "ms" create_ms)
        designs;
      (* checkpoints of a warmed compiled engine *)
      List.iter
        (fun d ->
          Span.with_ ~parent:root ("Replay.checkpoint." ^ dname d) (fun _ ->
              let eng = Replay.compiled d in
              Reader.with_file i.h2p (fun rd ->
                  let ck, _ =
                    Replay.warmup_compiled ~branches:20_000 ~design:(dname d) ~trace:i.h2p eng rd
                  in
                  let times f =
                    Bstats.median (List.init 200 (fun _ -> (snd (costed f)).wall_s *. 1e6))
                  in
                  let snap =
                    times (fun () ->
                        Replay.checkpoint_compiled eng rd ~branches:ck.Replay.ck_branches
                          ~insns:ck.Replay.ck_insns)
                  in
                  let rest = times (fun () -> Replay.restore_compiled eng rd ck) in
                  metric ("Replay.snapshot_us." ^ dname d) "us" snap;
                  metric ("Replay.restore_us." ^ dname d) "us" rest)))
        [ Designs.tourney; Designs.tage_l ])

let uarch_ips u = u.u_insns /. u.u_wall_s

(* Per-design uarch layer numbers from the traced uarch pass. *)
let core_metrics uarch =
  List.iter
    (fun (d, u) ->
      metric ("Core.ns_per_insn." ^ d) "ns" (u.u_wall_s *. 1e9 /. u.u_insns);
      metric ("Core.bytes_per_insn." ^ d) "B" (u.u_alloc_b /. u.u_insns);
      metric ("Core.minor_gcs_per_kinsn." ^ d) "count" (u.u_minors *. 1000.0 /. u.u_insns);
      let sum f = float_of_int (sum_perf u.u_perfs f) in
      metric ("Core.ipc." ^ d) "insn/cycle"
        (sum (fun p -> p.Perf.instructions) /. sum (fun p -> p.Perf.cycles));
      metric ("Core.mpki." ^ d) "1/kinsn"
        (1000.0 *. sum (fun p -> p.Perf.mispredicts) /. sum (fun p -> p.Perf.instructions));
      metric ("Core.wrong_path_frac." ^ d) "frac"
        (sum (fun p -> p.Perf.wrong_path_packets) /. sum (fun p -> p.Perf.fetch_packets)))
    uarch

let serve_metrics sv =
  let ms kind = Bstats.median (latencies ~kind sv) in
  metric "Serve.ping_p50_ms" "ms" (ms Ping);
  metric "Serve.replay_cold_p50_ms" "ms" (ms Cold);
  metric "Serve.replay_hit_p50_ms" "ms" (ms Hit);
  metric "Serve.sweep_p50_ms" "ms" (ms Sweep);
  metric "Serve.probe_p50_ms" "ms" (ms Probe);
  metric "Cache.hit_overhead_ms" "ms" (ms Hit -. ms Ping);
  metric "warm.hit_ratio" "frac"
    (float_of_int sv.sv_warm_hits /. float_of_int (max 1 sv.sv_warm_points));
  metric "warm.evictions" "count" (float_of_int sv.sv_evictions);
  metric "Pool.efficiency" "frac" (Bstats.median sv.sv_efficiency)

(* ---- driver ----------------------------------------------------------- *)

let json_result ledger =
  let m =
    List.rev_map
      (fun (n, v, u) ->
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      !metrics
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (Bstats.failed ledger = 0) (Bstats.attempted ledger) (Bstats.failed ledger)
    (String.concat ", " m)

let neutralise_env () =
  (* in-process layers must not export stats, read or write the result
     cache, or append telemetry *)
  Unix.putenv "COBRA_STATS" "0";
  Unix.putenv "COBRA_CACHE" "0";
  Unix.putenv "COBRA_EVENTS" "";
  Unix.putenv "COBRA_PROGRESS" "0"

let serve_e2e sv =
  let all = latencies sv in
  List.iter
    (fun kind ->
      let l = latencies ~kind sv in
      if l <> [] then
        say "# serve %-12s n %5d  p50 %8.3f ms  p90 %8.3f ms  max %8.3f ms" (kind_name kind)
          (List.length l) (Bstats.median l) (Bstats.percentile l 90.0) (Bstats.percentile l 100.0))
    [ Ping; Hit; Cold; Sweep; Probe ];
  (* which kinds make up the tail at and beyond the p99 *)
  let p99 = Bstats.percentile all 99.0 in
  say "# serve tail at or beyond p99 (%.3f ms): %s" p99
    (String.concat ", "
       (List.map
          (fun kind ->
            Printf.sprintf "%s %d" (kind_name kind)
              (List.length (List.filter (fun ms -> ms >= p99) (latencies ~kind sv))))
          [ Ping; Hit; Cold; Sweep; Probe ]));
  metric "serve_rps" "1/s" (serve_rps sv);
  metric "serve_p50_ms" "ms" (Bstats.median all);
  metric "serve_p99_ms" "ms" (Bstats.percentile all 99.0);
  metric "sweep_s" "s" (Bstats.upper_quartile sv.sv_opening_s)

let run args =
  neutralise_env ();
  let work = Printf.sprintf "cobench/_work/%d" (Unix.getpid ()) in
  let ledger = Bstats.ledger () in
  say "# cobench workload %s seed %d seconds %.0f trace %d" args.workload args.seed args.seconds
    (if args.traced then 1 else 0);
  let cleanup () =
    kill_all_daemons ();
    rm_rf work;
    try Unix.rmdir (Filename.dirname work) with Unix.Unix_error _ -> ()
  in
  (* a run stopped from outside still takes its daemons and files with it *)
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             cleanup ();
             exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  Fun.protect ~finally:cleanup
    (fun () ->
      rm_rf work;
      mkdir_p work;
      if args.traced then Span.enable ();
      let i, daemon, setup_s = setup ledger ~seed:args.seed ~cobra:args.cobra ~work in
      (* the named workload gets more work in end-to-end runs; a traced run
         measures every part twice and profiles every layer, so it runs
         half the base rounds to stay well inside its time limit *)
      let named w = w = args.workload && not args.traced in
      let scaled w ~base ~per_s =
        if named w then max base (int_of_float (args.seconds *. per_s)) else base
      in
      let replay_rounds =
        scaled "replay" ~base:replay_rounds ~per_s:replay_rounds_per_s
      in
      let requests =
        scaled "serve" ~base:serve_requests ~per_s:serve_requests_per_s
      in
      let finish_serve daemon (part : serve_part) =
        let sv = part.finish () in
        stop_daemon daemon;
        Bstats.check ledger
          (Bstats.supported_percentile (List.length (latencies sv)) = Some 99.0)
          "too few serve requests for a p99";
        sv
      in
      if not args.traced then begin
        let replay = replay_part ledger i and uarch = uarch_part ledger i in
        let serve = serve_part ledger ~requests ~seed:args.seed i daemon in
        interleave
          [
            (replay_rounds, replay.round);
            (uarch_rounds, uarch.round);
            (opening_sweeps, serve.opening);
            (serve_segments, serve.segment);
          ];
        let replay = replay.result () and uarch = uarch.result () in
        let sv = finish_serve daemon serve in
        metric "setup_s" "s" setup_s;
        let own = peak_rss_mib "self" in
        say "# peak rss: benchmark %.1f MiB, serve daemon %.1f MiB" own sv.sv_rss_mib;
        metric "heap_peak_mb" "MiB" (own +. sv.sv_rss_mib);
        List.iter (fun (d, v) -> metric ("replay_brps." ^ d) "1/s" v) replay;
        List.iter
          (fun (d, u) -> metric ("uarch_ips." ^ d) "1/s" (uarch_ips u))
          uarch;
        serve_e2e sv
      end
      else begin
        (* each part untraced, then traced: the difference is the tracing
           overhead; the traced passes feed the layer metrics *)
        let overhead = Hashtbl.create 3 in
        let twice name rate f =
          Span.disable ();
          let a = f None in
          Span.enable ();
          let b = Span.with_ ("traced." ^ name) (fun id -> f (Some id)) in
          Hashtbl.replace overhead name ((rate a /. rate b) -. 1.0);
          b
        in
        let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
        let alone n (part : _ rounds) =
          interleave [ (n, part.round) ];
          part.result ()
        in
        let _ =
          twice "replay"
            (fun r -> mean (List.map snd r))
            (fun parent -> alone (replay_rounds / 2) (replay_part ?parent ledger i))
        in
        let uarch =
          twice "uarch"
            (fun u -> mean (List.map (fun (_, u) -> uarch_ips u) u))
            (fun parent -> alone (uarch_rounds / 2) (uarch_part ?parent ledger i))
        in
        let first = ref (Some daemon) in
        let sv =
          twice "serve"
            serve_rps
            (fun parent ->
              let d =
                match !first with
                | Some d ->
                  first := None;
                  d
                | None -> start_daemon ~cobra:args.cobra ~dir:(Filename.concat work "daemon-traced")
              in
              let part = serve_part ?parent ledger ~requests ~seed:args.seed i d in
              interleave [ (opening_sweeps, part.opening); (serve_segments, part.segment) ];
              finish_serve d part)
        in
        layer_profile ledger i;
        Span.disable ();
        core_metrics uarch;
        serve_metrics sv;
        List.iter
          (fun w -> metric ("trace_overhead_frac." ^ w) "frac" (Hashtbl.find overhead w))
          parts;
        let spans = Span.all () in
        mkdir_p "cobench/_out";
        let path = Printf.sprintf "cobench/_out/spans-%s-%d.jsonl" args.workload args.seed in
        Span.write path spans;
        say "# %d spans written to %s; self time by span name:" (List.length spans) path;
        List.iter
          (fun (name, n, total, self) ->
            say "#   %-36s n=%-5d total %9.3f s  self %9.3f s" name n total self)
          (Span.self_times spans)
      end;
      List.iter
        (fun (n, v, _) ->
          Bstats.check ledger (Float.is_finite v) ("metric " ^ n ^ " is not a number"))
        !metrics;
      say "# failed_frac %.6f (%d of %d operations and checks)" (Bstats.failed_frac ledger)
        (Bstats.failed ledger) (Bstats.attempted ledger);
      List.iter (fun r -> say "# FAILED: %s" r) (Bstats.reasons ledger);
      print_endline (json_result ledger);
      Bstats.failed ledger = 0)

let () =
  let args = parse_args () in
  match run args with
  | true -> exit 0
  | false -> exit 1
  | exception e ->
    Printf.eprintf "cobench: %s\n%!" (Printexc.to_string e);
    exit 2
