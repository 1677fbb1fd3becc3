module Bits = Cobra_util.Bits
module Rng = Cobra_util.Rng
module Text = Cobra_util.Text_render
module Designs = Cobra_eval.Designs
open Cobra

type verdict = {
  v_check : string;
  v_subject : string;
  v_pass : bool;
  v_detail : string;
}

let pass ~check ~subject detail =
  { v_check = check; v_subject = subject; v_pass = true; v_detail = detail }

let fail ~check ~subject detail =
  { v_check = check; v_subject = subject; v_pass = false; v_detail = detail }

let all_pass vs = List.for_all (fun v -> v.v_pass) vs
let failures vs = List.filter (fun v -> not v.v_pass) vs

(* --- pretty-printing helpers -------------------------------------------------- *)

let kind_name = function
  | Types.Cond -> "cond"
  | Types.Jump -> "jump"
  | Types.Call -> "call"
  | Types.Ret -> "ret"
  | Types.Ind -> "ind"

let show_opinion (o : Types.opinion) =
  let field name show = function
    | None -> []
    | Some v -> [ Printf.sprintf "%s=%s" name (show v) ]
  in
  let parts =
    field "br" string_of_bool o.Types.o_branch
    @ field "kind" kind_name o.Types.o_kind
    @ field "taken" string_of_bool o.Types.o_taken
    @ field "target" (Printf.sprintf "0x%x") o.Types.o_target
  in
  if parts = [] then "-" else String.concat "," parts

let show_prediction (p : Types.prediction) =
  "[" ^ String.concat " | " (Array.to_list (Array.map show_opinion p)) ^ "]"

(* --- per-component lockstep ---------------------------------------------------- *)

(* Every zoo instance is built 4-wide; the fuzz scripts match. *)
let zoo_fetch_width = 4

exception Mismatch of string

let lockstep ?(length = 300) ?(shapes = Fuzz.all_shapes) ~seed (packed : Golden.packed) =
  let subject = Golden.packed_name packed in
  let check = "lockstep" in
  let (Golden.P { make_real; _ }) = packed in
  let events = ref 0 in
  let run_shape shape =
    (* fresh state per shape on both sides: each script stands alone *)
    let inst = Golden.instantiate packed in
    let real = make_real () in
    let sc = { Fuzz.seed; shape; length } in
    let packets = Fuzz.packets sc ~arity:inst.Golden.i_arity ~fetch_width:zoo_fetch_width in
    let where i what =
      Printf.sprintf "shape=%s packet=%d/%d seed=%d: %s (replay: cobra conform --seed %d)"
        (Fuzz.shape_name shape) i length seed what seed
    in
    List.iteri
      (fun i (pk : Fuzz.packet) ->
        incr events;
        let gp, gmeta = inst.Golden.i_predict pk.Fuzz.pk_ctx ~pred_in:pk.Fuzz.pk_pred_in in
        (* Predict twice, into a metadata buffer of all ones and one of all
           zeros: a pipeline reuses the buffer across packets, so any bit
           the component leaves unwritten would carry an earlier packet's
           field. Predict reads the tables only, so the second call sees
           the same state. *)
        let rp = Types.no_prediction ~width:zoo_fetch_width in
        let rmeta = Bits.init real.Component.meta_bits (fun _ -> true) in
        real.Component.predict pk.Fuzz.pk_ctx ~pred_in:pk.Fuzz.pk_pred_in ~out:rp ~meta:rmeta;
        let rp0 = Types.no_prediction ~width:zoo_fetch_width in
        let rmeta0 = Bits.zero real.Component.meta_bits in
        real.Component.predict pk.Fuzz.pk_ctx ~pred_in:pk.Fuzz.pk_pred_in ~out:rp0 ~meta:rmeta0;
        if not (Bits.equal rmeta rmeta0 && Types.equal_prediction rp rp0) then
          raise
            (Mismatch
               (where i
                  (Printf.sprintf
                     "predict depends on the buffers' earlier contents: metadata %s into ones, \
                      %s into zeros"
                     (Bits.to_string rmeta) (Bits.to_string rmeta0))));
        if Bits.width gmeta <> real.Component.meta_bits then
          raise
            (Mismatch
               (where i
                  (Printf.sprintf "golden metadata width %d <> declared meta_bits %d"
                     (Bits.width gmeta) real.Component.meta_bits)));
        if not (Types.equal_prediction gp rp) then
          raise
            (Mismatch
               (where i
                  (Printf.sprintf "prediction mismatch: golden %s vs real %s"
                     (show_prediction gp) (show_prediction rp))));
        if not (Bits.equal gmeta rmeta) then
          raise
            (Mismatch
               (where i
                  (Printf.sprintf "metadata mismatch: golden %s vs real %s"
                     (Bits.to_string gmeta) (Bits.to_string rmeta))));
        let gev culprit =
          {
            Component.ctx = pk.Fuzz.pk_ctx;
            meta = gmeta;
            slots = pk.Fuzz.pk_slots;
            culprit;
          }
        in
        let rev culprit = { (gev culprit) with Component.meta = rmeta } in
        (match pk.Fuzz.pk_path with
        | Fuzz.Commit ->
          inst.Golden.i_fire (gev None);
          real.Component.fire (rev None);
          inst.Golden.i_update (gev None);
          real.Component.update (rev None)
        | Fuzz.Wrong_path ->
          inst.Golden.i_fire (gev None);
          real.Component.fire (rev None);
          inst.Golden.i_repair (gev None);
          real.Component.repair (rev None)
        | Fuzz.Storm c ->
          inst.Golden.i_fire (gev None);
          real.Component.fire (rev None);
          inst.Golden.i_mispredict (gev (Some c));
          real.Component.mispredict (rev (Some c));
          inst.Golden.i_update (gev None);
          real.Component.update (rev None));
        if i land 31 = 0 then
          match inst.Golden.i_invariant () with
          | Ok () -> ()
          | Error e -> raise (Mismatch (where i ("invariant violated: " ^ e))))
      packets
  in
  match List.iter run_shape shapes with
  | () ->
    pass ~check ~subject
      (Printf.sprintf "ok (%d packets across %d shapes)" !events (List.length shapes))
  | exception Mismatch m -> fail ~check ~subject m

(* --- storage accounting -------------------------------------------------------- *)

let storage_accounting (packed : Golden.packed) =
  let subject = Golden.packed_name packed in
  let check = "storage" in
  let (Golden.P { make_real; storage_bits; _ }) = packed in
  let real = make_real () in
  let actual = Storage.total_bits real.Component.storage in
  if actual = storage_bits then pass ~check ~subject (Printf.sprintf "ok (%d bits)" actual)
  else
    fail ~check ~subject
      (Printf.sprintf "component declares %d storage bits, independent formula gives %d"
         actual storage_bits)

(* --- replay-protocol step driver ------------------------------------------------ *)

let drive pl (b : Fuzz.branch) =
  let wrong =
    Pipeline.reference_step pl ~pc:b.Fuzz.br_pc ~kind:b.Fuzz.br_kind ~taken:b.Fuzz.br_taken
      ~target:b.Fuzz.br_target
  in
  (Pipeline.last_taken_pred pl, wrong)

(* --- twin-design differential --------------------------------------------------- *)

let twin ?(length = 400) ~seed (design : Designs.t) =
  let check = "twin" in
  let subject = design.Designs.name in
  match Golden.twin_design design with
  | exception Invalid_argument m -> fail ~check ~subject m
  | golden ->
    let p_real = Designs.pipeline design in
    let p_gold = Designs.pipeline golden in
    let bs = Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length } in
    let bad = ref None in
    List.iteri
      (fun i b ->
        if !bad = None then begin
          let tp_r, w_r = drive p_real b in
          let tp_g, w_g = drive p_gold b in
          if tp_r <> tp_g || w_r <> w_g then
            bad :=
              Some
                (Printf.sprintf
                   "branch %d/%d (pc=0x%x %s taken=%b) seed=%d: real taken_pred=%b wrong=%b, \
                    golden taken_pred=%b wrong=%b (replay: cobra conform --seed %d)"
                   i length b.Fuzz.br_pc (kind_name b.Fuzz.br_kind) b.Fuzz.br_taken seed tp_r
                   w_r tp_g w_g seed)
        end)
      bs;
    (match !bad with
    | None -> pass ~check ~subject (Printf.sprintf "ok (%d branches, golden twin agrees)" length)
    | Some m -> fail ~check ~subject m)

(* --- trace-replay engine vs the step driver and the golden twin ------------------ *)

let replay_twin ?(length = 400) ~seed (design : Designs.t) =
  let check = "replay" in
  let subject = design.Designs.name in
  match Golden.twin_design design with
  | exception Invalid_argument m -> fail ~check ~subject m
  | golden ->
    let bs = Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length } in
    let records =
      List.map
        (fun (b : Fuzz.branch) ->
          {
            Cobra_trace_replay.Btrace.b_pc = b.Fuzz.br_pc;
            b_taken = b.Fuzz.br_taken;
            b_kind = b.Fuzz.br_kind;
            b_target = b.Fuzz.br_target;
            b_gap = 0;
          })
        bs
    in
    (* the replay engine over the real design, observed per branch *)
    let observed = ref [] in
    let remaining = ref records in
    let source () =
      match !remaining with
      | [] -> None
      | r :: rest ->
        remaining := rest;
        Some r
    in
    let res =
      Cobra_trace_replay.Replay.run
        ~observe:(fun _ ~taken_pred ~wrong -> observed := (taken_pred, wrong) :: !observed)
        ~design:subject ~trace:"fuzz" (Designs.pipeline design) source
    in
    let replay_obs = Array.of_list (List.rev !observed) in
    (* the conformance step driver over a fresh real pipeline and the golden twin *)
    let p_ref = Designs.pipeline design in
    let p_gold = Designs.pipeline golden in
    (* arrays, not lists: per-branch List.nth here made the comparison loop
       quadratic in the stream length *)
    let ref_obs = Array.of_list (List.map (drive p_ref) bs) in
    let gold_obs = Array.of_list (List.map (drive p_gold) bs) in
    let n_replay = Array.length replay_obs in
    if n_replay <> length
       || Array.length ref_obs <> length
       || Array.length gold_obs <> length
    then
      fail ~check ~subject
        (Printf.sprintf
           "observation streams disagree on length: %d fuzzed branches, replay engine \
            observed %d, step driver %d, golden twin %d"
           length n_replay (Array.length ref_obs) (Array.length gold_obs))
    else begin
    let bad = ref None in
    List.iteri
      (fun i (b : Fuzz.branch) ->
        if !bad = None then begin
          let tp_y, w_y = replay_obs.(i) in
          let tp_r, w_r = ref_obs.(i) in
          let tp_g, w_g = gold_obs.(i) in
          if tp_y <> tp_r || w_y <> w_r then
            bad :=
              Some
                (Printf.sprintf
                   "branch %d/%d (pc=0x%x %s taken=%b) seed=%d: replay engine taken_pred=%b \
                    wrong=%b, step driver taken_pred=%b wrong=%b"
                   i length b.Fuzz.br_pc (kind_name b.Fuzz.br_kind) b.Fuzz.br_taken seed tp_y
                   w_y tp_r w_r)
          else if tp_y <> tp_g || w_y <> w_g then
            bad :=
              Some
                (Printf.sprintf
                   "branch %d/%d (pc=0x%x %s taken=%b) seed=%d: replay engine taken_pred=%b \
                    wrong=%b, golden twin taken_pred=%b wrong=%b"
                   i length b.Fuzz.br_pc (kind_name b.Fuzz.br_kind) b.Fuzz.br_taken seed tp_y
                   w_y tp_g w_g)
        end)
      bs;
    let total_wrong =
      Array.fold_left (fun acc (_, w) -> if w then acc + 1 else acc) 0 replay_obs
    in
    match !bad with
    | None ->
      if res.Cobra_trace_replay.Replay.mispredicts <> total_wrong then
        fail ~check ~subject
          (Printf.sprintf "replay counted %d mispredicts but observed %d wrong branches"
             res.Cobra_trace_replay.Replay.mispredicts total_wrong)
      else if res.Cobra_trace_replay.Replay.branches <> length then
        fail ~check ~subject
          (Printf.sprintf "replay consumed %d branches of %d"
             res.Cobra_trace_replay.Replay.branches length)
      else
        pass ~check ~subject
          (Printf.sprintf "ok (%d branches, replay = step driver = golden twin)" length)
    | Some m -> fail ~check ~subject m
    end

(* --- metamorphic: repair restores pre-speculation state ------------------------- *)

let repair_restore ?(length = 400) ~seed (design : Designs.t) =
  let check = "repair" in
  let subject = design.Designs.name in
  let p_clean = Designs.pipeline design in
  let p_dirty = Designs.pipeline design in
  let width = design.Designs.pipeline_config.Pipeline.fetch_width in
  let rng = Rng.create ~seed:(seed lxor 0x0b5a5eed) in
  let bs = Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length } in
  let excursions = ref 0 and repaired = ref 0 in
  let bad = ref None in
  List.iteri
    (fun i b ->
      if !bad = None then begin
        (* pending-only excursion: wrong-path packets predicted then squashed;
           their speculative history contributions must unwind completely *)
        if Rng.chance rng 0.3 then begin
          incr excursions;
          for _ = 1 to 1 + Rng.int rng 3 do
            ignore (Pipeline.predict p_dirty ~pc:(0x8000 + (16 * Rng.int rng 64)) ~max_len:1)
          done;
          Pipeline.squash_all_pending p_dirty
        end;
        let tp_c, _ = drive p_clean b in
        (* dirty side, driven by hand so a fired wrong-path youngster can be
           injected ahead of a misprediction and unwound by the repair walk *)
        let tok = Pipeline.predict p_dirty ~pc:b.Fuzz.br_pc ~max_len:1 in
        let stages = Pipeline.stages p_dirty tok in
        let final = (stages.(Array.length stages - 1)).(0) in
        let tp_d = Pipeline.predicted_taken ~kind:b.Fuzz.br_kind final in
        if tp_c <> tp_d then
          bad :=
            Some
              (Printf.sprintf
                 "branch %d/%d (pc=0x%x) seed=%d: clean predicts taken=%b, excursion-disturbed \
                  pipeline predicts taken=%b (replay: cobra conform --seed %d)"
                 i length b.Fuzz.br_pc seed tp_c tp_d seed)
        else begin
          let wrong =
            Pipeline.mispredicted ~kind:b.Fuzz.br_kind ~taken:b.Fuzz.br_taken
              ~target:b.Fuzz.br_target final
          in
          let inject = wrong && Rng.chance rng 0.5 in
          let wtok =
            if inject then Some (Pipeline.predict p_dirty ~pc:(b.Fuzz.br_pc + 0x40) ~max_len:1)
            else None
          in
          let slots = Array.make width Types.no_branch in
          slots.(0) <-
            Types.resolved_branch ~kind:b.Fuzz.br_kind ~taken:tp_d
              ~target:(if tp_d then b.Fuzz.br_target else 0);
          let seq = Pipeline.fire p_dirty tok ~slots ~packet_len:1 in
          (match wtok with
          | None -> ()
          | Some wtok ->
            incr repaired;
            let wstages = Pipeline.stages p_dirty wtok in
            let wfinal = (wstages.(Array.length wstages - 1)).(0) in
            let wslots = Array.make width Types.no_branch in
            (match wfinal.Types.o_taken with
            | Some t ->
              wslots.(0) <-
                Types.resolved_branch ~kind:Types.Cond ~taken:t
                  ~target:
                    (if t then Option.value wfinal.Types.o_target ~default:(b.Fuzz.br_pc + 0x80)
                     else 0)
            | None -> ());
            (* fired: components speculatively updated for a packet the
               imminent mispredict must walk back *)
            ignore (Pipeline.fire p_dirty wtok ~slots:wslots ~packet_len:1));
          let actual =
            Types.resolved_branch ~kind:b.Fuzz.br_kind ~taken:b.Fuzz.br_taken
              ~target:b.Fuzz.br_target
          in
          if wrong then Pipeline.mispredict p_dirty ~seq ~slot:0 actual
          else Pipeline.resolve p_dirty ~seq ~slot:0 actual;
          Pipeline.commit p_dirty
        end
      end)
    bs;
  match !bad with
  | None ->
    pass ~check ~subject
      (Printf.sprintf "ok (%d branches, %d squashed excursions, %d repair-walked packets)"
         length !excursions !repaired)
  | Some m -> fail ~check ~subject m

(* --- snapshot/restore round-trip ------------------------------------------------ *)

let snapshot_roundtrip ?(length = 400) ~seed (design : Designs.t) =
  let check = "snapshot" in
  let subject = design.Designs.name in
  let bs = Array.of_list (Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length }) in
  let half = length / 2 in
  let p = Designs.pipeline design in
  for i = 0 to half - 1 do
    ignore (drive p bs.(i))
  done;
  let slab = Pipeline.snapshot p in
  (* a fresh pipeline restored from the slab must shadow the original
     bit-for-bit over the rest of the stream *)
  let p2 = Designs.pipeline design in
  Pipeline.restore p2 slab;
  let bad = ref None in
  for i = half to length - 1 do
    if !bad = None then begin
      let b = bs.(i) in
      let tp_a, w_a = drive p b in
      let tp_b, w_b = drive p2 b in
      if tp_a <> tp_b || w_a <> w_b then
        bad :=
          Some
            (Printf.sprintf
               "branch %d/%d (pc=0x%x %s taken=%b) seed=%d: original taken_pred=%b wrong=%b, \
                restored twin taken_pred=%b wrong=%b"
               i length b.Fuzz.br_pc (kind_name b.Fuzz.br_kind) b.Fuzz.br_taken seed tp_a
               w_a tp_b w_b)
    end
  done;
  if !bad = None && not (Cobra_util.Slab.equal (Pipeline.snapshot p) (Pipeline.snapshot p2))
  then
    bad :=
      Some
        (Printf.sprintf
           "seed=%d: final snapshots differ — the restored pipeline's state diverged from \
            the original despite identical predictions"
           seed);
  match !bad with
  | None ->
    pass ~check ~subject
      (Printf.sprintf "ok (%d cells, restored twin tracks original over %d branches)"
         (Cobra_util.Slab.length slab) (length - half))
  | Some m -> fail ~check ~subject m

(* --- replay-mode lockstep: closed form vs reference transaction ------------------ *)

(* Per-branch lockstep of two pipelines of the same (cfg, topology), fresh
   per shape, one driven by the reference transaction and one by its closed
   form: taken_pred, wrong, every component's metadata word, and the final
   snapshot slab must all be bit-identical. *)
let compiled_lockstep ~check ~subject ~shapes ~length ~seed ~cfg make_topo =
  let events = ref 0 in
  let run_shape shape =
    let reference = Pipeline.create cfg (make_topo ()) in
    let fast = Pipeline.create cfg (make_topo ()) in
    let bs = Fuzz.branches { Fuzz.seed; shape; length } in
    let where i what =
      Printf.sprintf "shape=%s branch=%d/%d seed=%d: %s (replay: cobra conform --seed %d)"
        (Fuzz.shape_name shape) i length seed what seed
    in
    List.iteri
      (fun i (b : Fuzz.branch) ->
        incr events;
        let tp_r, w_r = drive reference b in
        let w_f =
          Pipeline.replay_step fast ~pc:b.Fuzz.br_pc ~kind:b.Fuzz.br_kind
            ~taken:b.Fuzz.br_taken ~target:b.Fuzz.br_target
        in
        let tp_f = Pipeline.last_taken_pred fast in
        if tp_r <> tp_f || w_r <> w_f then
          raise
            (Mismatch
               (where i
                  (Printf.sprintf
                     "reference taken_pred=%b wrong=%b, replay mode taken_pred=%b wrong=%b"
                     tp_r w_r tp_f w_f)));
        let metas_r = Pipeline.last_metas reference and metas_f = Pipeline.last_metas fast in
        if Array.length metas_r <> Array.length metas_f then
          raise
            (Mismatch
               (where i
                  (Printf.sprintf "metadata arity: reference %d words, replay mode %d"
                     (Array.length metas_r) (Array.length metas_f))));
        Array.iteri
          (fun id m ->
            if not (Bits.equal m metas_f.(id)) then
              raise
                (Mismatch
                   (where i
                      (Printf.sprintf
                         "metadata mismatch at component %d: reference %s, replay mode %s"
                         id (Bits.to_string m) (Bits.to_string metas_f.(id))))))
          metas_r)
      bs;
    if not (Cobra_util.Slab.equal (Pipeline.snapshot reference) (Pipeline.snapshot fast)) then
      raise
        (Mismatch
           (Printf.sprintf
              "shape=%s seed=%d: final snapshot slabs differ between the reference \
               transaction and replay mode (replay: cobra conform --seed %d)"
              (Fuzz.shape_name shape) seed seed))
  in
  match List.iter run_shape shapes with
  | () ->
    pass ~check ~subject
      (Printf.sprintf "ok (%d branches across %d shapes, replay mode = reference)" !events
         (List.length shapes))
  | exception Mismatch m -> fail ~check ~subject m

let compiled_twin ?(length = 300) ?(shapes = Fuzz.all_shapes) ~seed (design : Designs.t) =
  compiled_lockstep ~check:"compiled_twin" ~subject:design.Designs.name ~shapes ~length
    ~seed ~cfg:design.Designs.pipeline_config (fun () -> design.Designs.make ())

(* Single-component topologies over the whole zoo: each component compiles
   alone (selectors get static leaves to arbitrate, so they still see real
   incoming predictions). *)
let compiled_zoo ?(length = 300) ?(shapes = Fuzz.all_shapes) ~seed (packed : Golden.packed) =
  let subject = Golden.packed_name packed in
  let (Golden.P { model; make_real; _ }) = packed in
  let static_sub taken =
    Cobra_components.Static_pred.always
      ~name:(if taken then "conform-static-t" else "conform-static-nt")
      ~taken ~fetch_width:zoo_fetch_width ()
  in
  let make_topo () =
    if model.Golden.arity <= 1 then Topology.node (make_real ())
    else
      Topology.arbitrate (make_real ())
        (List.init model.Golden.arity (fun i -> Topology.node (static_sub (i land 1 = 1))))
  in
  let cfg = { Pipeline.default_config with Pipeline.fetch_width = zoo_fetch_width } in
  compiled_lockstep ~check:"compiled_zoo" ~subject ~shapes ~length ~seed ~cfg make_topo

(* --- Table-I storage pins ------------------------------------------------------- *)

let table1_pins () =
  let pins = [ ("Tourney", 209584, "6.3"); ("B2", 207520, "6.5"); ("TAGE-L", 403024, "29.4") ] in
  List.concat_map
    (fun (name, total_bits, dir_kb) ->
      let d = Designs.find name in
      let pl = Designs.pipeline d in
      let actual = Storage.total_bits (Pipeline.storage pl) in
      let bits_v =
        if actual = total_bits then
          pass ~check:"table1" ~subject:name (Printf.sprintf "ok (total %d bits)" actual)
        else
          fail ~check:"table1" ~subject:name
            (Printf.sprintf "pipeline storage %d bits, Table-I pin expects %d" actual total_bits)
      in
      let actual_kb = Printf.sprintf "%.1f" (Designs.direction_state_kb d) in
      let kb_v =
        if String.equal actual_kb dir_kb then
          pass ~check:"table1" ~subject:(name ^ " dir-state")
            (Printf.sprintf "ok (%s KB)" actual_kb)
        else
          fail ~check:"table1" ~subject:(name ^ " dir-state")
            (Printf.sprintf "direction state %s KB, Table-I pin expects %s" actual_kb dir_kb)
      in
      [ bits_v; kb_v ])
    pins

(* --- top level ------------------------------------------------------------------ *)

let run_all ?(length = 300) ?(shapes = Fuzz.all_shapes) ~seed () =
  let zoo = Golden.zoo () in
  let designs = Designs.all @ [ Designs.gshare_only ] in
  List.concat_map (fun p -> [ lockstep ~length ~shapes ~seed p; storage_accounting p ]) zoo
  @ List.map (twin ~length ~seed) designs
  @ List.map (replay_twin ~length ~seed) designs
  @ List.map (repair_restore ~length ~seed) Designs.all
  @ List.map (snapshot_roundtrip ~length ~seed) designs
  @ List.map (compiled_zoo ~length ~shapes ~seed) zoo
  @ List.map (compiled_twin ~length ~shapes ~seed) designs
  @ table1_pins ()

let render vs =
  let rows =
    List.map
      (fun v ->
        [
          v.v_check;
          v.v_subject;
          (if v.v_pass then "PASS" else "FAIL");
          (if String.length v.v_detail > 72 then String.sub v.v_detail 0 69 ^ "..."
           else v.v_detail);
        ])
      vs
  in
  let nfail = List.length (failures vs) in
  let title =
    if nfail = 0 then Printf.sprintf "conformance: %d checks, all passing" (List.length vs)
    else Printf.sprintf "conformance: %d checks, %d FAILING" (List.length vs) nfail
  in
  Text.table ~title ~header:[ "check"; "subject"; "verdict"; "detail" ] ~rows ()

let counterexample vs =
  match failures vs with
  | [] -> None
  | fs ->
    let blocks =
      List.map
        (fun v -> Printf.sprintf "%s/%s:\n  %s" v.v_check v.v_subject v.v_detail)
        fs
    in
    Some (String.concat "\n\n" blocks ^ "\n")
