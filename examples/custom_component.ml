(* Implementing a new sub-component against the COBRA interface.

   This is the paper's core productivity claim: a predictor idea is written
   once against the component interface (predict + the event handlers +
   a declared metadata width) and the composer takes care of pipelining,
   history management, repair and integration.

   Here we write a GShare direction predictor from scratch — it is NOT part
   of the library build below on purpose; everything it needs is public
   API — and compose it over the library BTB, then compare against a plain
   bimodal table on a history-correlated workload.

   Run with: dune exec examples/custom_component.exe *)

open Cobra
module Bitpack = Cobra_util.Bitpack
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing

(* --- a user-defined GShare component ------------------------------------- *)

let make_gshare ~name ~index_bits ~history_length ~fetch_width =
  let entries = 1 lsl index_bits in
  let table = Array.make entries (Counter.weakly_not_taken ~bits:2) in
  let index (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:index_bits
    lxor Hashing.folded_history ctx.Context.ghist ~len:history_length ~bits:index_bits
  in
  (* metadata: the counters read at predict time (2 bits per slot), so the
     update never re-reads the table. A packer and a cursor, made once,
     write and read it without allocating. *)
  let meta_bits = 2 * fetch_width in
  let packer = Bitpack.Packer.create ~width:meta_bits in
  let cursor = Bitpack.Cursor.create () in
  (* [out] arrives all-silent and [meta] is the pipeline's buffer: write
     an opinion per slot and seal the metadata into the buffer *)
  let predict ctx ~pred_in:_ ~(out : Types.prediction) ~meta =
    for slot = 0 to fetch_width - 1 do
      let c = table.(index ctx ~slot) in
      Bitpack.Packer.add packer c ~bits:2;
      out.(slot) <- Types.direction_hint ~taken:(Counter.is_taken ~bits:2 c)
    done;
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    Bitpack.Cursor.reset cursor ev.Component.meta;
    for slot = 0 to fetch_width - 1 do
      let c = Bitpack.Cursor.take cursor ~bits:2 in
      let r = ev.Component.slots.(slot) in
      if Types.cond_branch r then
        table.(index ev.Component.ctx ~slot) <- Counter.update ~bits:2 c ~taken:r.Types.r_taken
    done
  in
  Component.make ~name ~family:Component.Counter_table ~latency:2 ~meta_bits
    ~storage:(Storage.make ~sram_bits:(entries * 2) ())
    ~predict ~update ()

(* --- evaluate it ------------------------------------------------------------ *)

let evaluate name topology =
  let pipeline = Pipeline.create Pipeline.default_config topology in
  let core =
    Cobra_uarch.Core.create Cobra_uarch.Config.default pipeline
      (Cobra_workloads.Kernels.correlated ())
  in
  let perf = Cobra_uarch.Core.run core ~max_insns:80_000 in
  Format.printf "%-18s accuracy %.2f%%  MPKI %.2f  IPC %.3f@." name
    (100.0 *. Cobra_uarch.Perf.branch_accuracy perf)
    (Cobra_uarch.Perf.mpki perf) (Cobra_uarch.Perf.ipc perf)

let () =
  let open Cobra_components in
  Format.printf "correlated-branch kernel (second branch repeats the first):@.";
  let bim_topo =
    Topology.over
      (Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc))
      (Topology.node (Btb.make (Btb.default ~name:"BTB")))
  in
  evaluate "BIM_2 > BTB_2" bim_topo;
  let gshare_topo =
    Topology.over
      (make_gshare ~name:"GSHARE" ~index_bits:12 ~history_length:12 ~fetch_width:4)
      (Topology.node (Btb.make (Btb.default ~name:"BTB")))
  in
  evaluate "GSHARE_2 > BTB_2" gshare_topo;
  Format.printf
    "@.GShare resolves the correlated branch through global history; the@.\
     bimodal table cannot exceed ~75%% on this kernel.@."
