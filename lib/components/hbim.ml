module Counter = Cobra_util.Counter
module Bitpack = Cobra_util.Bitpack
module Bitops = Cobra_util.Bitops
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  entries : int;
  counter_bits : int;
  indexing : Indexing.t;
  fetch_width : int;
}

let default ~name ~indexing =
  { name; latency = 2; entries = 2048; counter_bits = 2; indexing; fetch_width = 4 }

(* Metadata layout: per slot, the counter value read at predict time. *)
let meta_layout cfg = List.init cfg.fetch_width (fun _ -> cfg.counter_bits)

let make_inspectable cfg =
  if not (Bitops.is_power_of_two cfg.entries) then
    invalid_arg (cfg.name ^ ": entries must be a power of two");
  let index_bits = Bitops.log2_exact cfg.entries in
  (* slab layout: one counter per cell, entry i at cell i *)
  let state = Slab.create cfg.entries in
  Slab.fill state (Counter.weakly_not_taken ~bits:cfg.counter_bits);
  let slot_index ctx ~slot = Indexing.index cfg.indexing ctx ~slot ~bits:index_bits in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let packer = Bitpack.Packer.create ~width:meta_bits in
  let cursor = Bitpack.Cursor.create () in
  let predict ctx ~pred_in ~(out : Types.prediction) ~meta =
    let base = match pred_in with [| p |] -> p | _ -> invalid_arg (cfg.name ^ ": one predict_in") in
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to cfg.fetch_width - 1 do
      if slot < live then begin
        let c = Slab.unsafe_get state (slot_index ctx ~slot) in
        Bitpack.Packer.add packer c ~bits:cfg.counter_bits;
        (* never override a known always-taken direction (jump/call/ret) *)
        if not (Types.unconditional_in base slot) then
          out.(slot) <-
            Types.direction_hint ~taken:(Counter.is_taken ~bits:cfg.counter_bits c)
      end
      else
        (* dead slot: keep the declared meta layout *)
        Bitpack.Packer.add packer 0 ~bits:cfg.counter_bits
    done;
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    Bitpack.Cursor.reset cursor ev.meta;
    for slot = 0 to cfg.fetch_width - 1 do
      let c = Bitpack.Cursor.take cursor ~bits:cfg.counter_bits in
      let (r : Types.resolved) = ev.slots.(slot) in
      if Types.cond_branch r then
        (* Write back the updated predict-time counter: no second read. *)
        Slab.unsafe_set state (slot_index ev.ctx ~slot)
          (Counter.update ~bits:cfg.counter_bits c ~taken:r.r_taken)
    done
  in
  let storage =
    Storage.make ~sram_bits:(cfg.entries * cfg.counter_bits)
      ~logic_gates:(cfg.fetch_width * 40) ()
  in
  let component =
    Component.make ~name:cfg.name ~family:Component.Counter_table ~latency:cfg.latency
      ~meta_bits ~storage ~state ~predict ~update ()
  in
  (component, fun ctx ~slot -> Slab.get state (slot_index ctx ~slot))

let make cfg = fst (make_inspectable cfg)
