module Bitpack = Cobra_util.Bitpack
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  index_bits : int;
  counter_bits : int;
  history_length : int;
  threshold : int;
  fetch_width : int;
}

let default ~name =
  {
    name;
    latency = 3;
    index_bits = 10;
    counter_bits = 6;
    history_length = 8;
    threshold = 12;
    fetch_width = 4;
  }

(* Metadata per slot: incoming-direction validity and value, and the
   (biased) agreement counter read at predict. *)
let slot_layout cfg = [ 1; 1; cfg.counter_bits + 1 ]
let meta_layout cfg = List.concat_map (fun _ -> slot_layout cfg) (List.init cfg.fetch_width Fun.id)

let make cfg =
  (* slab layout: one signed agreement counter per cell (cells carry the
     signed value directly; the +bias encoding exists only in metadata) *)
  let state = Slab.create (1 lsl cfg.index_bits) in
  let bias = 1 lsl cfg.counter_bits in
  let index_mask = (1 lsl cfg.index_bits) - 1 in
  let index (ctx : Context.t) ~slot ~incoming =
    (* [Hashing.combine] of the three parts, without its argument list *)
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.index_bits land index_mask
    lxor (Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:cfg.index_bits
         land index_mask)
    lxor ((if incoming then 1 else 0) land index_mask)
  in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let packer = Bitpack.Packer.create ~width:meta_bits in
  let cursor = Bitpack.Cursor.create () in
  let predict (ctx : Context.t) ~pred_in ~(out : Types.prediction) ~meta =
    let base =
      match pred_in with
      | [| p |] -> p
      | _ -> invalid_arg (cfg.name ^ ": expected exactly one predict_in")
    in
    for slot = 0 to cfg.fetch_width - 1 do
      match base.(slot).Types.o_taken with
      | None ->
        Bitpack.Packer.add packer 0 ~bits:1;
        Bitpack.Packer.add packer 0 ~bits:1;
        Bitpack.Packer.add packer bias ~bits:(cfg.counter_bits + 1)
      | Some incoming ->
        let c = Slab.get state (index ctx ~slot ~incoming) in
        Bitpack.Packer.add packer 1 ~bits:1;
        Bitpack.Packer.add packer (if incoming then 1 else 0) ~bits:1;
        Bitpack.Packer.add packer (c + bias) ~bits:(cfg.counter_bits + 1);
        if -c > cfg.threshold then
          (* the counter has saturated against the incoming prediction *)
          out.(slot) <- Types.direction_hint ~taken:(not incoming)
    done;
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    Bitpack.Cursor.reset cursor ev.meta;
    for slot = 0 to cfg.fetch_width - 1 do
      let valid = Bitpack.Cursor.take cursor ~bits:1 in
      let inc = Bitpack.Cursor.take cursor ~bits:1 in
      let biased = Bitpack.Cursor.take cursor ~bits:(cfg.counter_bits + 1) in
      let (r : Types.resolved) = ev.slots.(slot) in
      if valid = 1 && Types.cond_branch r then begin
        let incoming = inc = 1 in
        let c = biased - bias in
        let dir = if incoming = r.r_taken then 1 else -1 in
        Slab.set state (index ev.ctx ~slot ~incoming)
          (Counter.update_signed ~bits:(cfg.counter_bits + 1) c ~dir)
      end
    done
  in
  Component.make ~name:cfg.name ~family:Component.Corrector ~latency:cfg.latency ~meta_bits
    ~storage:
      (Storage.make ~sram_bits:((1 lsl cfg.index_bits) * (cfg.counter_bits + 1)) ())
    ~state ~predict ~update ()
