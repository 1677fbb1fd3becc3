module Bitpack = Cobra_util.Bitpack
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  table_bits : int;
  counter_bits : int;
  history_lengths : int list;
  threshold : int;
  fetch_width : int;
}

let default ~name =
  {
    name;
    latency = 3;
    table_bits = 10;
    counter_bits = 4;
    history_lengths = [ 0; 2; 4; 8; 16; 32 ];
    threshold = 6;
    fetch_width = 4;
  }

let storage_bits cfg =
  List.length cfg.history_lengths * (1 lsl cfg.table_bits) * cfg.counter_bits

(* Metadata: per slot, each table's counter biased into unsigned range. *)
let slot_layout cfg = List.map (fun _ -> cfg.counter_bits + 1) cfg.history_lengths
let meta_layout cfg = List.concat_map (fun _ -> slot_layout cfg) (List.init cfg.fetch_width Fun.id)

let make cfg =
  let ntables = List.length cfg.history_lengths in
  if ntables < 1 then invalid_arg (cfg.name ^ ": no tables");
  let lengths = Array.of_list cfg.history_lengths in
  (* slab layout: table t's entry i (signed counter) at cell t*2^table_bits + i *)
  let bank_size = 1 lsl cfg.table_bits in
  let state = Slab.create (ntables * bank_size) in
  let bias = 1 lsl cfg.counter_bits in
  let index (ctx : Context.t) ~slot ~table =
    let pc_part = Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.table_bits in
    if lengths.(table) = 0 then pc_part
    else
      pc_part
      lxor Hashing.folded_history ctx.ghist ~len:lengths.(table) ~bits:cfg.table_bits
      lxor Hashing.fold_int (Hashing.mix2 table 41) ~width:62 ~bits:cfg.table_bits
  in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let packer = Bitpack.Packer.create ~width:meta_bits in
  let cursor = Bitpack.Cursor.create () in
  let counters = Array.make ntables 0 in
  let predict (ctx : Context.t) ~pred_in ~(out : Types.prediction) ~meta =
    let base = match pred_in with [| p |] -> p | _ -> invalid_arg (cfg.name ^ ": one predict_in") in
    for slot = 0 to cfg.fetch_width - 1 do
      let sum = ref 0 in
      (* ascending table order: update pairs field [t] with bank [t] *)
      for t = 0 to ntables - 1 do
        let c = Slab.get state ((t * bank_size) + index ctx ~slot ~table:t) in
        sum := !sum + c;
        Bitpack.Packer.add packer (c + bias) ~bits:(cfg.counter_bits + 1)
      done;
      if not (Types.unconditional_in base slot) then
        out.(slot) <- Types.direction_hint ~taken:(!sum >= 0)
    done;
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    Bitpack.Cursor.reset cursor ev.meta;
    for slot = 0 to cfg.fetch_width - 1 do
      let sum = ref 0 in
      for t = 0 to ntables - 1 do
        let c = Bitpack.Cursor.take cursor ~bits:(cfg.counter_bits + 1) - bias in
        counters.(t) <- c;
        sum := !sum + c
      done;
      let (r : Types.resolved) = ev.slots.(slot) in
      if Types.cond_branch r then begin
        let predicted = !sum >= 0 in
        if predicted <> r.r_taken || abs !sum <= cfg.threshold then
          for t = 0 to ntables - 1 do
            Slab.set state
              ((t * bank_size) + index ev.ctx ~slot ~table:t)
              (Counter.update_signed ~bits:cfg.counter_bits counters.(t)
                 ~dir:(if r.r_taken then 1 else -1))
          done
      end
    done
  in
  Component.make ~name:cfg.name ~family:Component.Perceptron ~latency:cfg.latency ~meta_bits
    ~storage:(Storage.make ~sram_bits:(storage_bits cfg) ())
    ~state ~predict ~update ()
