module Bitpack = Cobra_util.Bitpack
module Bitops = Cobra_util.Bitops
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  entries : int;
  tag_bits : int;
  counter_bits : int;
  history_length : int;
  fetch_width : int;
}

let default ~name =
  {
    name;
    latency = 3;
    entries = 2048;
    tag_bits = 7;
    counter_bits = 2;
    history_length = 16;
    fetch_width = 4;
  }

(* Metadata: per slot, hit flag + the counter read at predict time. *)
let meta_layout cfg =
  List.concat_map (fun _ -> [ 1; cfg.counter_bits ]) (List.init cfg.fetch_width Fun.id)

let make cfg =
  if not (Bitops.is_power_of_two cfg.entries) then
    invalid_arg (cfg.name ^ ": entries must be a power of two");
  let index_bits = Bitops.log2_exact cfg.entries in
  (* slab layout: entry i at stride 3 — [3i]=valid, [3i+1]=tag, [3i+2]=ctr *)
  let state = Slab.create (cfg.entries * 3) in
  let e_valid i = Slab.unsafe_get state (3 * i) = 1 in
  let e_tag i = Slab.unsafe_get state ((3 * i) + 1) in
  let e_ctr i = Slab.unsafe_get state ((3 * i) + 2) in
  let index_mask = (1 lsl index_bits) - 1 in
  let index (ctx : Context.t) ~slot =
    (* [Hashing.combine] of the two parts, without its argument list *)
    let pc = Context.slot_pc ctx slot in
    Hashing.pc_index ~pc ~bits:index_bits land index_mask
    lxor (Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:index_bits
         land index_mask)
  in
  let tag (ctx : Context.t) ~slot =
    let pc = Context.slot_pc ctx slot in
    Hashing.fold_int
      (Hashing.mix2 (Hashing.pc_bits pc)
         (Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:cfg.tag_bits))
      ~width:62 ~bits:cfg.tag_bits
  in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let packer = Bitpack.Packer.create ~width:meta_bits in
  let cursor = Bitpack.Cursor.create () in
  let predict (ctx : Context.t) ~pred_in ~(out : Types.prediction) ~meta =
    let base = match pred_in with [| p |] -> p | _ -> invalid_arg (cfg.name ^ ": one predict_in") in
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to cfg.fetch_width - 1 do
      let i = if slot < live then index ctx ~slot else 0 in
      if
        slot < live
        && (not (Types.unconditional_in base slot))
        && e_valid i
        && e_tag i = tag ctx ~slot
      then begin
        Bitpack.Packer.add packer 1 ~bits:1;
        Bitpack.Packer.add packer (e_ctr i) ~bits:cfg.counter_bits;
        out.(slot) <- Types.direction_hint ~taken:(Counter.is_taken ~bits:cfg.counter_bits (e_ctr i))
      end
      else begin
        (* a miss, or a dead slot keeping the declared meta layout *)
        Bitpack.Packer.add packer 0 ~bits:1;
        Bitpack.Packer.add packer 0 ~bits:cfg.counter_bits
      end
    done;
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    Bitpack.Cursor.reset cursor ev.meta;
    for slot = 0 to cfg.fetch_width - 1 do
      let hit = Bitpack.Cursor.take cursor ~bits:1 in
      let ctr = Bitpack.Cursor.take cursor ~bits:cfg.counter_bits in
      let (r : Types.resolved) = ev.slots.(slot) in
      if Types.cond_branch r then begin
        let i = index ev.ctx ~slot in
        if hit = 1 then
          Slab.unsafe_set state ((3 * i) + 2)
            (Counter.update ~bits:cfg.counter_bits ctr ~taken:r.r_taken)
        else begin
          (* Allocate on miss, seeding the counter weakly in the observed
             direction. *)
          Slab.unsafe_set state (3 * i) 1;
          Slab.unsafe_set state ((3 * i) + 1) (tag ev.ctx ~slot);
          Slab.unsafe_set state ((3 * i) + 2)
            (if r.r_taken then Counter.weakly_taken ~bits:cfg.counter_bits
             else Counter.weakly_not_taken ~bits:cfg.counter_bits)
        end
      end
    done
  in
  let entry_bits = 1 + cfg.tag_bits + cfg.counter_bits in
  let storage =
    Storage.make ~sram_bits:(cfg.entries * entry_bits) ~logic_gates:(cfg.fetch_width * 80) ()
  in
  Component.make ~name:cfg.name ~family:Component.Tagged_table ~latency:cfg.latency ~meta_bits
    ~storage ~state ~predict ~update ()
