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
  counter_bits : int;
  history_length : int;
  fetch_width : int;
}

let default ~name =
  { name; latency = 3; entries = 1024; counter_bits = 2; history_length = 12; fetch_width = 4 }

(* Metadata: per slot, validity and direction of each sub-prediction plus
   the chooser counter read at predict time. *)
let meta_layout cfg =
  List.concat_map (fun _ -> [ 1; 1; 1; 1; cfg.counter_bits ]) (List.init cfg.fetch_width Fun.id)

(* Returns the field itself: re-building [Some taken] would allocate a
   fresh option per slot per predict. *)
let dir_of (op : Types.opinion) = op.o_taken

let make cfg =
  if not (Bitops.is_power_of_two cfg.entries) then
    invalid_arg (cfg.name ^ ": entries must be a power of two");
  let index_bits = Bitops.log2_exact cfg.entries in
  (* slab layout: one chooser counter per cell, entry i at cell i *)
  let state = Slab.create cfg.entries in
  Slab.fill state (Counter.weakly_not_taken ~bits:cfg.counter_bits);
  let index (ctx : Context.t) ~slot =
    (* both operands are already masked to [index_bits], so a plain xor
       matches [Hashing.combine] without building its argument list *)
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:index_bits
    lxor Context.folded_ghist ctx ~len:cfg.history_length ~bits:index_bits
  in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let packer = Bitpack.Packer.create ~width:meta_bits in
  let cursor = Bitpack.Cursor.create () in
  let predict (ctx : Context.t) ~pred_in ~(out : Types.prediction) ~meta =
    if Array.length pred_in <> 2 then
      invalid_arg
        (Printf.sprintf "%s: tournament selector needs exactly 2 predict_in, got %d" cfg.name
           (Array.length pred_in));
    let p0 = pred_in.(0) and p1 = pred_in.(1) in
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to cfg.fetch_width - 1 do
      if slot >= live then begin
        (* dead slot: keep the declared meta layout *)
        Bitpack.Packer.add packer 0 ~bits:1;
        Bitpack.Packer.add packer 0 ~bits:1;
        Bitpack.Packer.add packer 0 ~bits:1;
        Bitpack.Packer.add packer 0 ~bits:1;
        Bitpack.Packer.add packer 0 ~bits:cfg.counter_bits
      end
      else begin
        let d0 = dir_of p0.(slot) and d1 = dir_of p1.(slot) in
        let ctr = Slab.unsafe_get state (index ctx ~slot) in
        let bit = function Some true -> 1 | _ -> 0 in
        let valid = function Some _ -> 1 | None -> 0 in
        Bitpack.Packer.add packer (valid d0) ~bits:1;
        Bitpack.Packer.add packer (bit d0) ~bits:1;
        Bitpack.Packer.add packer (valid d1) ~bits:1;
        Bitpack.Packer.add packer (bit d1) ~bits:1;
        Bitpack.Packer.add packer ctr ~bits:cfg.counter_bits;
        let chosen =
          if Counter.is_taken ~bits:cfg.counter_bits ctr then
            (match d1 with Some _ -> d1 | None -> d0)
          else match d0 with Some _ -> d0 | None -> d1
        in
        match chosen with
        | Some taken when not (Types.unconditional_in p0 slot) ->
          out.(slot) <- Types.direction_hint ~taken
        | Some _ | None -> ()
      end
    done;
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    Bitpack.Cursor.reset cursor ev.meta;
    for slot = 0 to cfg.fetch_width - 1 do
      let v0 = Bitpack.Cursor.take cursor ~bits:1 in
      let b0 = Bitpack.Cursor.take cursor ~bits:1 in
      let v1 = Bitpack.Cursor.take cursor ~bits:1 in
      let b1 = Bitpack.Cursor.take cursor ~bits:1 in
      let ctr = Bitpack.Cursor.take cursor ~bits:cfg.counter_bits in
      let (r : Types.resolved) = ev.slots.(slot) in
      (* Train the chooser only when the sub-predictors disagreed. *)
      if
        r.r_is_branch
        && (match r.r_kind with Types.Cond -> true | _ -> false)
        && v0 = 1 && v1 = 1 && b0 <> b1
      then begin
        let actual = if r.r_taken then 1 else 0 in
        let toward_p1 = b1 = actual in
        Slab.unsafe_set state (index ev.ctx ~slot)
          (Counter.update ~bits:cfg.counter_bits ctr ~taken:toward_p1)
      end
    done
  in
  let storage =
    Storage.make ~sram_bits:(cfg.entries * cfg.counter_bits)
      ~logic_gates:(cfg.fetch_width * 50) ()
  in
  Component.make ~name:cfg.name ~family:Component.Selector ~latency:cfg.latency ~meta_bits
    ~storage ~state ~predict ~update ()
