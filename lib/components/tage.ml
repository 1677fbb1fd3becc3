module Bitpack = Cobra_util.Bitpack
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Rng = Cobra_util.Rng
module Slab = Cobra_util.Slab
open Cobra

type table_spec = { history_length : int; index_bits : int; tag_bits : int }

type config = {
  name : string;
  latency : int;
  tables : table_spec list;
  counter_bits : int;
  u_bits : int;
  u_reset_period : int;
  seed : int;
  fetch_width : int;
}

let default ~name =
  let spec h = { history_length = h; index_bits = 9; tag_bits = 9 } in
  {
    name;
    latency = 3;
    tables = List.map spec [ 4; 6; 10; 16; 26; 42; 64 ];
    counter_bits = 3;
    u_bits = 2;
    u_reset_period = 1 lsl 18;
    seed = 0xc0b7a;
    fetch_width = 4;
  }

let storage_bits cfg =
  List.fold_left
    (fun acc t -> acc + ((1 lsl t.index_bits) * (1 + t.tag_bits + cfg.counter_bits + cfg.u_bits)))
    0 cfg.tables

(* No component is ever handed this context: the fold cache's initial key. *)
let never_folded =
  Context.make ~pc:0 ~fetch_width:1 ~ghist:(Cobra_util.Bits.zero 0)
    ~lhists:[| Cobra_util.Bits.zero 0 |] ()

(* Metadata layout per slot:
   hit(1) provider(4) provider_ctr(3) alt_valid(1) alt_dir(1) provider_u(2)
   base_valid(1) base_dir(1). *)
let slot_layout cfg = [ 1; 4; cfg.counter_bits; 1; 1; cfg.u_bits; 1; 1 ]
let meta_layout cfg = List.concat_map (fun _ -> slot_layout cfg) (List.init cfg.fetch_width Fun.id)

let make cfg =
  let ntables = List.length cfg.tables in
  if ntables < 1 || ntables > 15 then invalid_arg (cfg.name ^ ": 1..15 tables supported");
  if cfg.counter_bits < 2 then invalid_arg (cfg.name ^ ": counter_bits < 2");
  let specs = Array.of_list cfg.tables in
  (* slab layout: 3 header cells — [0]=update_count, [1]=rng state low 31
     bits, [2]=rng state high 33 bits — then per-table banks at formula
     base offsets, entry i of table t at stride 4 from its base:
     [+0]=valid, [+1]=tag, [+2]=ctr, [+3]=u *)
  let tbase = Array.make ntables 0 in
  let total =
    let off = ref 3 in
    Array.iteri
      (fun t s ->
        tbase.(t) <- !off;
        off := !off + ((1 lsl s.index_bits) * 4))
      specs;
    !off
  in
  let state = Slab.create total in
  let entry_off ~table i = tbase.(table) + (4 * i) in
  (* The allocation-throttling generator's state lives in the header
     cells; [Rng.chance_in_slab] draws from it in place. *)
  let s = Rng.state (Rng.create ~seed:cfg.seed) in
  Slab.set state 1 (Int64.to_int (Int64.logand s 0x7FFFFFFFL));
  Slab.set state 2 (Int64.to_int (Int64.shift_right_logical s 31));
  let rng_chance p = Rng.chance_in_slab state ~lo:1 ~hi:2 p in
  (* Per-table bank-decorrelation constants and, per query, the folded
     global-history hashes — slot-independent, so computed once per event
     rather than per (slot, table). *)
  let bank_const =
    Array.init ntables (fun t ->
        Hashing.fold_int (Hashing.mix2 t 17) ~width:62 ~bits:specs.(t).index_bits)
  in
  (* Scratch folds, refilled at the top of each predict/update: the folds
     run once per packet, the scratch turns the per-(slot, table) lookups
     into plain array reads. When every table shares an index (and tag)
     width — the common case — all lengths fold in one batched pass over
     the history instead of one [fold_xor_sub] walk per table. *)
  let fold_idx = Array.make ntables 0 in
  let fold_tag = Array.make ntables 0 in
  let uniform_fold_idx_bits =
    Array.for_all (fun s -> s.index_bits = specs.(0).index_bits) specs
  in
  let uniform_fold_tag_bits =
    Array.for_all (fun s -> s.tag_bits = specs.(0).tag_bits) specs
  in
  (* table order sorted by history length, as the batched fold requires *)
  let by_len =
    let idx = Array.init ntables Fun.id in
    Array.sort (fun a b -> compare specs.(a).history_length specs.(b).history_length) idx;
    idx
  in
  let sorted_lens = Array.map (fun i -> specs.(i).history_length) by_len in
  let fold_scratch = Array.make ntables 0 in
  let fill_batched (ctx : Context.t) ~bits out =
    Cobra_util.Bits.fold_xor_sub_multi ctx.Context.ghist ~lens:sorted_lens bits
      ~out:fold_scratch;
    for q = 0 to ntables - 1 do
      out.(by_len.(q)) <- fold_scratch.(q)
    done
  in
  (* A packet's update/repair events carry the context predict already
     folded for: the context record and its stamp name the transaction, so
     the refill is free when no other packet was predicted in between
     (always true for single-packet hosts like trace replay). Holding the
     last record keeps it alive, so [==] cannot match a new record at a
     recycled address. *)
  let folded_ctx = ref never_folded and folded_stamp = ref 0 in
  let fill_folds_uncached (ctx : Context.t) =
    if uniform_fold_idx_bits then fill_batched ctx ~bits:specs.(0).index_bits fold_idx
    else
      for t = 0 to ntables - 1 do
        let s = specs.(t) in
        fold_idx.(t) <- Context.folded_ghist ctx ~len:s.history_length ~bits:s.index_bits
      done;
    if uniform_fold_tag_bits && uniform_fold_idx_bits
       && specs.(0).tag_bits = specs.(0).index_bits
    then Array.blit fold_idx 0 fold_tag 0 ntables
    else if uniform_fold_tag_bits then fill_batched ctx ~bits:specs.(0).tag_bits fold_tag
    else
      for t = 0 to ntables - 1 do
        let s = specs.(t) in
        fold_tag.(t) <- Context.folded_ghist ctx ~len:s.history_length ~bits:s.tag_bits
      done
  in
  let fill_folds (ctx : Context.t) =
    if ctx != !folded_ctx || ctx.Context.stamp <> !folded_stamp then begin
      folded_ctx := ctx;
      folded_stamp := ctx.Context.stamp;
      fill_folds_uncached ctx
    end
  in
  let uniform_index_bits =
    Array.for_all (fun s -> s.index_bits = specs.(0).index_bits) specs
  in
  (* PC fold per slot: an int, not a per-slot closure. When the tables share
     an index width (the common case) the fold is computed once per slot;
     otherwise [index] re-folds for the table's own width. *)
  let pc_fold (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:specs.(0).index_bits
  in
  let index ctx ~slot ~pcv ~table =
    let p =
      if uniform_index_bits then pcv
      else Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:specs.(table).index_bits
    in
    p lxor fold_idx.(table) lxor bank_const.(table)
  in
  let tag_hash (ctx : Context.t) ~slot ~table =
    let s = specs.(table) in
    Hashing.fold_int
      (Hashing.mix2
         (Hashing.pc_bits (Context.slot_pc ctx slot))
         (fold_tag.(table) + (table * 7919)))
      ~width:62 ~bits:s.tag_bits
  in
  let e_valid off = Slab.unsafe_get state off = 1 in
  let e_tag off = Slab.unsafe_get state (off + 1) in
  let e_ctr off = Slab.unsafe_get state (off + 2) in
  let e_u off = Slab.unsafe_get state (off + 3) in
  (* Entry offset on a tag hit, -1 on a miss. *)
  let lookup ctx ~slot ~pcv ~table =
    let off = entry_off ~table (index ctx ~slot ~pcv ~table) in
    if e_valid off && e_tag off = tag_hash ctx ~slot ~table then off else -1
  in
  (* Longest-history hit (provider) and the next one below it (alternate),
     as table and offset, -1 when absent: scratch cells filled per slot so
     the scan allocates nothing. *)
  let provider = ref (-1) and provider_off = ref 0 and alt_off = ref (-1) in
  let find_provider pcv ctx ~slot =
    provider := -1;
    alt_off := -1;
    let t = ref (ntables - 1) in
    while !t >= 0 && !alt_off < 0 do
      let off = lookup ctx ~slot ~pcv ~table:!t in
      if off >= 0 then
        if !provider < 0 then begin
          provider := !t;
          provider_off := off
        end
        else alt_off := off;
      decr t
    done
  in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let packer = Bitpack.Packer.create ~width:meta_bits in
  let cursor = Bitpack.Cursor.create () in
  let taken_of_ctr c = Counter.is_taken ~bits:cfg.counter_bits c in
  let add v ~bits = Bitpack.Packer.add packer v ~bits in
  let predict (ctx : Context.t) ~pred_in ~(out : Types.prediction) ~meta =
    let base =
      match pred_in with
      | [| p |] -> p
      | _ -> invalid_arg (cfg.name ^ ": expected exactly one predict_in")
    in
    fill_folds ctx;
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to cfg.fetch_width - 1 do
      if slot >= live then begin
        (* dead slot: keep the declared meta layout *)
        add 0 ~bits:1;
        add 0 ~bits:4;
        add 0 ~bits:cfg.counter_bits;
        add 0 ~bits:1;
        add 0 ~bits:1;
        add 0 ~bits:cfg.u_bits;
        add 0 ~bits:1;
        add 0 ~bits:1
      end
      else begin
        let pcv = pc_fold ctx ~slot in
        find_provider pcv ctx ~slot;
        let base_valid, base_dir =
          match base.(slot).Types.o_taken with
          | Some d -> (1, if d then 1 else 0)
          | None -> (0, 0)
        in
        if !provider >= 0 then begin
          let off = !provider_off in
          add 1 ~bits:1;
          add !provider ~bits:4;
          add (e_ctr off) ~bits:cfg.counter_bits;
          if !alt_off >= 0 then begin
            add 1 ~bits:1;
            add (if taken_of_ctr (e_ctr !alt_off) then 1 else 0) ~bits:1
          end
          else begin
            add 0 ~bits:1;
            add 0 ~bits:1
          end;
          add (e_u off) ~bits:cfg.u_bits;
          add base_valid ~bits:1;
          add base_dir ~bits:1;
          if not (Types.unconditional_in base slot) then
            out.(slot) <- Types.direction_hint ~taken:(taken_of_ctr (e_ctr off))
        end
        else begin
          add 0 ~bits:1;
          add 0 ~bits:4;
          add 0 ~bits:cfg.counter_bits;
          add 0 ~bits:1;
          add 0 ~bits:1;
          add 0 ~bits:cfg.u_bits;
          add base_valid ~bits:1;
          add base_dir ~bits:1
        end
      end
    done;
    Bitpack.Packer.finish_into packer meta
  in
  let graceful_u_decay () =
    Array.iteri
      (fun t s ->
        for i = 0 to (1 lsl s.index_bits) - 1 do
          let off = entry_off ~table:t i in
          Slab.unsafe_set state (off + 3) (Slab.unsafe_get state (off + 3) lsr 1)
        done)
      specs
  in
  let allocate pcv ev ~slot ~above ~taken =
    (* Find a non-useful entry in a longer-history table; throttle with the
       PRNG so allocations spread across tables (Seznec 2011). If every
       candidate is useful, age them all instead. *)
    let first = ref (-1) and next = ref (-1) in
    for t = above to ntables - 1 do
      let off = entry_off ~table:t (index ev.Component.ctx ~slot ~pcv ~table:t) in
      if (not (e_valid off)) || e_u off = 0 then
        if !first < 0 then first := t else if !next < 0 then next := t
    done;
    if !first < 0 then
      for t = above to ntables - 1 do
        let off = entry_off ~table:t (index ev.Component.ctx ~slot ~pcv ~table:t) in
        Slab.unsafe_set state (off + 3) (Int.max 0 (e_u off - 1))
      done
    else begin
      (* Prefer the shortest candidate but sometimes skip ahead. *)
      let chosen = if !next >= 0 && rng_chance 0.33 then !next else !first in
      let off = entry_off ~table:chosen (index ev.Component.ctx ~slot ~pcv ~table:chosen) in
      Slab.unsafe_set state off 1;
      Slab.unsafe_set state (off + 1) (tag_hash ev.Component.ctx ~slot ~table:chosen);
      Slab.unsafe_set state (off + 2)
        (if taken then Counter.weakly_taken ~bits:cfg.counter_bits
         else Counter.weakly_not_taken ~bits:cfg.counter_bits);
      Slab.unsafe_set state (off + 3) 0
    end
  in
  let update (ev : Component.event) =
    Bitpack.Cursor.reset cursor ev.meta;
    (* The scratch folds are only needed (and only filled) when the packet
       holds a conditional branch; the stamped context makes the refill a
       comparison, not a recomputation. *)
    let folds_filled = ref false in
    for slot = 0 to cfg.fetch_width - 1 do
      let hit = Bitpack.Cursor.take cursor ~bits:1 in
      let provider = Bitpack.Cursor.take cursor ~bits:4 in
      let pctr = Bitpack.Cursor.take cursor ~bits:cfg.counter_bits in
      let alt_valid = Bitpack.Cursor.take cursor ~bits:1 in
      let alt_dir = Bitpack.Cursor.take cursor ~bits:1 in
      let pu = Bitpack.Cursor.take cursor ~bits:cfg.u_bits in
      let base_valid = Bitpack.Cursor.take cursor ~bits:1 in
      let base_dir = Bitpack.Cursor.take cursor ~bits:1 in
      let (r : Types.resolved) = ev.slots.(slot) in
      if Types.cond_branch r then begin
        Slab.set state 0 (Slab.get state 0 + 1);
        if Slab.get state 0 mod cfg.u_reset_period = 0 then graceful_u_decay ();
        if not !folds_filled then begin
          fill_folds ev.ctx;
          folds_filled := true
        end;
        let taken = r.r_taken in
        let pcv = pc_fold ev.ctx ~slot in
        (* the effective prediction: the provider's, else the base's;
           wrong when there was none *)
        let wrong =
          if hit = 1 then begin
            let pdir = taken_of_ctr pctr in
            let off = entry_off ~table:provider (index ev.ctx ~slot ~pcv ~table:provider) in
            if e_valid off && e_tag off = tag_hash ev.ctx ~slot ~table:provider then begin
              Slab.unsafe_set state (off + 2) (Counter.update ~bits:cfg.counter_bits pctr ~taken);
              (* Usefulness trains when provider and altpred disagreed. *)
              let alt_known = alt_valid = 1 || base_valid = 1 in
              let alt = if alt_valid = 1 then alt_dir = 1 else base_dir = 1 in
              if alt_known && alt <> pdir then
                Slab.unsafe_set state (off + 3)
                  (if pdir = taken then Int.min (Counter.max_value ~bits:cfg.u_bits) (pu + 1)
                   else Int.max 0 (pu - 1))
            end;
            pdir <> taken
          end
          else if base_valid = 1 then (base_dir = 1) <> taken
          else true
        in
        (* Allocate on a wrong effective prediction, in tables above the
           provider (or anywhere when nothing hit). *)
        let can_extend = hit = 0 || provider < ntables - 1 in
        if wrong && can_extend then
          allocate pcv ev ~slot ~above:(if hit = 1 then provider + 1 else 0) ~taken
      end
    done
  in
  let storage =
    Storage.make ~sram_bits:(storage_bits cfg)
      ~logic_gates:(cfg.fetch_width * ntables * 120)
      ()
  in
  Component.make ~name:cfg.name ~family:Component.Tage ~latency:cfg.latency ~meta_bits ~storage
    ~state ~predict ~update ()
