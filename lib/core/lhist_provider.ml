module Bits = Cobra_util.Bits
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* One flat limb table: entry [i]'s history occupies [limbs] cells from
   [i * limbs], shifted in place. The last PC's cell position is memoized:
   a replayed branch reads and then pushes the same entry. *)
type t = {
  index_bits : int;
  hist_bits : int;
  limbs : int;
  table : int array;
  mutable memo_pc : int;
  mutable memo_pos : int;
}

let create ~entries ~bits =
  if not (is_power_of_two entries) then
    invalid_arg "Lhist_provider.create: entries must be a power of two";
  if bits < 1 then invalid_arg "Lhist_provider.create: bits < 1";
  let index_bits =
    (* log2 of a power of two *)
    let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
    log2 0 entries
  in
  let limbs = Bits.limbs_for bits in
  (* pc 0 indexes entry 0 *)
  { index_bits; hist_bits = bits; limbs; table = Array.make (entries * limbs) 0; memo_pc = 0; memo_pos = 0 }

let entries t = 1 lsl t.index_bits
let bits t = t.hist_bits
let index t ~pc = Hashing.pc_index ~pc ~bits:t.index_bits

(* First cell of [pc]'s entry. *)
let pos t ~pc =
  if pc <> t.memo_pc then begin
    t.memo_pc <- pc;
    t.memo_pos <- index t ~pc * t.limbs
  end;
  t.memo_pos

let read t ~pc =
  let v = Bits.zero t.hist_bits in
  Bits.blit_from_limbs t.table ~pos:(pos t ~pc) v;
  v

let read_into t ~pc dst =
  if Bits.width dst <> t.hist_bits then invalid_arg "Lhist_provider.read_into: width mismatch";
  Bits.blit_from_limbs t.table ~pos:(pos t ~pc) dst

let push t ~pc b =
  Bits.shift_limbs ~src:t.table ~dst:t.table ~pos:(pos t ~pc) ~width:t.hist_bits ~count:1
    (if b then 1 else 0)

let write_slab t slab ~pos =
  Array.iteri (fun k v -> Slab.set slab (pos + k) v) t.table;
  pos + Array.length t.table

let read_slab t slab ~pos =
  (* clear what lies above the width in each entry's top 62-bit limb *)
  let top_bits = t.hist_bits - ((t.limbs - 1) * 62) in
  let top_mask = if top_bits >= 62 then -1 else (1 lsl top_bits) - 1 in
  for k = 0 to Array.length t.table - 1 do
    let v = Slab.get slab (pos + k) in
    t.table.(k) <- (if k mod t.limbs = t.limbs - 1 then v land top_mask else v)
  done;
  pos + Array.length t.table

let restore t ~pc snapshot =
  if Bits.width snapshot <> t.hist_bits then
    invalid_arg "Lhist_provider.restore: snapshot width mismatch";
  Bits.blit_to_limbs snapshot t.table ~pos:(pos t ~pc)

let storage t = Storage.make ~sram_bits:(entries t * t.hist_bits) ()
