module Bits = Cobra_util.Bits

type t = {
  bits : int;
  mutable base_value : Bits.t;
  mutable pending : bool list list; (* oldest packet first *)
  mutable cached : Bits.t option;
}

let create ~bits =
  if bits < 1 then invalid_arg "Ghist_provider.create: bits < 1";
  { bits; base_value = Bits.zero bits; pending = []; cached = None }

let width t = t.bits
let base t = t.base_value

let value t =
  match t.cached with
  | Some v -> v
  | None ->
    let v =
      List.fold_left
        (fun acc packet_bits -> List.fold_left Bits.shift_in_lsb acc packet_bits)
        t.base_value t.pending
    in
    t.cached <- Some v;
    v

let invalidate t = t.cached <- None

let push_pending t bits =
  t.pending <- t.pending @ [ bits ];
  invalidate t

let replace_pending t ~depth bits =
  if depth < 0 || depth >= List.length t.pending then
    invalid_arg "Ghist_provider.replace_pending: depth out of range";
  t.pending <- List.mapi (fun i b -> if i = depth then bits else b) t.pending;
  invalidate t

let drop_pending_from t depth =
  t.pending <- List.filteri (fun i _ -> i < depth) t.pending;
  invalidate t

let commit_oldest t =
  match t.pending with
  | [] -> invalid_arg "Ghist_provider.commit_oldest: nothing pending"
  | oldest :: rest ->
    t.base_value <- List.fold_left Bits.shift_in_lsb t.base_value oldest;
    t.pending <- rest;
    invalidate t

let pending_count t = List.length t.pending

let shift_base t b =
  t.base_value <- Bits.shift_in_lsb t.base_value b;
  invalidate t

let restore t snapshot =
  if Bits.width snapshot <> t.bits then
    invalid_arg "Ghist_provider.restore: snapshot width mismatch";
  t.base_value <- snapshot;
  t.pending <- [];
  invalidate t

let storage t = Storage.make ~flop_bits:t.bits ()
