module Bits = Cobra_util.Bits

type t = {
  bits : int;
  base_value : Bits.t;  (* written in place: one register for the whole run *)
  mutable pending : bool list list; (* oldest packet first *)
  mutable cached : Bits.t option;  (* never [base_value] itself *)
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
    (* no bit pending: still a vector of its own *)
    let v = if v == t.base_value then Bits.copy v else v in
    t.cached <- Some v;
    v

(* Checked: a store into the field is a write barrier. *)
let invalidate t = match t.cached with None -> () | Some _ -> t.cached <- None

let shift_base_bits t ~count v =
  Bits.shift_in_bits_in_place t.base_value ~count v;
  invalidate t

let shift_base t b = shift_base_bits t ~count:1 (if b then 1 else 0)

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
    List.iter (shift_base t) oldest;
    t.pending <- rest;
    invalidate t

let pending_count t = List.length t.pending

let restore t snapshot =
  if Bits.width snapshot <> t.bits then
    invalid_arg "Ghist_provider.restore: snapshot width mismatch";
  Bits.blit ~src:snapshot ~dst:t.base_value;
  t.pending <- [];
  invalidate t

let storage t = Storage.make ~flop_bits:t.bits ()
