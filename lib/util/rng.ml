type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }
let copy t = { state = t.state }
let state t = t.state

let next t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let bits62 t = Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL)

let int t bound =
  if bound < 1 then invalid_arg "Rng.int: bound < 1";
  bits62 t mod bound

let bool t = Int64.logand (next t) 1L = 1L
let float t bound = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0 *. bound
let chance t p = float t 1.0 < p

(* [chance] on a state held in two slab cells, with every int64 in one
   function body so ocamlopt keeps them unboxed: no allocation. *)
let chance_in_slab slab ~lo ~hi p =
  let open Int64 in
  let s = logor (of_int (Slab.get slab lo)) (shift_left (of_int (Slab.get slab hi)) 31) in
  let s = add s 0x9E3779B97F4A7C15L in
  Slab.set slab lo (to_int (logand s 0x7FFFFFFFL));
  Slab.set slab hi (to_int (shift_right_logical s 31));
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_float (shift_right_logical z 11) /. 9007199254740992.0 < p
