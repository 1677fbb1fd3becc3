let check_bits bits =
  if bits < 1 || bits > 30 then invalid_arg "Counter: bits out of [1,30]"

let max_value ~bits =
  check_bits bits;
  (1 lsl bits) - 1

let weakly_not_taken ~bits =
  check_bits bits;
  (1 lsl (bits - 1)) - 1

let weakly_taken ~bits =
  check_bits bits;
  1 lsl (bits - 1)

let is_taken ~bits v = v >= weakly_taken ~bits

let confidence ~bits v =
  let mid = weakly_taken ~bits in
  if v >= mid then v - mid else mid - 1 - v

let increment ~bits v = Int.min (max_value ~bits) (v + 1)
let decrement ~bits v = ignore (check_bits bits); Int.max 0 (v - 1)

let update ~bits v ~taken = if taken then increment ~bits v else decrement ~bits v

let signed_min ~bits =
  check_bits bits;
  -(1 lsl (bits - 1))

let signed_max ~bits =
  check_bits bits;
  (1 lsl (bits - 1)) - 1

let update_signed ~bits v ~dir =
  if dir > 0 then Int.min (signed_max ~bits) (v + 1)
  else if dir < 0 then Int.max (signed_min ~bits) (v - 1)
  else v

let is_valid ~bits v = v >= 0 && v <= max_value ~bits
