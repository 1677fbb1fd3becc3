let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2_exact n =
  if not (is_power_of_two n) then invalid_arg "Bitops.log2_exact: not a power of two";
  let rec loop acc n = if n <= 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

(* [n] is threaded through: a loop capturing it would allocate a closure
   per call. *)
let rec bits_needed_loop n acc v = if v >= n then acc else bits_needed_loop n (acc + 1) (v lsl 1)

let bits_needed n =
  if n < 1 then invalid_arg "Bitops.bits_needed: n < 1";
  bits_needed_loop n 0 1
