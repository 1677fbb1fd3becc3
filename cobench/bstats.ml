(* Pure measurement arithmetic of the benchmark: order statistics, the
   supported-percentile rule, failure accounting and the closure check.
   Kept free of I/O so test_cobench.ml can pin every rule. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it (the epsilon absorbs rounding in p * n / 100). *)
let rank n p =
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))))

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Bstats.percentile: no samples"
  | _ ->
    let a = sorted xs in
    a.(rank (Array.length a) p - 1)

let median xs = percentile xs 50.0

(* The statistic for times of repeated identical work. On a shared host
   whose speed flips between a contended mode and faster stretches, the
   contended mode is the steady one: the median or the mean of a run's
   samples moves with the share of fast stretches the run happened to get,
   the upper quartile stays in the contended mode until that share passes
   a quarter. *)
let upper_quartile xs = percentile xs 75.0

(* Samples strictly above the nearest-rank [p]th percentile of [n]. *)
let beyond n p = n - rank n p

(* A tail percentile is only reported when at least ten samples lie beyond
   it; this picks the highest candidate that qualifies, or [None] when even
   the median lacks the support. *)
let candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let supported_percentile n = List.find_opt (fun p -> beyond n p >= 10) candidates

(* Failure accounting: every measured operation and every correctness check
   is one attempt; a failed operation or a mismatching check is one
   failure. Shared by the client threads of the serve loop, hence the
   atomics. *)
type ledger = { attempted : int Atomic.t; failed : int Atomic.t; reasons : string list Atomic.t }

let ledger () = { attempted = Atomic.make 0; failed = Atomic.make 0; reasons = Atomic.make [] }

let rec push_reason l r =
  let old = Atomic.get l.reasons in
  if not (Atomic.compare_and_set l.reasons old (r :: old)) then push_reason l r

let check l ok what =
  Atomic.incr l.attempted;
  if not ok then begin
    Atomic.incr l.failed;
    push_reason l what
  end

let attempted l = Atomic.get l.attempted
let failed l = Atomic.get l.failed
let reasons l = List.rev (Atomic.get l.reasons)

let failed_frac l =
  let a = attempted l in
  if a = 0 then 0.0 else float_of_int (failed l) /. float_of_int a

(* closure.D = (decode + engine) / file replay, per branch: the layers a
   file replay is made of, over the replay itself. 1 means the profile
   accounts for all of it; the unexplained share is what no layer covers
   (negative when the isolated layers sum to more than the whole). *)
let closure ~reader_ns ~engine_ns ~file_ns = (reader_ns +. engine_ns) /. file_ns
let unexplained ~closure = 1.0 -. closure
