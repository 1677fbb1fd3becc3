module Hashing = Cobra_util.Hashing

type t = Pc | Ghist of int | Lhist of int | Phist of int | Hash of t list

let rec index src (ctx : Cobra.Context.t) ~slot ~bits =
  match src with
  | Pc -> Hashing.pc_index ~pc:(Cobra.Context.slot_pc ctx slot) ~bits
  | Ghist n -> Cobra.Context.folded_ghist ctx ~len:n ~bits
  | Lhist n -> Hashing.folded_history ctx.lhists.(slot) ~len:n ~bits
  | Phist n -> Cobra.Context.folded_phist ctx ~len:n ~bits
  | Hash srcs -> combine srcs ctx ~slot ~bits ((1 lsl bits) - 1) 0

(* [Hashing.combine] of the sources' indexes, folded as they are computed
   rather than mapped into a list first. *)
and combine srcs ctx ~slot ~bits mask acc =
  match srcs with
  | [] -> acc
  | s :: rest -> combine rest ctx ~slot ~bits mask (acc lxor (index s ctx ~slot ~bits land mask))

let rec describe = function
  | Pc -> "pc"
  | Ghist n -> Printf.sprintf "ghist[%d]" n
  | Lhist n -> Printf.sprintf "lhist[%d]" n
  | Phist n -> Printf.sprintf "phist[%d]" n
  | Hash srcs -> "hash(" ^ String.concat "^" (List.map describe srcs) ^ ")"
