(** Deterministic branch-stream fuzzer for the conformance kit.

    Generates the hard-to-predict branch shapes that predictor papers keep
    rediscovering (Lin & Tarsa's "not a solved problem" taxonomy): nested
    counted loops, correlated/history-carried branches, aliasing-stress PC
    sets, phase changes and repair-heavy mispredict storms. Everything is a
    pure function of the scenario seed, so any failure replays from one
    integer. *)

open Cobra

type shape =
  | Loops  (** nested counted loops with small, mixed trip counts *)
  | Correlated  (** direction carried by another branch's recent outcomes *)
  | Aliasing  (** few table indices shared by many PCs, conflicting biases *)
  | Phases  (** bias inversions every few hundred branches *)
  | Storms  (** near-random directions plus frequent wrong-path excursions *)
  | Mixed  (** round-robin through all of the above *)
  | Ladder  (** per-PC de Bruijn B(2,6) direction sequences (history probe) *)
  | Alias_stress  (** deterministic conflicting biases over a dense PC set *)
  | Loop_scan  (** counted loops with trip counts up to 257 (loop-bound probe) *)

val all_shapes : shape list
val shape_name : shape -> string
val shape_names : string list

val shape_of_name : string -> shape option
(** Case-insensitive (and whitespace-trimmed) lookup by {!shape_name}. *)

val shape_of_name_exn : string -> shape
(** Like {!shape_of_name} but raises [Failure] with a message listing the
    valid shape names — the error the CLI surfaces verbatim. *)

type scenario = { seed : int; shape : shape; length : int }

(* --- component-level event scripts ---------------------------------------- *)

(** What happens to a fetch packet after predict. *)
type path =
  | Commit  (** fire, then commit-time update; histories advance *)
  | Wrong_path  (** fire, then repair (squashed); histories roll back *)
  | Storm of int  (** fire, then mispredict with this culprit slot, then update *)

type packet = {
  pk_ctx : Context.t;
  pk_pred_in : Types.prediction array;
      (** synthesized incoming predictions, [arity] of them *)
  pk_slots : Types.resolved array;
  pk_path : path;
}

val packets : scenario -> arity:int -> fetch_width:int -> packet list
(** A fully-resolved event script: per packet, the predict-time context
    (with histories threaded exactly as a speculative frontend would), the
    incoming predictions, the resolved slots and the packet's fate. The
    lockstep cross-check replays one script through a golden model and its
    real component. *)

(* --- pipeline-level branch streams ----------------------------------------- *)

type branch = {
  br_pc : int;
  br_kind : Types.branch_kind;
  br_taken : bool;
  br_target : int;
}

val branches : scenario -> branch list
(** One branch at a time (the [Software_model] regime), same shapes. Feeds
    the twin-design differential and the repair-restores-state metamorphic
    check. *)
