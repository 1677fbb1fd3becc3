(** Generated global-history provider (paper Section IV-B3).

    A speculative shift register updated with the predicted directions of
    in-flight conditional branches. The composer keeps a committed base value
    (reflecting packets that have left the predictor pipeline) plus the bits
    contributed by still-pending packets, so squashes and divergence repairs
    rebuild the speculative value exactly. Snapshots for mispredict repair
    are stored per-packet in the history file, as in the paper's initial
    implementation. *)

type t

val create : bits:int -> t
val width : t -> int

val value : t -> Cobra_util.Bits.t
(** Current speculative history (base plus pending contributions), as a
    vector of its own: later shifts of the base do not change it. *)

val base : t -> Cobra_util.Bits.t
(** The committed register itself. It is the same vector for the
    provider's whole life and every base update ({!commit_oldest},
    {!shift_base}, {!restore}) rewrites it in place, so a reader sees the
    current value; copy it to keep a value. *)

val push_pending : t -> bool list -> unit
(** Append a pending packet's predicted direction bits (oldest first). *)

val replace_pending : t -> depth:int -> bool list -> unit
(** Replace the bits of the pending packet at position [depth] (0 = oldest
    pending) — divergence repair when a later pipeline stage revises the
    packet's branch directions. *)

val drop_pending_from : t -> int -> unit
(** Squash pending packets at positions [>= depth]. *)

val commit_oldest : t -> unit
(** Fold the oldest pending packet's bits into the base (the packet fired
    into the history file). *)

val pending_count : t -> int

val shift_base : t -> bool -> unit
(** Shift one bit straight into the base: the net effect of pushing, firing
    and committing a one-bit packet when nothing else is pending. *)

val shift_base_bits : t -> count:int -> int -> unit
(** [shift_base_bits t ~count v] is {!shift_base} of bit [count - 1] of [v]
    first down to bit 0 last, in one shift ([1 <= count <= 61]). *)

val restore : t -> Cobra_util.Bits.t -> unit
(** Mispredict repair: copy a history-file snapshot into the base and clear
    all pending contributions. *)

val storage : t -> Storage.t
(** The history register itself; snapshots are accounted to the history
    file. *)
