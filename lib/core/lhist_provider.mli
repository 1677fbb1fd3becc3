(** Generated local-history provider (paper Section IV-B3).

    A PC-indexed table of per-branch history registers, speculatively
    updated by predicted directions and repaired from the per-packet
    snapshots kept in the history file during the mispredict forwards-walk.
    The paper notes this table is one of the larger management structures
    (visible in Fig 8's "Meta" slice). The table is one flat array of
    62-bit limbs and every push shifts an entry in place. *)

type t

val create : entries:int -> bits:int -> t
(** [entries] must be a power of two. *)

val entries : t -> int
val bits : t -> int

val index : t -> pc:int -> int
val read : t -> pc:int -> Cobra_util.Bits.t
(** A fresh copy of [pc]'s entry. *)

val read_into : t -> pc:int -> Cobra_util.Bits.t -> unit
(** [read_into t ~pc buf] copies [pc]'s entry into the caller-owned [buf]
    ([bits t] wide) without allocating. *)

val push : t -> pc:int -> bool -> unit
(** Speculatively shift a predicted direction into the history of [pc]'s
    entry. *)

val restore : t -> pc:int -> Cobra_util.Bits.t -> unit
(** Write back a snapshot (repair). *)

val write_slab : t -> Cobra_util.Slab.t -> pos:int -> int
(** Store the whole table at [pos] (each entry's limbs in index order, the
    whole-pipeline snapshot layout); returns the position after it. *)

val read_slab : t -> Cobra_util.Slab.t -> pos:int -> int
(** Load the table stored by {!write_slab}; returns the position after it. *)

val storage : t -> Storage.t
