(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic piece of the framework — synthetic workloads, TAGE
    allocation throttling, cache-model noise — draws from an explicit [Rng.t]
    so that whole-simulation runs are reproducible from a single seed. *)

type t

val create : seed:int -> t
val copy : t -> t

val state : t -> int64
(** The raw splitmix64 state, for serializing an [Rng.t] into a state
    slab (split across two <=32-bit cells by the owner, as
    {!chance_in_slab} reads it). *)

val chance_in_slab : Slab.t -> lo:int -> hi:int -> float -> bool
(** [chance_in_slab slab ~lo ~hi p] is {!chance} [p] on the generator
    whose state is serialized in cells [lo] (its low 31 bits) and [hi] (the
    high 33 bits) of [slab], advancing that state in place. Bit-identical
    to {!chance} on an [Rng.t] holding that state, without allocating. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound >= 1]. *)

val bool : t -> bool
val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val float : t -> float -> float
(** Uniform in [0, bound). *)

val bits62 : t -> int
(** 62 uniform bits as a non-negative int. *)
