(** Query context handed to predictor sub-components.

    Matching the paper's pipeline contract (Fig 2): the fetch PC is available
    at cycle 0, and the global and local history vectors are provided at the
    end of the first cycle — which is why only components of latency [>= 1]
    exist, and all of them may use the histories. *)

type t = {
  mutable pc : int;  (** fetch PC (byte address of slot 0); set by {!renew} *)
  fetch_width : int;  (** slots per fetch packet *)
  mutable live_slots : int;
      (** slots the host can actually use this packet ([1..fetch_width];
          equals [fetch_width] unless the caller bounds it). Purely an
          optimization hint: a component may skip table work for slots
          [>= live_slots] — their opinions are never consumed and they never
          resolve as branches — but computing them anyway is equally
          correct. Skipping components must still pack their declared
          [meta_bits] (zeros for the dead slots). *)
  ghist : Cobra_util.Bits.t;  (** speculative global history, youngest bit = LSB *)
  lhists : Cobra_util.Bits.t array;  (** per-slot local history, indexed by slot *)
  phist : Cobra_util.Bits.t;
      (** speculative path history: folded target bits of recent taken
          branches (paper IV-B3's "other variants of history information");
          width 0 when the pipeline does not generate a path provider *)
  mutable stamp : int;
      (** generation stamp of the transaction this context describes:
          {!make} starts it at 0 and {!renew} bumps it. A context may be
          reused for a new transaction (replay mode keeps one per pipeline
          and rewrites its histories in place between transactions), so a
          component caching anything derived from a context keys the cache
          on the record {e and} its stamp: the same record ([==]) with the
          same stamp is the same transaction. The counter is per context and
          not atomic; contexts are never shared between domains *)
  mutable memo_keys : int array;  (** see {!folded_ghist} — managed internally *)
  mutable memo_vals : int array;
  mutable memo_count : int;
}

val slot_pc : t -> int -> int
(** [slot_pc t i] is the byte address of slot [i] (4-byte instructions). *)

val make :
  pc:int ->
  fetch_width:int ->
  ?live_slots:int ->
  ghist:Cobra_util.Bits.t ->
  lhists:Cobra_util.Bits.t array ->
  ?phist:Cobra_util.Bits.t ->
  unit ->
  t
(** [live_slots] defaults to [fetch_width]; raises [Invalid_argument]
    outside [1..fetch_width]. *)

val renew : t -> pc:int -> live_slots:int -> unit
(** Start a new transaction on a reused context: set the PC and live slot
    count, bump {!field-stamp} and forget every memoized fold. The
    owner rewrites the histories in place before handing the context on. Raises
    [Invalid_argument] when [live_slots] is outside [1..fetch_width]. *)

val live_bound : t -> int -> int
(** [live_bound t width] is [min width t.live_slots] — the slot bound a
    component with [width] slots of its own should iterate to when it wants
    to skip dead-slot work. *)

val folded_ghist : t -> len:int -> bits:int -> int
(** [folded_ghist t ~len ~bits] is
    [Bits.fold_xor_sub t.ghist ~len bits], memoized per context: every
    component of a design folding the same history shape — at predict time
    or in a later event carrying the same packet context — pays for the
    fold once per fetch packet. *)

val folded_phist : t -> len:int -> bits:int -> int
(** Same memoization over the path history. *)
