(** The COBRA predictor sub-component interface (paper Section III).

    A sub-component is a stateful object with a declared pipeline latency, a
    declared metadata width, and handlers for the five prediction events:

    - [predict] — begin a prediction for a fetch PC: write the component's
      own (possibly partial, possibly empty) opinion vector into the row
      [out] and its metadata into the [meta_bits]-wide buffer [meta];
    - [fire] — the fetch packet proceeded; speculatively update local state
      (slots carry the {e predicted} outcomes);
    - [mispredict] — fast update at branch resolution (slots carry resolved
      outcomes; [culprit] names the offending slot);
    - [repair] — restore misspeculated local state for a squashed in-flight
      packet (issued during the composer's forwards-walk);
    - [update] — slow commit-time training in program order.

    The metadata written by [predict] is stored in the generated history
    file and handed back verbatim in every subsequent event for the same
    packet, together with the predict-time context — exactly the paper's
    metadata contract (Section III-D/E).

    {2 Buffers are the caller's}

    Every buffer in the contract belongs to the pipeline, which reuses them
    so that a replayed branch allocates nothing in steady state:
    - [out] arrives with every slot set to {!Types.empty_opinion}; a
      component overwrites the slots it has an opinion on and leaves the
      rest alone. Writing one of the preallocated opinions
      ({!Types.direction_hint}) allocates nothing.
    - [meta] is a [meta_bits]-wide buffer; a component seals its fields into
      it with {!Cobra_util.Bitpack.Packer.finish_into} (from a packer it
      created at elaboration time). Every bit must be written on every
      call: the buffer still holds an earlier packet's fields.
    - [pred_in] and the rows in it are the pipeline's composites, valid
      only during the call.
    - The [ctx] of [predict] and of every event, the event record itself,
      its [meta] and its [slots] are valid only during the call. The
      pipeline may rewrite them for its next transaction (replay mode reuses
      one context, whose {!Context.field-stamp} tells transactions apart). A
      component must not read any of them, or anything that aliases them,
      after the call; copy what it needs. (A context may be kept as a cache
      key, compared with [==] together with its stamp.) *)

type event = {
  ctx : Context.t;  (** predict-time context (PC and histories) *)
  meta : Cobra_util.Bits.t;  (** this component's metadata from predict time *)
  slots : Types.resolved array;  (** per-slot outcomes (predicted or resolved) *)
  culprit : int option;  (** mispredicted slot, for [mispredict]/[repair] *)
}

type event_kind = Predict | Fire | Mispredict | Repair | Update
(** The five prediction events of the component contract, as an enumerable
    label — the axis of the per-component event counters kept by
    [Cobra_stats]. *)

val all_event_kinds : event_kind list
(** In [event_kind_index] order. *)

val event_kind_name : event_kind -> string
val event_kind_index : event_kind -> int
(** A dense [0..4] index for counter arrays. *)

val pp_event_kind : Format.formatter -> event_kind -> unit

type family =
  | Counter_table
  | Btb
  | Micro_btb
  | Tagged_table
  | Tage
  | Loop
  | Selector
  | Perceptron
  | Corrector
  | Static
(** Broad structural family, used by the area model for grouping. *)

val pp_family : Format.formatter -> family -> unit

type t = private {
  name : string;
  family : family;
  latency : int;
  meta_bits : int;
  storage : Storage.t;
  state : Cobra_util.Slab.t;
      (** the component's complete mutable state, as one flat slab (empty
          for stateless components); see {!snapshot}/{!restore} *)
  predict :
    Context.t ->
    pred_in:Types.prediction array ->
    out:Types.prediction ->
    meta:Cobra_util.Bits.t ->
    unit;
      (** [predict ctx ~pred_in ~out ~meta]: [pred_in] holds one incoming
          composite per source (one for a node, one per sub-topology for an
          arbitration selector); write the opinions into [out] (pre-filled
          with {!Types.empty_opinion}) and the metadata into [meta] *)
  fire : event -> unit;
  mispredict : event -> unit;
  repair : event -> unit;
  update : event -> unit;
}

val make :
  name:string ->
  family:family ->
  latency:int ->
  meta_bits:int ->
  storage:Storage.t ->
  ?state:Cobra_util.Slab.t ->
  predict:
    (Context.t ->
    pred_in:Types.prediction array ->
    out:Types.prediction ->
    meta:Cobra_util.Bits.t ->
    unit) ->
  ?fire:(event -> unit) ->
  ?mispredict:(event -> unit) ->
  ?repair:(event -> unit) ->
  ?update:(event -> unit) ->
  unit ->
  t
(** Build a component. Unused events default to no-ops — implementations
    "may choose to use and ignore arbitrary subsets of these five signals".
    [state] is the component's flat state slab; handlers must close over it
    (and nothing else mutable) so that {!snapshot}/{!restore} capture the
    component completely. Defaults to {!Cobra_util.Slab.empty} for
    stateless components. Raises [Invalid_argument] when [latency < 1]
    (predictions cannot be made before Fetch-1) or [meta_bits < 0]. *)

val label : t -> string
(** ["NAME_n"], the paper's notation for a component of latency [n]. *)

(** {1 Flat-state snapshots}

    Because all mutable state lives in [state], checkpointing a component
    is a single memcpy — O(storage), independent of simulation length. *)

val state_cells : t -> int
(** Slab length in cells. *)

val snapshot : t -> Cobra_util.Slab.t
(** A fresh copy of the component's entire mutable state. *)

val restore : t -> Cobra_util.Slab.t -> unit
(** Overwrite the component's state with a snapshot taken earlier from
    the same component (or an identically-configured twin). Raises
    [Invalid_argument] on a slab-size mismatch. *)
