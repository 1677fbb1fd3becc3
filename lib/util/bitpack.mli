(** Packing structured fields into metadata bitvectors.

    COBRA metadata is an opaque bitvector of a declared width; components
    pack their predict-time fields with {!pack} and recover them in later
    events with {!unpack}, keeping the bit-accounting honest. *)

val width_of : int list -> int
(** Total width of a field layout. *)

val pack : width:int -> (int * int) list -> Bits.t
(** [pack ~width fields] packs [(value, bits)] pairs, first field in the low
    bits. Raises [Invalid_argument] if a value does not fit its field or the
    fields do not fill [width] exactly. *)

val unpack : Bits.t -> int list -> int list
(** [unpack bits layout] recovers the field values; [layout] must cover the
    vector exactly. *)

(** Reusable accumulator for the per-cycle hot path: the same checks and bit
    layout as {!pack}, but fields are written straight into a persistent
    scratch buffer instead of consing a [(value, width)] list per call. A
    component allocates one packer at elaboration time and calls
    [add]* / [finish_into] once per predict, sealing the fields into the
    metadata buffer the pipeline hands it. *)
module Packer : sig
  type t

  val create : width:int -> t
  (** A packer for metadata vectors of exactly [width] bits. *)

  val add : t -> int -> bits:int -> unit
  (** [add t v ~bits] appends [v] as the next [bits]-wide field (first field
      in the low bits, matching {!pack}). Raises [Invalid_argument] when the
      value does not fit or the fields overflow [width]. *)

  val finish_into : t -> Bits.t -> unit
  (** [finish_into t buf] seals the accumulated fields into [buf] (a
      caller-owned buffer, overwritten in place) and resets the packer for
      the next cycle. Raises [Invalid_argument] unless the fields cover
      [width] exactly and [buf] is [width] bits wide. Allocates nothing. *)

  val reset : t -> unit
  (** Discard any partially accumulated fields (error recovery). *)
end

(** Zero-allocation field reader, the inverse of {!Packer}: walk a metadata
    vector field-by-field without materialising the [int list] that {!unpack}
    returns. One cursor per component, [reset] at the top of each event. *)
module Cursor : sig
  type t

  val create : unit -> t
  val reset : t -> Bits.t -> unit

  val take : t -> bits:int -> int
  (** Read the next [bits]-wide field ([bits <= 62]). *)

  val skip : t -> bits:int -> unit
  (** Advance past a field without decoding it. *)
end
