let width_of layout = List.fold_left ( + ) 0 layout

let pack ~width fields =
  let total = width_of (List.map snd fields) in
  if total <> width then
    invalid_arg (Printf.sprintf "Bitpack.pack: fields cover %d bits, declared %d" total width);
  let check (v, bits) =
    if bits < 0 || bits > 62 then invalid_arg "Bitpack.pack: field width out of [0,62]";
    if v < 0 || (bits < 62 && v >= 1 lsl bits) then
      invalid_arg (Printf.sprintf "Bitpack.pack: value %d does not fit in %d bits" v bits)
  in
  if width <= 62 then begin
    (* fast path: the whole vector fits one int *)
    let acc = ref 0 and pos = ref 0 in
    List.iter
      (fun ((v, bits) as f) ->
        check f;
        acc := !acc lor (v lsl !pos);
        pos := !pos + bits)
      fields;
    Bits.of_int ~width !acc
  end
  else begin
    let bitvals = Array.make width false in
    let pos = ref 0 in
    List.iter
      (fun ((v, bits) as f) ->
        check f;
        for i = 0 to bits - 1 do
          bitvals.(!pos + i) <- (v lsr i) land 1 = 1
        done;
        pos := !pos + bits)
      fields;
    Bits.init width (fun i -> bitvals.(i))
  end

(* --- allocation-free packing ------------------------------------------------- *)

let limb_bits = 62
let limb_mask = (1 lsl limb_bits) - 1

module Packer = struct
  type t = {
    width : int;
    scratch : int array;  (* accumulated in place, copied out by [finish_into] *)
    mutable pos : int;
  }

  let create ~width =
    if width < 0 then invalid_arg "Bitpack.Packer.create: negative width";
    let nlimbs = (width + limb_bits - 1) / limb_bits in
    { width; scratch = Array.make (Int.max 1 nlimbs) 0; pos = 0 }

  let reset t =
    Array.fill t.scratch 0 (Array.length t.scratch) 0;
    t.pos <- 0

  let add t v ~bits =
    if bits < 0 || bits > limb_bits then
      invalid_arg "Bitpack.Packer.add: field width out of [0,62]";
    if v < 0 || (bits < limb_bits && v >= 1 lsl bits) then
      invalid_arg
        (Printf.sprintf "Bitpack.Packer.add: value %d does not fit in %d bits" v bits);
    if t.pos + bits > t.width then
      invalid_arg
        (Printf.sprintf "Bitpack.Packer.add: fields overflow declared width %d" t.width);
    (* a zero-width field writes nothing; at a full final limb its index
       would be one past the end *)
    if bits > 0 then begin
      let j = t.pos / limb_bits and k = t.pos mod limb_bits in
      t.scratch.(j) <- t.scratch.(j) lor ((v lsl k) land limb_mask);
      if k + bits > limb_bits then
        t.scratch.(j + 1) <- t.scratch.(j + 1) lor (v lsr (limb_bits - k));
      t.pos <- t.pos + bits
    end

  let finish_into t dst =
    if t.pos <> t.width then
      invalid_arg
        (Printf.sprintf "Bitpack.Packer.finish_into: fields cover %d bits, declared %d" t.pos
           t.width);
    if Bits.width dst <> t.width then
      invalid_arg
        (Printf.sprintf "Bitpack.Packer.finish_into: %d-bit fields into a %d-bit buffer"
           t.width (Bits.width dst));
    Bits.blit_from_limbs t.scratch ~pos:0 dst;
    reset t
end

module Cursor = struct
  type t = { mutable bits : Bits.t; mutable pos : int }

  let create () = { bits = Bits.zero 0; pos = 0 }

  let reset t bits =
    t.bits <- bits;
    t.pos <- 0

  let take t ~bits =
    let v = Bits.extract_int t.bits ~lo:t.pos ~len:bits in
    t.pos <- t.pos + bits;
    v

  let skip t ~bits = t.pos <- t.pos + bits
end

let unpack bits layout =
  if width_of layout <> Bits.width bits then
    invalid_arg "Bitpack.unpack: layout does not match vector width";
  let pos = ref 0 in
  List.map
    (fun w ->
      let v = Bits.extract_int bits ~lo:!pos ~len:w in
      pos := !pos + w;
      v)
    layout
