open Cobra

type record = {
  b_pc : int;
  b_taken : bool;
  b_kind : Types.branch_kind;
  b_target : int;
  b_gap : int;
}

type format = Binary | Text

let no_target = -1

let cond ?(gap = 0) ?(target = no_target) ~pc ~taken () =
  { b_pc = pc; b_taken = taken; b_kind = Types.Cond; b_target = target; b_gap = gap }

let insns r = r.b_gap + 1

let equal_record a b =
  a.b_pc = b.b_pc && a.b_taken = b.b_taken
  && Types.equal_branch_kind a.b_kind b.b_kind
  && a.b_target = b.b_target && a.b_gap = b.b_gap

let kind_char = function
  | Types.Cond -> 'C'
  | Types.Jump -> 'J'
  | Types.Call -> 'A'
  | Types.Ret -> 'R'
  | Types.Ind -> 'I'

let kind_of_char = function
  | 'C' -> Some Types.Cond
  | 'J' -> Some Types.Jump
  | 'A' -> Some Types.Call
  | 'R' -> Some Types.Ret
  | 'I' -> Some Types.Ind
  | _ -> None

let show_record r =
  Printf.sprintf "{pc=0x%x taken=%b kind=%c target=%s gap=%d}" r.b_pc r.b_taken
    (kind_char r.b_kind)
    (if r.b_target >= 0 then Printf.sprintf "0x%x" r.b_target else "-")
    r.b_gap

let validate r =
  if r.b_pc < 0 then Error (Printf.sprintf "negative pc %d" r.b_pc)
  else if r.b_gap < 0 then Error (Printf.sprintf "negative gap %d" r.b_gap)
  else if r.b_target < no_target then
    Error (Printf.sprintf "invalid target %d" r.b_target)
  else Ok ()

let validate_exn ~who r =
  match validate r with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "%s: %s in %s" who m (show_record r))

let magic = "COBT1"
let text_header = "# cobra-branch-trace v1"

(* --- binary codec ----------------------------------------------------------- *)

(* Records are self-delimiting: a tag byte, then LEB128 varints. The varint
   cap of 9 payload bytes bounds values to 63 bits (OCaml int) and makes the
   longest possible record 1 + 3*9 bytes, far below any refill window. *)

let max_varint_bytes = 9

let add_varint buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let tag_of r =
  (if r.b_taken then 1 else 0)
  lor (Types.branch_kind_to_int r.b_kind lsl 1)
  lor (if r.b_target >= 0 then 0x10 else 0)
  lor (if r.b_gap > 0 then 0x20 else 0)

let encode_record buf r =
  validate_exn ~who:"Btrace.encode_record" r;
  Buffer.add_char buf (Char.chr (tag_of r));
  add_varint buf r.b_pc;
  if r.b_target >= 0 then add_varint buf r.b_target;
  if r.b_gap > 0 then add_varint buf r.b_gap

(* Decoding allocates nothing but the record: the end of the window is the
   [need_more] sentinel rather than an option, varints come back as plain
   ints (-1 when the window ends mid-varint, [next] set past the last byte
   read) instead of (value, position) tuples, and errors are raised only
   on the failure paths. *)

let varint_overflow ~abs_offset =
  failwith (Printf.sprintf "byte %d: varint exceeds 63 bits (corrupt or overlong)" abs_offset)

(* Fails on a varint that would not fit 63 bits or is non-minimally encoded
   (the writer never pads, so a redundant final 0x00 means a corrupt or
   adversarial stream, not a value). *)
let read_varint bytes ~pos ~limit ~abs_offset ~next =
  let p = ref pos and shift = ref 0 and acc = ref 0 and seen = ref 1 and result = ref (-2) in
  while !result = -2 do
    if !seen > max_varint_bytes then varint_overflow ~abs_offset:(abs_offset + (!p - pos))
    else if !p >= limit then result := -1
    else begin
      let b = Char.code (Bytes.unsafe_get bytes !p) in
      acc := !acc lor ((b land 0x7f) lsl !shift);
      if !acc < 0 then
        (* bit 62 set: the value would not survive the OCaml int sign bit *)
        varint_overflow ~abs_offset:(abs_offset + (!p - pos))
      else if b land 0x80 = 0 then begin
        if b = 0 && !seen > 1 then
          failwith
            (Printf.sprintf "byte %d: non-minimal varint (redundant trailing 0x00 after %d bytes)"
               (abs_offset + (!p - pos))
               !seen);
        next := !p + 1;
        result := !acc
      end
      else begin
        incr p;
        shift := !shift + 7;
        incr seen
      end
    end
  done;
  !result

let need_more = { b_pc = -1; b_taken = false; b_kind = Types.Cond; b_target = no_target; b_gap = -1 }

let decode_record bytes ~pos ~limit ~abs_offset ~next =
  if pos >= limit then need_more
  else begin
    let tag = Char.code (Bytes.unsafe_get bytes pos) in
    if tag land 0xc0 <> 0 then
      failwith
        (Printf.sprintf "byte %d: corrupt record tag 0x%02x (reserved bits set)" abs_offset tag);
    let k = (tag lsr 1) land 0x7 in
    if k > 4 then
      failwith
        (Printf.sprintf "byte %d: corrupt record tag 0x%02x (bad branch kind %d)" abs_offset tag k);
    let pc = read_varint bytes ~pos:(pos + 1) ~limit ~abs_offset:(abs_offset + 1) ~next in
    if pc < 0 then need_more
    else begin
      let target =
        if tag land 0x10 = 0 then no_target
        else
          let p = !next in
          let v = read_varint bytes ~pos:p ~limit ~abs_offset:(abs_offset + (p - pos)) ~next in
          if v < 0 then -2 else v
      in
      if target = -2 then need_more
      else begin
        let gap =
          if tag land 0x20 = 0 then 0
          else
            let p = !next in
            read_varint bytes ~pos:p ~limit ~abs_offset:(abs_offset + (p - pos)) ~next
        in
        if gap < 0 then need_more
        else
          {
            b_pc = pc;
            b_taken = tag land 1 <> 0;
            b_kind = Types.branch_kind_of_int k;
            b_target = target;
            b_gap = gap;
          }
      end
    end
  end

(* --- text codec -------------------------------------------------------------- *)

let record_to_line r =
  validate_exn ~who:"Btrace.record_to_line" r;
  Printf.sprintf "%x %c %c %s %d" r.b_pc
    (if r.b_taken then 'T' else 'N')
    (kind_char r.b_kind)
    (if r.b_target >= 0 then Printf.sprintf "%x" r.b_target else "-")
    r.b_gap

let record_of_line ?lnum line =
  let where =
    match lnum with None -> "" | Some n -> Printf.sprintf "line %d: " n
  in
  let fail fmt = Printf.ksprintf (fun m -> failwith (where ^ m)) fmt in
  let line' = String.trim line in
  if line' = "" || line'.[0] = '#' then None
  else
    match String.split_on_char ' ' line' |> List.filter (fun s -> s <> "") with
    | [ pc_s; taken_s; kind_s; target_s; gap_s ] ->
      let hex name s =
        match int_of_string_opt ("0x" ^ s) with
        | Some v when v >= 0 -> v
        | Some v -> fail "negative %s %d in %S" name v line'
        | None -> fail "bad %s %S in %S" name s line'
      in
      let taken =
        match taken_s with
        | "T" -> true
        | "N" -> false
        | s -> fail "bad taken flag %S (want T or N) in %S" s line'
      in
      let kind =
        match if String.length kind_s = 1 then kind_of_char kind_s.[0] else None with
        | Some k -> k
        | None -> fail "bad branch kind %S (want C, J, A, R or I) in %S" kind_s line'
      in
      let target = if target_s = "-" then no_target else hex "target" target_s in
      let gap =
        match int_of_string_opt gap_s with
        | Some g when g >= 0 -> g
        | Some g -> fail "negative gap %d in %S" g line'
        | None -> fail "bad gap %S in %S" gap_s line'
      in
      Some { b_pc = hex "pc" pc_s; b_taken = taken; b_kind = kind; b_target = target; b_gap = gap }
    | fields -> fail "expected 5 fields, got %d in %S" (List.length fields) line'

(* --- conversion from instruction traces -------------------------------------- *)

let of_event ~gap (ev : Cobra_isa.Trace.event) =
  match ev.Cobra_isa.Trace.branch with
  | None -> None
  | Some info ->
    Some
      {
        b_pc = ev.Cobra_isa.Trace.pc;
        b_taken = info.Cobra_isa.Trace.taken;
        b_kind = info.Cobra_isa.Trace.kind;
        b_target = info.Cobra_isa.Trace.target;
        b_gap = gap;
      }
