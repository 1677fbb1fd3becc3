module Bits = Cobra_util.Bits

type config = {
  fetch_width : int;
  ghist_bits : int;
  lhist_bits : int;
  lhist_entries : int;
  history_entries : int;
  path_bits : int;
  predecode_history_correction : bool;
}

let default_config =
  {
    fetch_width = 4;
    ghist_bits = 64;
    lhist_bits = 32;
    lhist_entries = 256;
    history_entries = 32;
    path_bits = 16;
    predecode_history_correction = true;
  }

let config_spec c =
  Printf.sprintf "fw=%d;gh=%d;lh=%d;lhe=%d;hf=%d;path=%d;predecode=%b" c.fetch_width
    c.ghist_bits c.lhist_bits c.lhist_entries c.history_entries c.path_bits
    c.predecode_history_correction

type token = int

type pending = {
  p_token : token;
  p_pc : int;
  p_max_len : int;
  p_ctx : Context.t;
  p_metas : Bits.t array;
  p_raw : Types.prediction array option;
      (* per-component raw predictions, recorded only while an observer is
         attached (attribution needs to know who said what, not just the
         merged composite) *)
  p_stages : Types.prediction array;
  mutable p_dir_bits : bool list;
  mutable p_path_bits : bool list;
  mutable p_lhist_pushes : (int * Bits.t) list; (* (pc, prior), push order *)
}

(** Out-of-band notifications for an attached statistics collector. The
    pipeline stays oblivious to what the observer does with them; with no
    observer attached the only cost is a [None] check per entry point. *)
type observation =
  | Predicted of { token : token; pc : int; max_len : int }
  | Fired of {
      seq : int;
      pc : int;
      packet_len : int;
      final : Types.prediction;  (* last-stage composite *)
      raw : Types.prediction array option;  (* indexed by component id *)
      slots : Types.resolved array;  (* predicted outcomes *)
    }
  | Resolved of { seq : int; slot : int; actual : Types.resolved }
  | Mispredicted of { seq : int; slot : int; actual : Types.resolved }
  | Repaired of { seq : int }
  | Committed of { seq : int; packet_len : int; slots : Types.resolved array }
  | Squashed of { packets : int }

(* One component evaluation of the flattened schedule. Registers index the
   bank of per-stage composite arrays; register 0 is the all-silent bottom.
   A node reads one source register; an arbitration selector reads one per
   sub-topology and overlays its opinion onto the first (the default path,
   which keeps showing through wherever the selector is silent — e.g. a BTB
   target). *)
type step = {
  s_comp : Component.t;
  s_id : int;  (* index in [comps] *)
  s_stage : int;  (* predict-in stage: [min latency depth - 1] *)
  s_srcs : int array;
  s_dst : int;
  s_in : Types.prediction array;  (* the [pred_in] handed to predict, refilled per evaluation *)
  s_out : Types.prediction;  (* the row predict writes, reset to silent per evaluation *)
}

type t = {
  cfg : config;
  topo : Topology.t;
  comps : Component.t array;
  depth : int;
  steps : step array;  (* topological evaluation order *)
  root : int;  (* register holding the final per-stage composites *)
  regs : Types.prediction array array;
      (* per register, its per-stage composite rows: either shared with the
         source register (pass-through stages, silent components) or one of
         the register's own merge rows in [bufs] *)
  bufs : Types.prediction array array;  (* per register, one merge row per stage *)
  silent_row : Types.prediction;  (* the bottom's shared all-silent row *)
  ghist : Ghist_provider.t;
  path : Ghist_provider.t;  (* the path history reuses the shift-register provider *)
  lhist : Lhist_provider.t;
  lhist_dead : Bits.t;  (* what slots past a packet's live length read *)
  phist_off : Bits.t;  (* the zero-width path history when path_bits = 0 *)
  hf : History_file.t;
  mutable pending : pending list; (* oldest first *)
  mutable next_token : token;
  mutable observer : (observation -> unit) option;
  (* Replay-mode scratch, reused by every transaction: one context whose
     histories are the providers' own registers plus a local-history
     buffer, the metadata buffers, the slot vectors and, per component,
     the three event records that point at them. The general protocol
     never hands any of it out. *)
  replay_ctx : Context.t;
  replay_metas : Bits.t array;
  replay_pred : Types.resolved array;
  replay_actual : Types.resolved array;
  replay_fire : Component.event array;
  replay_mispredict : Component.event array;
  replay_update : Component.event array;
  resolved_cache : Types.resolved array;
  mutable last_taken_pred : bool;
  mutable last_metas : Bits.t array;
}

(* Direct-mapped cache of the taken or targeted outcome records replay
   mode builds per branch (see [intern_resolved]). *)
let resolved_cache_size = 1024

(* Flatten the topology into the schedule, in the order a recursive walk
   would evaluate it: [Override (hi, lo)] runs [lo] first, arbitration
   sub-topologies run head-first and then their selector. The order matters
   to components whose [predict] has side effects. *)
let schedule comps ~width depth topo =
  let id (c : Component.t) =
    let rec find i = if comps.(i) == c then i else find (i + 1) in
    find 0
  in
  let steps = ref [] and n_regs = ref 1 in
  let emit (c : Component.t) srcs =
    let dst = !n_regs in
    incr n_regs;
    steps :=
      {
        s_comp = c;
        s_id = id c;
        s_stage = Int.min c.latency depth - 1;
        s_srcs = srcs;
        s_dst = dst;
        s_in = Array.make (Array.length srcs) [||];
        s_out = Types.no_prediction ~width;
      }
      :: !steps;
    dst
  in
  let rec walk topo src =
    match topo with
    | Topology.Node c -> emit c [| src |]
    | Topology.Override (hi, lo) -> walk hi (walk lo src)
    | Topology.Arbitrate (sel, subs) ->
      let srcs = List.fold_left (fun acc sub -> walk sub src :: acc) [] subs in
      emit sel (Array.of_list (List.rev srcs))
  in
  let root = walk topo 0 in
  (Array.of_list (List.rev !steps), root, !n_regs)

let create cfg topo =
  if cfg.fetch_width < 1 then invalid_arg "Pipeline.create: fetch_width < 1";
  (match Topology.validate topo with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Pipeline.create: invalid topology: " ^ msg));
  let comps = Array.of_list (Topology.components topo) in
  let meta_bits = Array.map (fun (c : Component.t) -> c.meta_bits) comps in
  let depth = Topology.max_latency topo in
  let width = cfg.fetch_width in
  let steps, root, n_regs = schedule comps ~width depth topo in
  let silent_row = Types.no_prediction ~width in
  let ghist = Ghist_provider.create ~bits:cfg.ghist_bits in
  let path = Ghist_provider.create ~bits:(Int.max 1 cfg.path_bits) in
  let phist_off = Bits.zero 0 in
  let replay_ctx =
    Context.make ~pc:0 ~fetch_width:width ~live_slots:1 ~ghist:(Ghist_provider.base ghist)
      ~lhists:(Array.init width (fun _ -> Bits.zero cfg.lhist_bits))
      ~phist:(if cfg.path_bits = 0 then phist_off else Ghist_provider.base path)
      ()
  in
  let replay_metas = Array.map (fun (c : Component.t) -> Bits.zero c.meta_bits) comps in
  let replay_pred = Array.make width Types.no_branch in
  let replay_actual = Array.make width Types.no_branch in
  let events slots culprit =
    Array.map
      (fun meta -> { Component.ctx = replay_ctx; meta; slots; culprit })
      replay_metas
  in
  {
    cfg;
    topo;
    comps;
    depth;
    steps;
    root;
    regs = Array.init n_regs (fun _ -> Array.make depth silent_row);
    bufs =
      Array.init n_regs (fun r ->
          if r = 0 then [||] else Array.init depth (fun _ -> Types.no_prediction ~width));
    silent_row;
    ghist;
    path;
    lhist = Lhist_provider.create ~entries:cfg.lhist_entries ~bits:cfg.lhist_bits;
    lhist_dead = Bits.zero cfg.lhist_bits;
    phist_off;
    hf =
      History_file.create ~capacity:cfg.history_entries ~meta_bits ~fetch_width:width
        ~ghist_bits:cfg.ghist_bits ~lhist_bits:cfg.lhist_bits;
    pending = [];
    next_token = 0;
    observer = None;
    replay_ctx;
    replay_metas;
    replay_pred;
    replay_actual;
    replay_fire = events replay_pred None;
    replay_mispredict = events replay_actual (Some 0);
    replay_update = events replay_actual None;
    resolved_cache = Array.make resolved_cache_size Types.no_branch;
    last_taken_pred = false;
    last_metas = [||];
  }

let set_observer t obs = t.observer <- obs
let observed t = match t.observer with Some _ -> true | None -> false
let observe t ev = match t.observer with Some f -> f ev | None -> ()

let config t = t.cfg
let topology t = t.topo
let depth t = t.depth
let components t = t.comps

(* Rough NAND2-equivalent cost of the generated redirect/override muxing:
   one opinion multiplexer per slot, per stage, per component boundary. *)
let redirect_logic_gates t =
  t.cfg.fetch_width * t.depth * (Array.length t.comps) * 120

let management_storage t =
  Storage.sum
    [
      History_file.storage t.hf;
      Ghist_provider.storage t.ghist;
      (if t.cfg.path_bits > 0 then Ghist_provider.storage t.path else Storage.zero);
      Lhist_provider.storage t.lhist;
      Storage.make ~logic_gates:(redirect_logic_gates t) ();
    ]

let storage t =
  Storage.add
    (Storage.sum (Array.to_list (Array.map (fun (c : Component.t) -> c.storage) t.comps)))
    (management_storage t)

(* --- topology evaluation ------------------------------------------------ *)

(* Pointer stores into the long-lived bank cost a write barrier each;
   steady-state evaluations mostly store what is already there. One per
   element type: a polymorphic version compiles to generic array code. *)
let[@inline] set_opinion (a : Types.opinion array) i v = if a.(i) != v then a.(i) <- v
let[@inline] set_row (a : Types.prediction array) i v = if a.(i) != v then a.(i) <- v
let[@inline] set_slot (a : Types.resolved array) i v = if a.(i) != v then a.(i) <- v

let rec silent (pred : Types.prediction) i =
  i >= Array.length pred || (pred.(i) == Types.empty_opinion && silent pred (i + 1))

(* Write [pred] over the source composites into register [dst]: the opinion
   becomes visible at its latency and overrides everything below it. Slot
   merging keeps [Types.merge]'s [empty_opinion] fast paths, so physical
   emptiness — which downstream predicates test — is exactly that of a
   fresh [Types.merge]. A stage whose source row is the previous stage's
   merges to the same row, so it reuses it. *)
let[@inline] overlay_into t ~dst ~latency (src : Types.prediction array)
    (pred : Types.prediction) =
  let width = t.cfg.fetch_width in
  let out = t.regs.(dst) in
  if silent pred 0 then
    for s = 0 to t.depth - 1 do
      set_row out s src.(s)
    done
  else begin
    let rows = t.bufs.(dst) in
    for s = 0 to t.depth - 1 do
      let below = src.(s) in
      if s + 1 < latency then set_row out s below
      else if s >= latency && below == src.(s - 1) then set_row out s out.(s - 1)
      else begin
        let row = rows.(s) in
        for i = 0 to width - 1 do
          let st = pred.(i) and w = below.(i) in
          set_opinion row i
            (if st == Types.empty_opinion then w
             else if w == Types.empty_opinion then st
             else Types.merge_opinion ~strong:st ~weak:w)
        done;
        set_row out s row
      end
    done
  end

(* Evaluate every component once, in schedule order (tables are read with
   predict-time state), each writing its metadata into its buffer in
   [metas] and, when [raw] is given, a copy of its raw prediction, by
   component id. Returns the root register's per-stage composites, indexed
   by stage-1. The rows live in the register bank: they are overwritten by
   the next evaluation. *)
let eval t (ctx : Context.t) metas raw =
  let steps = t.steps and regs = t.regs in
  for i = 0 to Array.length steps - 1 do
    let s = steps.(i) in
    let c = s.s_comp in
    let srcs = s.s_srcs and pred_in = s.s_in in
    for k = 0 to Array.length srcs - 1 do
      set_row pred_in k regs.(srcs.(k)).(s.s_stage)
    done;
    let out = s.s_out in
    for i = 0 to Array.length out - 1 do
      set_opinion out i Types.empty_opinion
    done;
    c.predict ctx ~pred_in ~out ~meta:metas.(s.s_id);
    (match raw with Some r -> r.(s.s_id) <- Array.copy out | None -> ());
    overlay_into t ~dst:s.s_dst ~latency:c.latency regs.(srcs.(0)) out
  done;
  regs.(t.root)

(* A pending packet keeps its own copy of the composites (the bank is
   reused by the next evaluation); rows shared between stages stay shared. *)
let copy_rows t (rows : Types.prediction array) =
  let out = Array.make t.depth t.silent_row in
  for s = 0 to t.depth - 1 do
    let r = rows.(s) in
    if r == t.silent_row then ()
    else if s > 0 && r == rows.(s - 1) then out.(s) <- out.(s - 1)
    else out.(s) <- Array.copy r
  done;
  out

(* --- frontend side ------------------------------------------------------ *)

(* Slots past [live] can never be used this packet; a shared zero vector
   saves the provider reads without changing what any component can see. *)
let read_lhists t ~pc ~live =
  Array.init t.cfg.fetch_width (fun i ->
      if i < live then Lhist_provider.read t.lhist ~pc:(pc + (4 * i)) else t.lhist_dead)

(* Slots of [pred] within [packet_len] that look like conditional branches
   push a speculative bit into the local history of their own PC. *)
let push_lhists t ~pc ~packet_len (pred : Types.prediction) =
  let pushes = ref [] in
  for i = 0 to Array.length pred - 1 do
    let (op : Types.opinion) = pred.(i) in
    if
      i < packet_len
      && (match op.o_branch with Some true -> true | Some false | None -> false)
      && (match op.o_kind with None | Some Types.Cond -> true | Some _ -> false)
    then begin
      let slot_pc = pc + (4 * i) in
      let prior = Lhist_provider.read t.lhist ~pc:slot_pc in
      Lhist_provider.push t.lhist ~pc:slot_pc
        (match op.o_taken with Some true -> true | Some false | None -> false);
      pushes := (slot_pc, prior) :: !pushes
    end
  done;
  List.rev !pushes

let path_bits_per_branch = 3

(* Path bits contributed by a packet: folded low target bits of its first
   (acted) taken branch, oldest first. *)
(* Expand a folded target hash into its bit list, lowest bit first. *)
let rec path_bits_build folded k acc =
  if k < 0 then acc else path_bits_build folded (k - 1) (((folded lsr k) land 1 = 1) :: acc)

let path_bits_of_target target =
  let folded =
    Cobra_util.Hashing.fold_int (Cobra_util.Hashing.pc_bits target) ~width:62
      ~bits:path_bits_per_branch
  in
  path_bits_build folded (path_bits_per_branch - 1) []

let rec path_bits_find_slot slots len i =
  if i >= len then []
  else
    let (r : Types.resolved) = slots.(i) in
    if r.r_is_branch && r.r_taken then path_bits_of_target r.r_target
    else path_bits_find_slot slots len (i + 1)

let path_bits_of_slots t slots ~packet_len =
  if t.cfg.path_bits = 0 then []
  else path_bits_find_slot slots (Int.min packet_len (Array.length slots)) 0

(* Path bits implied by a stage composite at predict time: the first slot
   predicted as a taken branch, read straight off the opinions (what
   [path_bits_of_slots] would see through the predicted resolved view,
   without materialising that view). *)
let rec path_bits_find_op (pred : Types.prediction) len i =
  if i >= len then []
  else
    let op = pred.(i) in
    if
      (match op.Types.o_branch with Some true -> true | Some false | None -> false)
      && (match op.Types.o_taken with Some true -> true | Some false | None -> false)
    then path_bits_of_target (match op.Types.o_target with Some tgt -> tgt | None -> 0)
    else path_bits_find_op pred len (i + 1)

let path_bits_of_prediction t (pred : Types.prediction) ~packet_len =
  if t.cfg.path_bits = 0 then []
  else path_bits_find_op pred (Int.min packet_len (Array.length pred)) 0

let unwind_lhist_pushes t pushes =
  List.iter (fun (pc, prior) -> Lhist_provider.restore t.lhist ~pc prior) (List.rev pushes)

let predict t ~pc ~max_len =
  if max_len < 1 || max_len > t.cfg.fetch_width then
    invalid_arg "Pipeline.predict: max_len out of range";
  let ctx =
    Context.make ~pc ~fetch_width:t.cfg.fetch_width ~live_slots:max_len
      ~ghist:(Ghist_provider.value t.ghist)
      ~lhists:(read_lhists t ~pc ~live:max_len)
      ~phist:(if t.cfg.path_bits = 0 then t.phist_off else Ghist_provider.value t.path)
      ()
  in
  let metas = Array.map (fun (c : Component.t) -> Bits.zero c.meta_bits) t.comps in
  let raw = if observed t then Some (Array.make (Array.length t.comps) [||]) else None in
  let stages = copy_rows t (eval t ctx metas raw) in
  let stage1 = stages.(0) in
  let nf = Types.next_fetch stage1 ~pc ~max_len in
  let dir_bits = Types.direction_bits stage1 ~packet_len:nf.Types.packet_len in
  Ghist_provider.push_pending t.ghist dir_bits;
  let path_bits = path_bits_of_prediction t stage1 ~packet_len:nf.Types.packet_len in
  if t.cfg.path_bits > 0 then Ghist_provider.push_pending t.path path_bits;
  let lhist_pushes = push_lhists t ~pc ~packet_len:nf.Types.packet_len stage1 in
  let token = t.next_token in
  t.next_token <- token + 1;
  let p =
    {
      p_token = token;
      p_pc = pc;
      p_max_len = max_len;
      p_ctx = ctx;
      p_metas = metas;
      p_raw = raw;
      p_stages = stages;
      p_dir_bits = dir_bits;
      p_path_bits = path_bits;
      p_lhist_pushes = lhist_pushes;
    }
  in
  t.pending <- t.pending @ [ p ];
  observe t (Predicted { token; pc; max_len });
  token

(* Threaded-argument recursion: [List.find_opt] with a capturing predicate
   would allocate a closure per lookup, and the host calls this several
   times per packet per cycle. *)
let rec find_pending_in pending token =
  match pending with
  | [] -> invalid_arg (Printf.sprintf "Pipeline: token %d is not pending" token)
  | p :: rest -> if p.p_token = token then p else find_pending_in rest token

let find_pending t token = find_pending_in t.pending token

let pending_depth t token =
  let rec loop i = function
    | [] -> invalid_arg (Printf.sprintf "Pipeline: token %d is not pending" token)
    | p :: _ when p.p_token = token -> i
    | _ :: rest -> loop (i + 1) rest
  in
  loop 0 t.pending

let stages t token = (find_pending t token).p_stages
let context t token = (find_pending t token).p_ctx
let token_pc t token = (find_pending t token).p_pc
let token_max_len t token = (find_pending t token).p_max_len
let applied_dir_bits t token = (find_pending t token).p_dir_bits

let revise_dir_bits t token bits =
  let p = find_pending t token in
  let depth = pending_depth t token in
  Ghist_provider.replace_pending t.ghist ~depth bits;
  p.p_dir_bits <- bits

let pending_tokens t = List.map (fun p -> p.p_token) t.pending

let squash_from t token =
  let depth = pending_depth t token in
  let keep, squashed = (List.filteri (fun i _ -> i < depth) t.pending,
                        List.filteri (fun i _ -> i >= depth) t.pending) in
  (* Unwind speculative local-history pushes youngest-first. *)
  List.iter (fun p -> unwind_lhist_pushes t p.p_lhist_pushes) (List.rev squashed);
  Ghist_provider.drop_pending_from t.ghist depth;
  if t.cfg.path_bits > 0 then Ghist_provider.drop_pending_from t.path depth;
  t.pending <- keep;
  if squashed <> [] then observe t (Squashed { packets = List.length squashed })

let squash_all_pending t =
  match t.pending with [] -> () | p :: _ -> squash_from t p.p_token

let can_fire t = not (History_file.is_full t.hf)

let event_of_entry (entry : History_file.entry) ~id ~slots ~culprit : Component.event =
  { ctx = entry.e_ctx; meta = entry.e_metas.(id); slots; culprit }

let predicted_slots (entry : History_file.entry) =
  Array.map (fun (s : History_file.slot_state) -> s.predicted) entry.e_slots

let effective_slots (entry : History_file.entry) =
  let n = Array.length entry.e_slots in
  let out = Array.make n Types.no_branch in
  for i = 0 to entry.e_packet_len - 1 do
    if i < n then
      let (s : History_file.slot_state) = entry.e_slots.(i) in
      out.(i) <- (match s.actual with Some r -> r | None -> s.predicted)
  done;
  out

(* Push local-history bits for the conditional branches of a slot vector,
   returning the (pc, prior) undo list. *)
let push_lhists_of_slots t ctx slots ~packet_len =
  let pushes = ref [] in
  let stop = ref false in
  for i = 0 to Array.length slots - 1 do
    let (s : Types.resolved) = slots.(i) in
    if
      (not !stop) && i < packet_len && s.r_is_branch
      && match s.r_kind with Types.Cond -> true | _ -> false
    then begin
      let slot_pc = Context.slot_pc ctx i in
      let prior = Lhist_provider.read t.lhist ~pc:slot_pc in
      Lhist_provider.push t.lhist ~pc:slot_pc s.r_taken;
      pushes := (slot_pc, prior) :: !pushes
    end;
    if i < packet_len && s.r_is_branch && s.r_taken then stop := true
  done;
  List.rev !pushes

(* Direction bits implied by per-slot outcomes: one bit per conditional
   branch, stopping after the first taken slot. *)
let rec dir_bits_of_slots_loop slots len i acc =
  if i >= len then List.rev acc
  else
    let (s : Types.resolved) = slots.(i) in
    let acc =
      if s.r_is_branch && (match s.r_kind with Types.Cond -> true | _ -> false) then
        s.r_taken :: acc
      else acc
    in
    if s.r_is_branch && s.r_taken then List.rev acc
    else dir_bits_of_slots_loop slots len (i + 1) acc

let dir_bits_of_slots slots ~packet_len =
  dir_bits_of_slots_loop slots (Int.min packet_len (Array.length slots)) 0 []

let fire t token ~slots ~packet_len =
  (match t.pending with
  | p :: _ when p.p_token = token -> ()
  | _ -> invalid_arg "Pipeline.fire: token must be the oldest pending packet");
  if Array.length slots <> t.cfg.fetch_width then
    invalid_arg "Pipeline.fire: slots array must have fetch_width entries";
  if packet_len < 1 || packet_len > t.cfg.fetch_width then
    invalid_arg "Pipeline.fire: packet_len out of range";
  let p = List.hd t.pending in
  (* Predecode correction: the host now knows the true branch positions, so
     the speculative history bits are recomputed from them (unless the
     configuration models a design without this correction). *)
  let final_bits = dir_bits_of_slots slots ~packet_len in
  if t.cfg.predecode_history_correction && final_bits <> p.p_dir_bits then begin
    Ghist_provider.replace_pending t.ghist ~depth:0 final_bits;
    p.p_dir_bits <- final_bits
  end;
  (* The local-history provider gets the same predecode correction: branch
     positions come from decode, directions from the acted prediction. *)
  if t.cfg.predecode_history_correction then begin
    unwind_lhist_pushes t p.p_lhist_pushes;
    p.p_lhist_pushes <- []
  end;
  if t.cfg.path_bits > 0 then begin
    let final_path = path_bits_of_slots t slots ~packet_len in
    if t.cfg.predecode_history_correction && final_path <> p.p_path_bits then begin
      Ghist_provider.replace_pending t.path ~depth:0 final_path;
      p.p_path_bits <- final_path
    end;
    Ghist_provider.commit_oldest t.path
  end;
  Ghist_provider.commit_oldest t.ghist;
  t.pending <- List.tl t.pending;
  let entry : History_file.entry =
    {
      e_ctx = p.p_ctx;
      e_metas = p.p_metas;
      e_slots =
        Array.map (fun r -> { History_file.predicted = r; actual = None }) slots;
      e_packet_len = packet_len;
      e_dir_bits = final_bits;
      e_path_bits = p.p_path_bits;
      e_lhist_pushes = p.p_lhist_pushes;
    }
  in
  if t.cfg.predecode_history_correction then
    entry.e_lhist_pushes <- push_lhists_of_slots t entry.e_ctx slots ~packet_len;
  let seq = History_file.enqueue t.hf entry in
  let pslots = predicted_slots entry in
  Array.iteri
    (fun id (c : Component.t) -> c.fire (event_of_entry entry ~id ~slots:pslots ~culprit:None))
    t.comps;
  observe t
    (Fired
       {
         seq;
         pc = p.p_pc;
         packet_len;
         final = p.p_stages.(t.depth - 1);
         raw = p.p_raw;
         slots = pslots;
       });
  seq

(* --- backend side ------------------------------------------------------- *)

let check_slot t ~slot =
  if slot < 0 || slot >= t.cfg.fetch_width then invalid_arg "Pipeline: slot out of range"

let resolve t ~seq ~slot resolved =
  check_slot t ~slot;
  let entry = History_file.get t.hf seq in
  entry.e_slots.(slot).actual <- Some resolved;
  observe t (Resolved { seq; slot; actual = resolved })

(* Re-apply corrected local-history state for the mispredicted entry: undo
   its speculative pushes, then push the (now partly resolved) directions of
   the surviving slots. *)
let repush_lhists t (entry : History_file.entry) =
  unwind_lhist_pushes t entry.e_lhist_pushes;
  entry.e_lhist_pushes <-
    push_lhists_of_slots t entry.e_ctx (effective_slots entry)
      ~packet_len:entry.e_packet_len

let mispredict t ~seq ~slot resolved =
  check_slot t ~slot;
  let entry = History_file.get t.hf seq in
  entry.e_slots.(slot).actual <- Some resolved;
  (* Forwards-walk first: repair events for the younger in-flight packets
     being squashed, oldest first (paper Section IV-B2). The culprit's fast
     mispredict update runs after the walk so the corrected state it writes
     is final — younger packets' restored speculative state must not
     clobber it. *)
  let younger = ref [] in
  History_file.iter_from t.hf (seq + 1) (fun s e -> younger := (s, e) :: !younger);
  let younger_oldest_first = List.rev !younger in
  List.iter
    (fun ((yseq, e) : int * History_file.entry) ->
      let pslots = predicted_slots e in
      Array.iteri
        (fun id (c : Component.t) ->
          c.repair (event_of_entry e ~id ~slots:pslots ~culprit:None))
        t.comps;
      observe t (Repaired { seq = yseq }))
    younger_oldest_first;
  (* Fast update for the offending packet. *)
  let resolved_view = effective_slots entry in
  Array.iteri
    (fun id (c : Component.t) ->
      c.mispredict (event_of_entry entry ~id ~slots:resolved_view ~culprit:(Some slot)))
    t.comps;
  observe t (Mispredicted { seq; slot; actual = resolved });
  squash_all_pending t;
  List.iter
    (fun ((_, e) : int * History_file.entry) -> unwind_lhist_pushes t e.e_lhist_pushes)
    !younger;
  History_file.drop_newer_than t.hf seq;
  (* The packet is cut at the culprit: younger slots were squashed (either
     the branch was taken, or the not-taken refetch starts a new packet). *)
  entry.e_packet_len <- slot + 1;
  entry.e_dir_bits <- dir_bits_of_slots (effective_slots entry) ~packet_len:entry.e_packet_len;
  entry.e_path_bits <-
    path_bits_of_slots t (effective_slots entry) ~packet_len:entry.e_packet_len;
  repush_lhists t entry;
  (* Restore the speculative global and path histories from the entry's
     snapshots plus its corrected bits. *)
  let restored = List.fold_left Bits.shift_in_lsb entry.e_ctx.Context.ghist entry.e_dir_bits in
  Ghist_provider.restore t.ghist restored;
  if t.cfg.path_bits > 0 then
    Ghist_provider.restore t.path
      (List.fold_left Bits.shift_in_lsb entry.e_ctx.Context.phist entry.e_path_bits)

let commit t =
  match History_file.dequeue t.hf with
  | None -> invalid_arg "Pipeline.commit: history file empty"
  | Some (seq, entry) ->
    let slots = effective_slots entry in
    Array.iteri
      (fun id (c : Component.t) ->
        c.update (event_of_entry entry ~id ~slots ~culprit:None))
      t.comps;
    observe t (Committed { seq; packet_len = entry.e_packet_len; slots })

let inflight t = History_file.length t.hf
let oldest_seq t = Option.map fst (History_file.oldest t.hf)

let ghist_value t = Ghist_provider.value t.ghist
let phist_value t = Ghist_provider.value t.path
let lhist_value t ~pc = Lhist_provider.read t.lhist ~pc
let entry t seq = History_file.get t.hf seq

(* ------------------------------------------------------------------ *)
(* Whole-design snapshot: one flat slab covering the management state
   plus every component's state slab.

   Layout (cells):
     [0]                          next_token
     [1 .. ]                      ghist base limbs   (Bits.limbs_for ghist_bits)
     then                         path  base limbs   (Bits.limbs_for path width)
     then, per lhist entry        its history limbs  (Bits.limbs_for lhist_bits)
     then, per component in order its state slab     (Component.state_cells)

   Snapshots are only taken of a quiesced pipeline (no pending packets,
   empty history file): that is the natural state between replay windows,
   and it means the speculative value of each history provider equals its
   base, so the base limbs capture everything. *)

module Slab = Cobra_util.Slab

let quiesced t =
  (match t.pending with [] -> true | _ :: _ -> false) && History_file.length t.hf = 0

let mgmt_cells t =
  let ghist_limbs = Bits.limbs_for (Ghist_provider.width t.ghist) in
  let path_limbs = Bits.limbs_for (Ghist_provider.width t.path) in
  let lhist_limbs = Bits.limbs_for (Lhist_provider.bits t.lhist) in
  1 + ghist_limbs + path_limbs + (Lhist_provider.entries t.lhist * lhist_limbs)

let snapshot_cells t =
  Array.fold_left
    (fun acc (c : Component.t) -> acc + Component.state_cells c)
    (mgmt_cells t) t.comps

let write_bits slab ~pos v =
  let n = Bits.limb_count v in
  for i = 0 to n - 1 do
    Slab.set slab (pos + i) (Bits.get_limb v i)
  done;
  pos + n

let read_bits slab ~pos ~width =
  let n = Bits.limbs_for width in
  let limbs = Array.init n (fun i -> Slab.get slab (pos + i)) in
  (Bits.of_limbs ~width limbs, pos + n)

let snapshot t =
  if not (quiesced t) then
    invalid_arg
      (Printf.sprintf
         "Pipeline.snapshot: pipeline not quiesced (%d pending packets, %d in-flight entries)"
         (List.length t.pending) (History_file.length t.hf));
  let slab = Slab.create (snapshot_cells t) in
  Slab.set slab 0 t.next_token;
  let pos = ref 1 in
  pos := write_bits slab ~pos:!pos (Ghist_provider.base t.ghist);
  pos := write_bits slab ~pos:!pos (Ghist_provider.base t.path);
  pos := Lhist_provider.write_slab t.lhist slab ~pos:!pos;
  Array.iter
    (fun (c : Component.t) ->
      let n = Component.state_cells c in
      if n > 0 then begin
        Slab.blit ~src:c.Component.state ~dst:(Slab.sub slab !pos n);
        pos := !pos + n
      end)
    t.comps;
  slab

let restore t slab =
  if History_file.length t.hf <> 0 then
    invalid_arg "Pipeline.restore: history file not empty";
  let expect = snapshot_cells t in
  if Slab.length slab <> expect then
    invalid_arg
      (Printf.sprintf "Pipeline.restore: snapshot has %d cells, pipeline needs %d"
         (Slab.length slab) expect);
  t.pending <- [];
  t.next_token <- Slab.get slab 0;
  let pos = ref 1 in
  let gh, p = read_bits slab ~pos:!pos ~width:(Ghist_provider.width t.ghist) in
  pos := p;
  Ghist_provider.restore t.ghist gh;
  let ph, p = read_bits slab ~pos:!pos ~width:(Ghist_provider.width t.path) in
  pos := p;
  Ghist_provider.restore t.path ph;
  pos := Lhist_provider.read_slab t.lhist slab ~pos:!pos;
  Array.iter
    (fun (c : Component.t) ->
      let n = Component.state_cells c in
      if n > 0 then begin
        Component.restore c (Slab.sub slab !pos n);
        pos := !pos + n
      end)
    t.comps

(* ------------------------------------------------------------------ *)
(* Replay mode: one branch per packet, predicted, resolved and committed
   before the next — the trace-replay protocol. *)

let predicted_taken ~kind (final : Types.opinion) =
  match final.o_taken with Some b -> b | None -> Types.is_unconditional kind

let mispredicted ~kind ~taken ~target (final : Types.opinion) =
  predicted_taken ~kind final <> taken
  || taken
     && Types.is_unconditional kind
     && (not (Types.equal_branch_kind kind Types.Ret))
     && target >= 0
     && match final.o_target with Some v -> v <> target | None -> true

let last_taken_pred t = t.last_taken_pred
let last_metas t = t.last_metas

let reference_step t ~pc ~kind ~taken ~target =
  if not (quiesced t) then invalid_arg "Pipeline.reference_step: pipeline not quiesced";
  let tok = predict t ~pc ~max_len:1 in
  let p = find_pending t tok in
  let final = p.p_stages.(t.depth - 1).(0) in
  let taken_pred = predicted_taken ~kind final in
  let wrong = mispredicted ~kind ~taken ~target final in
  let target = if target >= 0 then target else 0 in
  let slots = t.replay_pred in
  slots.(0) <-
    Types.resolved_branch ~kind ~taken:taken_pred ~target:(if taken_pred then target else 0);
  let seq = fire t tok ~slots ~packet_len:1 in
  let actual = Types.resolved_branch ~kind ~taken ~target in
  if wrong then mispredict t ~seq ~slot:0 actual else resolve t ~seq ~slot:0 actual;
  (* immediate commit: nothing else is in flight *)
  commit t;
  t.last_taken_pred <- taken_pred;
  t.last_metas <- p.p_metas;
  wrong

(* [path_bits_of_target] shifted in oldest-first, without the bit list. *)
let push_path t target =
  let folded =
    Cobra_util.Hashing.fold_int (Cobra_util.Hashing.pc_bits target) ~width:62
      ~bits:path_bits_per_branch
  in
  (* bit 0 goes in first, so it ends up oldest: reverse the bit order *)
  let v = ref 0 in
  for k = 0 to path_bits_per_branch - 1 do
    v := (!v lsl 1) lor ((folded lsr k) land 1)
  done;
  Ghist_provider.shift_base_bits t.path ~count:path_bits_per_branch !v

(* [Types.resolved_branch] without the allocation in steady state: taken or
   targeted outcomes come from a small direct-mapped cache of immutable
   records keyed on (kind, taken, target), so a trace's recurring branches
   reuse theirs. *)
let intern_resolved t ~kind ~taken ~target =
  if (not taken) && target = 0 then Types.resolved_branch ~kind ~taken ~target
  else begin
    let k = Types.branch_kind_to_int kind in
    let cache = t.resolved_cache in
    let h =
      ((target lsr 2) lxor (target lsr 12) lxor (k lsl 7) lxor if taken then 0x3a5 else 0)
      land (resolved_cache_size - 1)
    in
    let r = cache.(h) in
    if
      r.Types.r_is_branch && r.Types.r_taken = taken && r.Types.r_target = target
      && Types.branch_kind_to_int r.Types.r_kind = k
    then r
    else begin
      let r = Types.resolved_branch ~kind ~taken ~target in
      cache.(h) <- r;
      r
    end
  end

(* The reference transaction's net effect in closed form. On a quiesced
   pipeline the speculative histories equal the providers' bases, and the
   predict-time pushes, the fire-time predecode correction, the mispredict
   restore and the commit collapse into one update per branch. The
   context's histories are the providers' registers themselves, so the
   events — in component order, as [fire], [mispredict] and [commit]
   deliver them — go out first, while they still hold the predict-time
   values, and the registers shift after. *)
let replay_step t ~pc ~kind ~taken ~target =
  if observed t || not (quiesced t) then
    invalid_arg
      "Pipeline.replay_step: needs a quiesced pipeline with no observer attached";
  let ctx = t.replay_ctx in
  Context.renew ctx ~pc ~live_slots:1;
  Lhist_provider.read_into t.lhist ~pc ctx.Context.lhists.(0);
  let metas = t.replay_metas in
  let rows = eval t ctx metas None in
  let final = rows.(t.depth - 1).(0) in
  let taken_pred = predicted_taken ~kind final in
  let wrong = mispredicted ~kind ~taken ~target final in
  let target = if target >= 0 then target else 0 in
  let pred = t.replay_pred and actual = t.replay_actual in
  set_slot pred 0 (intern_resolved t ~kind ~taken:taken_pred ~target:(if taken_pred then target else 0));
  set_slot actual 0 (intern_resolved t ~kind ~taken ~target);
  (* the bits the transaction leaves in the histories: with predecode
     correction (or after the mispredict restore) the actual outcome — one
     bit per conditional, the target when taken; a right prediction
     without it commits what the Fetch-1 composite's slot-0 opinion said *)
  let push_dir, dir, push_tgt, tgt =
    if t.cfg.predecode_history_correction || wrong then
      ((match kind with Types.Cond -> true | _ -> false), taken, taken, target)
    else begin
      let op = rows.(0).(0) in
      let branch = match op.Types.o_branch with Some b -> b | None -> false in
      let op_taken = match op.Types.o_taken with Some b -> b | None -> false in
      ( branch && (match op.Types.o_kind with None | Some Types.Cond -> true | Some _ -> false),
        op_taken,
        branch && op_taken,
        match op.Types.o_target with Some v -> v | None -> 0 )
    end
  in
  let comps = t.comps in
  for i = 0 to Array.length comps - 1 do
    comps.(i).fire t.replay_fire.(i)
  done;
  if wrong then
    for i = 0 to Array.length comps - 1 do
      comps.(i).mispredict t.replay_mispredict.(i)
    done;
  for i = 0 to Array.length comps - 1 do
    comps.(i).update t.replay_update.(i)
  done;
  t.next_token <- t.next_token + 1;
  if push_dir then begin
    Ghist_provider.shift_base t.ghist dir;
    Lhist_provider.push t.lhist ~pc dir
  end;
  if t.cfg.path_bits > 0 && push_tgt then push_path t tgt;
  t.last_taken_pred <- taken_pred;
  if t.last_metas != metas then t.last_metas <- metas;
  wrong
