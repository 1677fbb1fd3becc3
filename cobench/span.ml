(* In-memory spans recorded by the benchmark around each call into a layer
   of the program: name, start, end, parent span and the request id shared
   by every span of one serve request. Kept in memory while the run
   measures and written out once at exit. Off unless [enable] was called;
   a disabled [with_] is a direct call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  rid : int;  (** serve request id; 0 outside the serve loop *)
  start_s : float;
  stop_s : float;
}

let on = ref false
let next_id = Atomic.make 1
let recorded : t list ref = ref []
let lock = Mutex.create ()

let enable () = on := true
let disable () = on := false

let with_ ?(parent = 0) ?(rid = 0) name f =
  if not !on then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let start_s = Unix.gettimeofday () in
    let finish () =
      let s = { id; name; parent; rid; start_s; stop_s = Unix.gettimeofday () } in
      Mutex.lock lock;
      recorded := s :: !recorded;
      Mutex.unlock lock
    in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let all () =
  Mutex.lock lock;
  let l = !recorded in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.id b.id) l

let to_json s =
  Printf.sprintf
    {|{"id": %d, "name": %S, "parent": %d, "rid": %d, "start_s": %.6f, "end_s": %.6f}|}
    s.id s.name s.parent s.rid s.start_s s.stop_s

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun s -> output_string oc (to_json s); output_char oc '\n') spans)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of each span: its duration minus the part of its interval its
   child spans cover. Returns [(name, count, total_s, self_s)] per span
   name, in first-appearance order. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.start_s, s.stop_s))
    spans;
  let order = ref [] and acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let dur = s.stop_s -. s.start_s in
      let self = dur -. covered ~lo:s.start_s ~hi:s.stop_s (Hashtbl.find_all children s.id) in
      match Hashtbl.find_opt acc s.name with
      | None ->
        order := s.name :: !order;
        Hashtbl.replace acc s.name (1, dur, self)
      | Some (n, d, sf) -> Hashtbl.replace acc s.name (n + 1, d +. dur, sf +. self))
    spans;
  List.rev_map
    (fun name ->
      let n, d, sf = Hashtbl.find acc name in
      (name, n, d, sf))
    !order
