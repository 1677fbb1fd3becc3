(* Seeded input generation: every trace the benchmark replays or serves is
   written here from the workload seed, so one seed gives byte-identical
   files. *)

module Btrace = Cobra_trace_replay.Btrace
module Writer = Cobra_trace_replay.Writer
module Kernels = Cobra_workloads.Kernels
module Rng = Cobra_util.Rng

let md5 path = Digest.to_hex (Digest.file path)

(* [Kernels.h2p_mix]: 29 static sites, a handful of them PRNG-driven. *)
let h2p ~seed ~branches path =
  fst (Writer.export_stream ~max_branches:branches ~path (Kernels.h2p_mix ~seed ()))

(* [Kernels.aliasing]: half strongly biased, half random sites. *)
let aliasing ~seed ~sites ~branches path =
  fst (Writer.export_stream ~max_branches:branches ~path (Kernels.aliasing ~sites ~seed ()))

let wide_sites = 65536

(* A trace no BRISC kernel can produce: [wide_sites] static conditional
   branches, each with its own taken probability (a third strongly taken, a
   third strongly not taken, a third anywhere in between), visited in a fresh
   random order on each of [passes] passes, so every site appears [passes]
   times. Table footprint, tag allocation and repair dominate the
   predictors' work here, where the 29-site h2p trace fits in every table. *)
let wide ~seed ~passes path =
  let rng = Rng.create ~seed in
  let bias =
    Array.init wide_sites (fun _ ->
        match Rng.int rng 3 with 0 -> 0.97 | 1 -> 0.03 | _ -> Rng.float rng 1.0)
  in
  let order = Array.init wide_sites Fun.id in
  Writer.with_file path (fun w ->
      for _ = 1 to passes do
        for i = wide_sites - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let t = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- t
        done;
        Array.iter
          (fun s ->
            let taken = Rng.chance rng bias.(s) in
            Writer.add w
              (Btrace.cond ~gap:(4 + Rng.int rng 6) ~pc:(0x40_0000 + (4 * s)) ~taken ()))
          order
      done);
  passes * wide_sites
