(* Tests of the benchmark's own logic: percentile selection, failure
   accounting, the closure arithmetic, span self time and trace
   determinism. *)

open Cobench

let floats = Alcotest.(list (float 1e-12))

let supported () =
  let check n expect =
    Alcotest.(check (option (float 0.0)))
      (Printf.sprintf "n=%d" n) expect (Bstats.supported_percentile n)
  in
  check 0 None;
  check 19 None;
  check 20 (Some 50.0);
  check 40 (Some 75.0);
  check 100 (Some 90.0);
  check 200 (Some 95.0);
  check 999 (Some 95.0);
  check 1000 (Some 99.0);
  check 9999 (Some 99.0);
  check 10000 (Some 99.9)

let percentile () =
  let xs = List.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 (Bstats.percentile xs 99.0);
  Alcotest.(check int) "ten beyond p99" 10 (Bstats.beyond 1000 99.0);
  Alcotest.(check (float 0.0)) "median of 1..1000" 500.0 (Bstats.median xs);
  Alcotest.(check (float 0.0)) "median of one" 3.0 (Bstats.median [ 3.0 ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Bstats.percentile: no samples") (fun () ->
      ignore (Bstats.median []))

let upper_quartile () =
  (* a bimodal sample: the median jumps to the fast mode once half the
     samples are fast, the upper quartile stays in the slow mode *)
  let slow = [ 90.0; 91.0; 92.0; 93.0 ] in
  let few_fast = [ 45.0; 46.0 ] @ slow and half_fast = [ 45.0; 46.0; 47.0; 48.0 ] @ slow in
  Alcotest.(check (float 0.0)) "median, a third fast" 90.0 (Bstats.median few_fast);
  Alcotest.(check (float 0.0)) "median, half fast" 48.0 (Bstats.median half_fast);
  Alcotest.(check (float 0.0)) "upper quartile, a third fast" 92.0 (Bstats.upper_quartile few_fast);
  Alcotest.(check (float 0.0)) "upper quartile, half fast" 91.0 (Bstats.upper_quartile half_fast)

let ledger () =
  let l = Bstats.ledger () in
  Alcotest.(check (float 0.0)) "empty" 0.0 (Bstats.failed_frac l);
  for i = 1 to 8 do
    Bstats.check l (i mod 4 <> 0) (Printf.sprintf "op %d" i)
  done;
  Alcotest.(check int) "attempted" 8 (Bstats.attempted l);
  Alcotest.(check int) "failed" 2 (Bstats.failed l);
  Alcotest.(check (float 1e-12)) "failed_frac" 0.25 (Bstats.failed_frac l);
  Alcotest.(check (list string)) "reasons in order" [ "op 4"; "op 8" ] (Bstats.reasons l);
  (* concurrent recording from two threads loses nothing *)
  let l = Bstats.ledger () in
  let ts =
    List.init 2 (fun _ ->
        Thread.create (fun () -> for i = 1 to 10_000 do Bstats.check l (i mod 10 <> 0) "x" done) ())
  in
  List.iter Thread.join ts;
  Alcotest.(check int) "attempted x2" 20_000 (Bstats.attempted l);
  Alcotest.(check int) "failed x2" 2_000 (Bstats.failed l)

let closure () =
  let c = Bstats.closure ~reader_ns:40.0 ~engine_ns:560.0 ~file_ns:600.0 in
  Alcotest.(check (float 1e-12)) "closes" 1.0 c;
  Alcotest.(check (float 1e-12)) "nothing unexplained" 0.0 (Bstats.unexplained ~closure:c);
  let c = Bstats.closure ~reader_ns:40.0 ~engine_ns:440.0 ~file_ns:600.0 in
  Alcotest.(check (float 1e-12)) "missing layer" 0.8 c;
  Alcotest.(check (float 1e-12)) "unexplained share" 0.2 (Bstats.unexplained ~closure:c);
  Alcotest.(check (float 1e-12)) "over-counted" (-0.1)
    (Bstats.unexplained ~closure:(Bstats.closure ~reader_ns:60.0 ~engine_ns:600.0 ~file_ns:600.0))

let self_time () =
  let s id name parent start_s stop_s = { Span.id; name; parent; rid = 0; start_s; stop_s } in
  let spans =
    [
      s 1 "root" 0 0.0 10.0;
      s 2 "child" 1 1.0 4.0;
      s 3 "child" 1 3.0 5.0 (* overlaps the first child: counted once *);
      s 4 "child" 1 9.0 12.0 (* clipped to the parent *);
    ]
  in
  let row name = List.find (fun (n, _, _, _) -> n = name) (Span.self_times spans) in
  let _, n, total, self = row "root" in
  Alcotest.(check floats) "root" [ 1.0; 10.0; 5.0 ] [ float_of_int n; total; self ];
  let _, n, total, self = row "child" in
  Alcotest.(check floats) "children" [ 3.0; 8.0; 8.0 ] [ float_of_int n; total; self ]

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "cobench-%d-%s" (Unix.getpid ()) name)

let same_seed_same_bytes () =
  let gen f =
    let a = tmp "a" and b = tmp "b" and c = tmp "c" in
    let n = f ~seed:5 a in
    ignore (f ~seed:5 b);
    ignore (f ~seed:6 c);
    let r = (n, Gen.md5 a, Gen.md5 b, Gen.md5 c) in
    List.iter Sys.remove [ a; b; c ];
    r
  in
  let check name f =
    let _, a, b, c = gen f in
    Alcotest.(check string) (name ^ ": same seed") a b;
    Alcotest.(check bool) (name ^ ": other seed differs") true (a <> c)
  in
  check "h2p" (fun ~seed p -> Gen.h2p ~seed ~branches:2000 p);
  check "aliasing" (fun ~seed p -> Gen.aliasing ~seed ~sites:32 ~branches:2000 p);
  check "wide" (fun ~seed p -> Gen.wide ~seed ~passes:1 p);
  let path = tmp "w" in
  ignore (Gen.wide ~seed:5 ~passes:2 path);
  let sites = Hashtbl.create Gen.wide_sites in
  let n =
    Cobra_trace_replay.Reader.fold path ~init:0 ~f:(fun n r ->
        Hashtbl.replace sites r.Cobra_trace_replay.Btrace.b_pc ();
        n + 1)
  in
  Sys.remove path;
  Alcotest.(check int) "wide: records" (2 * Gen.wide_sites) n;
  Alcotest.(check int) "wide: every site appears" Gen.wide_sites (Hashtbl.length sites)

let () =
  Alcotest.run "cobench"
    [
      ( "bstats",
        [
          Alcotest.test_case "supported percentile" `Quick supported;
          Alcotest.test_case "percentile" `Quick percentile;
          Alcotest.test_case "upper quartile" `Quick upper_quartile;
          Alcotest.test_case "failed_frac ledger" `Quick ledger;
          Alcotest.test_case "closure arithmetic" `Quick closure;
        ] );
      ("span", [ Alcotest.test_case "self time" `Quick self_time ]);
      ("gen", [ Alcotest.test_case "same seed, same bytes" `Quick same_seed_same_bytes ]);
    ]
