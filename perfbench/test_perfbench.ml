(* Unit tests for the benchmark's own statistics and load generation. *)

let samples_of l =
  let s = Stats.create () in
  List.iter (Stats.add s) l;
  s

let nearest_rank sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

let test_percentile_matches_sort () =
  let g = Prng.of_int 7 in
  List.iter
    (fun len ->
      let xs = List.init len (fun _ -> float_of_int (Prng.int g 1000)) in
      let sorted = Array.of_list (List.sort compare xs) in
      List.iter
        (fun p ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "n=%d p%g" len p)
            (nearest_rank sorted p)
            (Stats.percentile (samples_of xs) p))
        [ 1.; 25.; 50.; 90.; 99.; 100. ])
    [ 1; 2; 3; 10; 101; 5000 ]

let test_percentile_edges () =
  let s = samples_of [ 3.; 1.; 2.; 4. ] in
  Alcotest.(check (float 0.)) "median of 4 is rank 2" 2.
    (Stats.percentile s 50.);
  Alcotest.(check (float 0.)) "p100 is the max" 4. (Stats.percentile s 100.);
  let constant = samples_of (List.init 1000 (fun _ -> 5.)) in
  Alcotest.(check (float 0.)) "constant input" 5.
    (Stats.percentile constant 99.);
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile (Stats.create ()) 50.))

let test_tail_rank () =
  let check n expect =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n=%d" n) expect
      (Stats.tail_rank n)
  in
  check 19 None;
  check 20 (Some 50.);
  check 175 (Some 94.);
  check 999 (Some 98.);
  check 1000 (Some 99.);
  check 1_000_000 (Some 99.);
  (* whatever rank is chosen keeps at least 10 samples beyond it *)
  for n = 20 to 3000 do
    match Stats.tail_rank n with
    | Some p ->
        if float_of_int n *. (1. -. (p /. 100.)) < 10. -. 1e-9 then
          Alcotest.failf "n=%d: p%g has fewer than 10 samples beyond" n p
    | None -> Alcotest.failf "n=%d: no tail" n
  done

let test_summary_never_reports_thin_p99 () =
  let s = samples_of (List.init 500 float_of_int) in
  match (Stats.summarize s).Stats.tail with
  | Some (p, _) -> Alcotest.(check (float 0.)) "p98 for 500 samples" 98. p
  | None -> Alcotest.fail "no tail"

let arrivals seed k =
  let a = Sched.Arrivals.create ~rate:300. (Prng.of_int seed) in
  List.init k (fun _ -> Sched.Arrivals.pop a)

let test_arrivals_deterministic () =
  Alcotest.(check (list (float 0.))) "same seed, same stream" (arrivals 3 500)
    (arrivals 3 500);
  Alcotest.(check bool) "another seed, another stream" false
    (arrivals 3 50 = arrivals 4 50);
  let xs = arrivals 11 30_000 in
  List.iteri
    (fun i x ->
      if i > 0 && x <= List.nth xs (i - 1) then Alcotest.fail "not increasing")
    (List.filteri (fun i _ -> i < 200) xs);
  let last = List.nth xs 29_999 in
  (* 30 000 arrivals at 300/s span ~100 s; 5% is > 8 sigma *)
  if Float.abs ((last /. 100.) -. 1.) > 0.05 then
    Alcotest.failf "30000 arrivals at 300/s took %.2f s" last

let action =
  Alcotest.testable
    (fun f -> function
      | Sched.Admit -> Format.fprintf f "Admit"
      | Sched.Close { first; last } ->
          Format.fprintf f "Close %d..%d" first last
      | Sched.Idle_until x -> Format.fprintf f "Idle_until %g" x)
    ( = )

let test_step () =
  let step = Sched.step ~period:0.01 in
  Alcotest.check action "idle until the tick"
    (Sched.Idle_until 0.01)
    (step ~now:0. ~due:infinity ~tick:1);
  Alcotest.check action "idle until the arrival" (Sched.Idle_until 0.004)
    (step ~now:0. ~due:0.004 ~tick:1);
  Alcotest.check action "on-time tick" (Sched.Close { first = 1; last = 1 })
    (step ~now:0.01 ~due:0.02 ~tick:1);
  Alcotest.check action "arrival due at the tick is admitted first" Sched.Admit
    (step ~now:0.01 ~due:0.01 ~tick:1);
  Alcotest.check action "overdue arrival before the overdue tick" Sched.Admit
    (step ~now:0.05 ~due:0.009 ~tick:1);
  (* A 45 ms stall from t = 10.5 ms: ticks 2, 3, 4 and 5 passed while
     busy; one close serves them all, lag measured from tick 2. *)
  Alcotest.check action "missed ticks merge into one close"
    (Sched.Close { first = 2; last = 5 })
    (step ~now:0.0555 ~due:0.021 ~tick:2);
  Alcotest.check action "a tick exactly at now is included"
    (Sched.Close { first = 2; last = 6 })
    (step ~now:0.06 ~due:infinity ~tick:2)

let test_merge_float_edges () =
  (* tick k * 0.1 is inexact in binary; the merge must include exactly
     the ticks whose computed time is <= now *)
  for k = 1 to 2000 do
    let now = Sched.tick_time ~period:0.1 k in
    match Sched.step ~period:0.1 ~now ~due:infinity ~tick:1 with
    | Sched.Close { first = 1; last } when last = k -> ()
    | _ -> Alcotest.failf "now = tick %d not merged exactly" k
  done

let test_crash_schedule () =
  let targets ?(offsets = (0, 48)) seed =
    let next = Sched.crashes ~snapshot_every:50 ~offsets (Prng.of_int seed) in
    List.init 200 (fun _ -> next ())
  in
  Alcotest.(check (list int)) "seed-determined" (targets 5) (targets 5);
  let ts = targets 9 in
  let first = List.hd ts in
  if first < 50 || first > 100 then Alcotest.failf "first crash at %d" first;
  ignore
    (List.fold_left
       (fun prev x ->
         if x - prev < 50 || x - prev > 100 then
           Alcotest.failf "crash gap %d (%d -> %d)" (x - prev) prev x;
         x)
       first (List.tl ts));
  List.iter
    (fun x ->
      if x mod 50 = 49 then Alcotest.failf "crash at snapshot close %d" x)
    ts;
  (* every block of 49 crashes covers every offset once *)
  let offsets =
    List.filteri (fun i _ -> i < 49) ts
    |> List.map (fun x -> x mod 50)
    |> List.sort compare
  in
  Alcotest.(check (list int))
    "stratified offsets" (List.init 49 Fun.id) offsets;
  let narrow = targets ~offsets:(19, 28) 3 in
  List.iter
    (fun x ->
      if x mod 50 < 19 || x mod 50 > 28 then Alcotest.failf "offset of %d" x)
    narrow;
  ignore
    (List.fold_left
       (fun prev x ->
         if x - prev < 50 || x - prev > 100 then
           Alcotest.failf "narrow gap %d" (x - prev);
         x)
       (List.hd narrow) (List.tl narrow))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile = nearest rank of sort" `Quick
            test_percentile_matches_sort;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
          Alcotest.test_case "tail rank keeps 10 beyond" `Quick test_tail_rank;
          Alcotest.test_case "no thin p99" `Quick
            test_summary_never_reports_thin_p99;
        ] );
      ( "sched",
        [
          Alcotest.test_case "arrival stream is seed-determined" `Quick
            test_arrivals_deterministic;
          Alcotest.test_case "event order and tick merge" `Quick test_step;
          Alcotest.test_case "merge at float tick edges" `Quick
            test_merge_float_edges;
          Alcotest.test_case "crash schedule" `Quick test_crash_schedule;
        ] );
    ]
