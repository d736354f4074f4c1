module F = Gf2k.GF32
module S = Shamir.Make (F)

let prop_reconstruct_from_any_subset =
  QCheck.Test.make ~count:200 ~name:"any t+1 shares reconstruct"
    QCheck.(triple int (int_range 0 4) (int_range 0 100))
    (fun (seed, t, _) ->
      let g = Prng.of_int seed in
      let n = (3 * t) + 1 + Prng.int g 5 in
      let secret = F.random g in
      let shares = S.deal g ~t ~n ~secret in
      let ids = Prng.sample_distinct g (t + 1) n in
      let subset = List.map (fun i -> (i, shares.(i))) ids in
      F.equal (S.reconstruct subset) secret)

let prop_robust_reconstruct =
  QCheck.Test.make ~count:200 ~name:"robust reconstruction through t errors"
    QCheck.(pair int (int_range 1 3))
    (fun (seed, t) ->
      let g = Prng.of_int seed in
      let n = (3 * t) + 1 in
      let secret = F.random g in
      let shares = S.deal g ~t ~n ~secret in
      let errors = Prng.int g (t + 1) in
      let bad = Prng.sample_distinct g errors n in
      List.iter (fun i -> shares.(i) <- F.add shares.(i) (F.random_nonzero g)) bad;
      let all = List.init n (fun i -> (i, shares.(i))) in
      match S.robust_decode ~min_support:(t + 1) ~t all with
      | None -> false
      | Some (f, support) ->
          F.equal (S.P.eval f F.zero) secret
          && List.for_all (fun (i, _) -> not (List.mem i bad)) support)

(* t shares carry no information: for a fixed share pattern held by the
   adversary, every secret is equally likely. We verify the stronger
   exchangeability consequence: the distribution of any single share is
   uniform, and shares of two different secrets have identical marginal
   behaviour (chi-square on a small field). *)
let test_privacy_marginal_uniform () =
  let module F8 = Gf2k.GF8 in
  let module S8 = Shamir.Make (F8) in
  let g = Prng.of_int 77 in
  let buckets = Array.make 256 0 in
  let trials = 25600 in
  let secret = F8.of_int 42 in
  for _ = 1 to trials do
    let shares = S8.deal g ~t:2 ~n:7 ~secret in
    buckets.(F8.hash shares.(3) land 255) <- buckets.(F8.hash shares.(3) land 255) + 1
  done;
  (* Expected 100 per bucket; chi-square with 255 dof: mean 255,
     sd ~ 22.6; 400 is beyond 6 sigma. *)
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. 100.0 in
        acc +. (d *. d /. 100.0))
      0.0 buckets
  in
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.1f reasonable" chi2)
    true (chi2 < 400.0)

let test_joint_independence_of_t_shares () =
  (* With t = 1, any single share is independent of the secret: the pair
     (share_0 given secret s) and (share_0 given secret s') must have the
     same distribution. Compare empirical distributions coarsely. *)
  let module F8 = Gf2k.GF8 in
  let module S8 = Shamir.Make (F8) in
  let sample secret seed =
    let g = Prng.of_int seed in
    let buckets = Array.make 16 0 in
    for _ = 1 to 8000 do
      let shares = S8.deal g ~t:1 ~n:4 ~secret in
      let b = F8.hash shares.(0) land 15 in
      buckets.(b) <- buckets.(b) + 1
    done;
    buckets
  in
  let b1 = sample (F8.of_int 0) 1 and b2 = sample (F8.of_int 255) 2 in
  let chi2 = ref 0.0 in
  Array.iteri
    (fun i c1 ->
      let c2 = b2.(i) in
      let e = float_of_int (c1 + c2) /. 2.0 in
      let d1 = float_of_int c1 -. e and d2 = float_of_int c2 -. e in
      chi2 := !chi2 +. ((d1 *. d1) /. e) +. ((d2 *. d2) /. e))
    b1;
  (* 15 dof; 50 is far beyond any reasonable quantile. *)
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.1f" !chi2)
    true (!chi2 < 50.0)

let test_eval_points_nonzero_distinct () =
  let pts = List.init 20 S.eval_point in
  Alcotest.(check bool) "no zero" true
    (List.for_all (fun p -> not (F.equal p F.zero)) pts);
  Alcotest.(check int) "distinct" 20
    (List.length (List.sort_uniq F.compare pts))

let test_deal_validation () =
  let g = Prng.of_int 1 in
  Alcotest.check_raises "t >= n" (Invalid_argument "Shamir.deal: need t < n")
    (fun () -> ignore (S.deal g ~t:4 ~n:4 ~secret:F.zero))

let test_reconstruct_wrong_share_corrupts () =
  let g = Prng.of_int 3 in
  let secret = F.random g in
  let shares = S.deal g ~t:2 ~n:7 ~secret in
  let subset = [ (0, shares.(0)); (1, F.add shares.(1) F.one); (2, shares.(2)) ] in
  Alcotest.(check bool) "plain reconstruction is not robust" false
    (F.equal (S.reconstruct subset) secret)

let suite =
  [
    Alcotest.test_case "privacy: marginal uniform" `Quick
      test_privacy_marginal_uniform;
    Alcotest.test_case "privacy: share independent of secret" `Quick
      test_joint_independence_of_t_shares;
    Alcotest.test_case "eval points" `Quick test_eval_points_nonzero_distinct;
    Alcotest.test_case "deal validation" `Quick test_deal_validation;
    Alcotest.test_case "plain reconstruct not robust" `Quick
      test_reconstruct_wrong_share_corrupts;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ prop_reconstruct_from_any_subset; prop_robust_reconstruct ]
