(* Differential suite for the one robust decoder, [Shamir.robust_decode].

   Two oracles pin it:
   - Bit-Gen's [decode_check] (the [~min_support:(n - t)] caller) against
     [decode_check_reference], the list-based decoder it replaced;
   - [robust_decode ~min_support:(t + 1)] against a direct
     [Berlekamp_welch.decode_with_support] call, over id lists that may
     repeat a player (a duplicating network delivers such inboxes to
     Coin-Expose's cold path).

   Any faster decoder behind [robust_decode] must keep both agreeing:
   equal polynomials, equal support, equal interpolation ticks, and no
   more field multiplications than the reference. *)

module F = Gf2k.GF32
module P = Poly.Make (F)
module S = Shamir.Make (F)
module BG = Bit_gen.Make (F)
module BW = Berlekamp_welch.Make (F)

(* Bit-Gen step 5 as it was written before [robust_decode]: the oracle. *)
let decode_check_reference ~n ~t gammas =
  let points =
    List.filter_map
      (fun k -> Option.map (fun v -> (S.eval_point k, v)) gammas.(k))
      (List.init n Fun.id)
  in
  let m_pts = List.length points in
  if m_pts < n - t then (None, Array.make n false)
  else
    let e = (m_pts - t - 1) / 2 in
    match BW.decode_with_support ~max_degree:t ~max_errors:e points with
    | Some (f, support) when List.length support >= n - t ->
        let in_support =
          Array.init n (fun k ->
              match gammas.(k) with
              | Some v -> F.equal (P.eval f (S.eval_point k)) v
              | None -> false)
        in
        (Some f, in_support)
    | Some _ | None -> (None, Array.make n false)

(* [robust_decode ~min_support:(t + 1)] spelled out over the raw
   decoder: the support is mapped back to shares by physical identity,
   so a repeated player id with two different values stays two shares. *)
let robust_decode_reference ~t shares =
  let m = List.length shares in
  if m <= t then None
  else
    let mapped =
      List.map (fun ((i, s) as share) -> (share, (S.eval_point i, s))) shares
    in
    let e = (m - t - 1) / 2 in
    match
      BW.decode_with_support ~max_degree:t ~max_errors:e (List.map snd mapped)
    with
    | Some (f, on_f) when List.length on_f >= t + 1 ->
        Some
          ( f,
            List.filter_map
              (fun (share, pt) ->
                if List.memq pt on_f then Some share else None)
              mapped )
    | Some _ | None -> None

let same_coeffs a b =
  Array.length a = Array.length b && Array.for_all2 F.equal a b

let same_poly a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> same_coeffs a b
  | _ -> false

(* The check polynomial a dealer's gammas lie on: random, or vanishing
   at zero as in a refresh ([zero_secrets]) dealing. *)
let check_poly g ~t =
  let c0 = if Prng.bool g then F.zero else F.random g in
  P.random_with_c0 g ~degree:t ~c0

(* Corrupt a share: independently at random, or onto a second degree-t
   polynomial shared by every corrupted player (a coordinated lie). *)
let corrupter g ~t =
  if Prng.bool g then fun _ v -> F.add v (F.random_nonzero g)
  else
    let lie = P.random g ~degree:t in
    fun i v ->
      let w = P.eval lie (S.eval_point i) in
      if F.equal w v then F.add v F.one else w

(* One player's gamma vector: presence just below, at, or above the
   n - t acceptance floor (or complete), and a corruption count from
   zero up to two past the error budget of the present shares. *)
let gamma_vector g ~n ~t =
  let f = check_poly g ~t in
  let present = min n (n - t - 1 + Prng.int g 4) in
  let present = if Prng.int g 4 = 0 then n else present in
  let ids = Prng.sample_distinct g present n in
  let budget = (present - t - 1) / 2 in
  let wrong = min present (Prng.int g (budget + 3)) in
  let bad = List.map (List.nth ids) (Prng.sample_distinct g wrong present) in
  let corrupt = corrupter g ~t in
  let gammas = Array.make n None in
  List.iter
    (fun k ->
      let v = P.eval f (S.eval_point k) in
      gammas.(k) <- Some (if List.mem k bad then corrupt k v else v))
    ids;
  gammas

(* A list of (player, share) pairs that may repeat players, with some
   entries corrupted, of length anywhere from t (too few) to n + 3. *)
let share_list g ~n ~t =
  let f = check_poly g ~t in
  let len = t + Prng.int g (n - t + 4) in
  let corrupt = corrupter g ~t in
  let rate = Prng.int g 4 in
  List.init len (fun _ ->
      let i = Prng.int g n in
      let v = P.eval f (S.eval_point i) in
      (i, if Prng.int g 8 < rate then corrupt i v else v))

let configs = [ (7, 2); (13, 2); (25, 4) ]

let prop_decode_check (n, t) =
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "decode_check = reference (n=%d t=%d)" n t)
    QCheck.int
    (fun seed ->
      let gammas = gamma_vector (Prng.of_int seed) ~n ~t in
      let (rf, rs), rc =
        Metrics.with_counting (fun () -> decode_check_reference ~n ~t gammas)
      in
      let (f, s), c =
        Metrics.with_counting (fun () -> BG.decode_check ~n ~t gammas)
      in
      same_poly (Option.map BW.P.coeffs rf) (Option.map BG.P.coeffs f)
      && rs = s
      && rc.Metrics.interpolations = c.Metrics.interpolations
      && c.Metrics.field_mults <= rc.Metrics.field_mults)

let prop_robust_decode (n, t) =
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "robust_decode t+1 = BW (n=%d t=%d)" n t)
    QCheck.int
    (fun seed ->
      let shares = share_list (Prng.of_int seed) ~n ~t in
      let r, rc =
        Metrics.with_counting (fun () -> robust_decode_reference ~t shares)
      in
      let d, c =
        Metrics.with_counting (fun () ->
            S.robust_decode ~min_support:(t + 1) ~t shares)
      in
      let agree =
        match (r, d) with
        | None, None -> true
        | Some (rf, rsup), Some (f, sup) ->
            same_coeffs (BW.P.coeffs rf) (S.P.coeffs f)
            && List.length rsup = List.length sup
            && List.for_all2 ( == ) rsup sup
        | _ -> false
      in
      agree
      && rc.Metrics.interpolations = c.Metrics.interpolations
      && c.Metrics.field_mults <= rc.Metrics.field_mults)

(* The generators must reach both verdicts and partial support, or the
   properties above compare trivial cases. *)
let test_scenarios_cover_outcomes () =
  List.iter
    (fun (n, t) ->
      let accepted = ref 0 and rejected = ref 0 and partial = ref 0 in
      let dups = ref 0 and decoded = ref 0 and undecoded = ref 0 in
      for seed = 0 to 149 do
        let gammas = gamma_vector (Prng.of_int seed) ~n ~t in
        (match BG.decode_check ~n ~t gammas with
        | Some _, s ->
            incr accepted;
            if Array.exists not s then incr partial
        | None, _ -> incr rejected);
        let shares = share_list (Prng.of_int seed) ~n ~t in
        let ids = List.sort_uniq compare (List.map fst shares) in
        if List.length ids < List.length shares then incr dups;
        match S.robust_decode ~min_support:(t + 1) ~t shares with
        | Some _ -> incr decoded
        | None -> incr undecoded
      done;
      List.iter
        (fun (what, k) ->
          if !k = 0 then
            Alcotest.failf "n=%d t=%d: no scenario with %s" n t what)
        [
          ("acceptance", accepted);
          ("rejection", rejected);
          ("partial support", partial);
          ("repeated ids", dups);
          ("a t+1 decode", decoded);
          ("a failed t+1 decode", undecoded);
        ])
    configs

(* Below the share floor no decode runs: nothing is ticked. *)
let test_short_input_ticks_nothing () =
  let n = 13 and t = 2 in
  let g = Prng.of_int 5 in
  let f = check_poly g ~t in
  let shares =
    List.init (n - t - 1) (fun i -> (i, P.eval f (S.eval_point i)))
  in
  let r, c =
    Metrics.with_counting (fun () ->
        S.robust_decode ~min_support:(n - t) ~t shares)
  in
  Alcotest.(check bool) "none" true (r = None);
  Alcotest.(check int) "no interpolation" 0 c.Metrics.interpolations;
  Alcotest.(check int) "no mults" 0 c.Metrics.field_mults

let suite =
  [
    Alcotest.test_case "scenarios cover every outcome" `Quick
      test_scenarios_cover_outcomes;
    Alcotest.test_case "short input ticks nothing" `Quick
      test_short_input_ticks_nothing;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      (List.concat_map
         (fun nt -> [ prop_decode_check nt; prop_robust_decode nt ])
         configs)
