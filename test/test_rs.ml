module F = Gf2k.GF32
module P = Poly.Make (F)
module L = Linalg.Make (F)
module BW = Berlekamp_welch.Make (F)

let elt i = F.of_int (i land 0xFFFFFFFF)

(* Corrupt exactly [e] of the points (at distinct positions) with random
   non-zero offsets, so every corruption is a genuine error. *)
let corrupt g e points =
  let arr = Array.of_list points in
  let positions = Prng.sample_distinct g e (Array.length arr) in
  List.iter
    (fun i ->
      let x, y = arr.(i) in
      arr.(i) <- (x, F.add y (F.random_nonzero g)))
    positions;
  Array.to_list arr

let test_linalg_known_system () =
  (* Over GF(2^32): x + y = 3, x = 1  =>  y = 2 (xor arithmetic). *)
  let a = [| [| F.one; F.one |]; [| F.one; F.zero |] |] in
  let b = [| elt 3; elt 1 |] in
  match L.solve a b with
  | None -> Alcotest.fail "no solution"
  | Some x ->
      Alcotest.(check bool) "x=1" true (F.equal x.(0) (elt 1));
      Alcotest.(check bool) "y=2" true (F.equal x.(1) (elt 2))

let test_linalg_inconsistent () =
  (* x + y = 1 and x + y = 2: inconsistent. *)
  let a = [| [| F.one; F.one |]; [| F.one; F.one |] |] in
  let b = [| elt 1; elt 2 |] in
  Alcotest.(check bool) "inconsistent" true (L.solve a b = None)

let test_linalg_underdetermined () =
  let a = [| [| F.one; F.one; F.zero |] |] in
  let b = [| elt 5 |] in
  match L.solve a b with
  | None -> Alcotest.fail "should be solvable"
  | Some x ->
      let lhs = F.add (F.mul a.(0).(0) x.(0)) (F.add (F.mul a.(0).(1) x.(1)) (F.mul a.(0).(2) x.(2))) in
      Alcotest.(check bool) "satisfies" true (F.equal lhs (elt 5))

let prop_linalg_solves_random_systems =
  QCheck.Test.make ~count:200 ~name:"linalg solves consistent random systems"
    QCheck.(pair int (int_range 1 8))
    (fun (seed, n) ->
      let g = Prng.of_int seed in
      let a = Array.init n (fun _ -> Array.init n (fun _ -> F.random g)) in
      let x0 = Array.init n (fun _ -> F.random g) in
      let b =
        Array.init n (fun i ->
            let acc = ref F.zero in
            for j = 0 to n - 1 do
              acc := F.add !acc (F.mul a.(i).(j) x0.(j))
            done;
            !acc)
      in
      match L.solve a b with
      | None -> false
      | Some x ->
          (* Any solution must satisfy the system (it need not equal x0
             when a is singular). *)
          Array.for_all2
            (fun row rhs ->
              let acc = ref F.zero in
              Array.iteri (fun j v -> acc := F.add !acc (F.mul v x.(j))) row;
              F.equal !acc rhs)
            a b)

let prop_bw_decodes_with_errors =
  QCheck.Test.make ~count:200 ~name:"BW decodes with <= e corruptions"
    QCheck.(triple int (int_range 0 4) (int_range 0 3))
    (fun (seed, d, e) ->
      let g = Prng.of_int seed in
      let p = P.random g ~degree:d in
      let m = d + 1 + (2 * e) + Prng.int g 3 in
      let points = List.init m (fun i -> (elt (i + 1), P.eval p (elt (i + 1)))) in
      let actual_errors = Prng.int g (e + 1) in
      let corrupted = corrupt g actual_errors points in
      match BW.decode ~max_degree:d ~max_errors:e corrupted with
      | None -> false
      | Some f -> P.equal (P.of_coeffs (BW.P.coeffs f)) p)

let prop_bw_support =
  QCheck.Test.make ~count:100 ~name:"BW support excludes corrupted points"
    QCheck.(pair int (int_range 1 3))
    (fun (seed, e) ->
      let g = Prng.of_int seed in
      let d = 2 in
      let p = P.random g ~degree:d in
      let m = d + 1 + (2 * e) in
      let points = List.init m (fun i -> (elt (i + 1), P.eval p (elt (i + 1)))) in
      let corrupted = corrupt g e points in
      match BW.decode_with_support ~max_degree:d ~max_errors:e corrupted with
      | None -> false
      | Some (f, support) ->
          List.length support = m - e
          && List.for_all (fun (x, y) -> F.equal (BW.P.eval f x) y) support)

let test_bw_exact_when_no_errors () =
  let g = Prng.of_int 3 in
  let p = P.random g ~degree:3 in
  let points = List.init 4 (fun i -> (elt (i + 1), P.eval p (elt (i + 1)))) in
  match BW.decode ~max_degree:3 ~max_errors:0 points with
  | None -> Alcotest.fail "decode failed"
  | Some f -> Alcotest.(check bool) "recovers" true (P.equal f p)

let test_bw_rejects_too_few_points () =
  Alcotest.check_raises "too few points"
    (Invalid_argument "Berlekamp_welch.decode: too few points for uniqueness")
    (fun () ->
      ignore (BW.decode ~max_degree:3 ~max_errors:1 [ (elt 1, elt 1) ]))

let test_bw_detects_unrecoverable () =
  (* Points from a genuinely high-degree polynomial cannot be explained
     by degree <= 1 with at most 1 error. *)
  let points =
    [ (elt 1, elt 1); (elt 2, elt 4); (elt 3, elt 9); (elt 4, elt 16); (elt 5, elt 37) ]
  in
  (* x^2 over the integers does not match GF arithmetic; these are just
     five scattered values. Check the decoder is honest either way: if it
     returns a polynomial it must satisfy the agreement bound. *)
  match BW.decode_with_support ~max_degree:1 ~max_errors:1 points with
  | None -> ()
  | Some (_, support) ->
      Alcotest.(check bool) "agreement bound" true (List.length support >= 4)

let test_bw_beyond_error_budget_never_lies () =
  (* With more corruptions than max_errors the decoder may fail, but if
     it answers, the answer must satisfy its contract. *)
  let g = Prng.of_int 99 in
  for _ = 1 to 100 do
    let d = 2 and e = 1 in
    let p = P.random g ~degree:d in
    let m = d + 1 + (2 * e) in
    let points = List.init m (fun i -> (elt (i + 1), P.eval p (elt (i + 1)))) in
    let corrupted = corrupt g (e + 1) points in
    match BW.decode_with_support ~max_degree:d ~max_errors:e corrupted with
    | None -> ()
    | Some (f, support) ->
        Alcotest.(check bool) "contract" true
          (BW.P.degree f <= d && List.length support >= m - e)
  done

let suite =
  [
    Alcotest.test_case "linalg known system" `Quick test_linalg_known_system;
    Alcotest.test_case "linalg inconsistent" `Quick test_linalg_inconsistent;
    Alcotest.test_case "linalg underdetermined" `Quick test_linalg_underdetermined;
    Alcotest.test_case "BW exact no errors" `Quick test_bw_exact_when_no_errors;
    Alcotest.test_case "BW rejects too few points" `Quick
      test_bw_rejects_too_few_points;
    Alcotest.test_case "BW detects unrecoverable" `Quick
      test_bw_detects_unrecoverable;
    Alcotest.test_case "BW never lies beyond budget" `Quick
      test_bw_beyond_error_budget_never_lies;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        prop_linalg_solves_random_systems;
        prop_bw_decodes_with_errors;
        prop_bw_support;
      ]
