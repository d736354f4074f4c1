module Make (F : Field_intf.S) = struct
  module P = Poly.Make (F)
  module BW = Berlekamp_welch.Make (F)
  module G = Grid.Make (F)

  let eval_point i =
    assert (i >= 0);
    F.of_int (i + 1)

  (* One plan per (n, t) session, shared by every deal/verify/
     reconstruct in this functor instantiation. The table is tiny: a
     deployment touches a handful of (n, t) pairs over its lifetime. *)
  let grids : (int * int, G.t) Hashtbl.t = Hashtbl.create 7

  let grid ~n ~t =
    match Hashtbl.find_opt grids (n, t) with
    | Some plan -> plan
    | None ->
        let plan = G.make ~n ~t in
        Hashtbl.replace grids (n, t) plan;
        plan

  let share_poly g ~t ~secret =
    assert (t >= 0);
    P.random_with_c0 g ~degree:t ~c0:secret

  let deal_with plan g ~secret =
    let f = share_poly g ~t:(G.degree_bound plan) ~secret in
    G.eval_poly plan f

  let deal g ~t ~n ~secret =
    if t >= n then invalid_arg "Shamir.deal: need t < n";
    deal_with (grid ~n ~t) g ~secret

  (* Batch dealing: draw every sharing polynomial first (in secret
     order — evaluation consumes no randomness, so the PRNG stream is
     identical to M sequential [deal_with] calls), then evaluate the
     whole batch through the grid's batch kernel. *)
  let deal_batch_with plan g ~secrets =
    let t = G.degree_bound plan in
    let polys = Array.map (fun secret -> share_poly g ~t ~secret) secrets in
    G.eval_poly_batch plan polys

  let deal_batch g ~t ~n ~secrets =
    if t >= n then invalid_arg "Shamir.deal_batch: need t < n";
    deal_batch_with (grid ~n ~t) g ~secrets

  let deal_naive g ~t ~n ~secret =
    if t >= n then invalid_arg "Shamir.deal_naive: need t < n";
    let f = share_poly g ~t ~secret in
    Array.init n (fun i -> P.eval f (eval_point i))

  let reconstruct shares =
    if shares = [] then invalid_arg "Shamir.reconstruct: no shares";
    let m = List.length shares in
    let xs = Array.make m F.zero and ys = Array.make m F.zero in
    List.iteri
      (fun idx (i, s) ->
        xs.(idx) <- eval_point i;
        ys.(idx) <- s)
      shares;
    P.interpolate_at_arrays ~xs ~ys F.zero

  let reconstruct_with plan shares =
    if shares = [] then invalid_arg "Shamir.reconstruct_with: no shares";
    G.reconstruct_zero plan shares

  (* The one robust-interpolation policy (Bit-Gen step 5, Coin-Expose
     step 2): Berlekamp-Welch through up to (m - t - 1) / 2 wrong shares,
     then at least [min_support] shares must lie on the result. BW's
     support is an ordered physical sublist of [points], so one merge
     walk maps it back onto [shares] without field arithmetic. *)
  let robust_decode ~min_support ~t shares =
    let m = List.length shares in
    if m < min_support || m <= t then None
    else
      let points = List.map (fun (i, s) -> (eval_point i, s)) shares in
      let e = (m - t - 1) / 2 in
      match BW.decode_with_support ~max_degree:t ~max_errors:e points with
      | Some (f, on_f) when List.length on_f >= min_support ->
          let rec keep shares points on_f =
            match (shares, points, on_f) with
            | share :: shares, p :: points, q :: rest when p == q ->
                share :: keep shares points rest
            | _ :: shares, _ :: points, _ :: _ -> keep shares points on_f
            | _ -> []
          in
          Some (f, keep shares points on_f)
      | Some _ | None -> None
end
