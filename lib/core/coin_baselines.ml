module Make (F : Field_intf.S) = struct
  module S = Shamir.Make (F)

  (* Robust reconstruction as each player performs it at exposure. *)
  let decode_per_player ~n ~t shares_by_sender =
    Array.init n (fun _ ->
        let shares = List.init n (fun j -> (j, shares_by_sender.(j))) in
        match S.robust_decode ~min_support:(t + 1) ~t shares with
        | Some (f, _) -> S.P.eval f F.zero
        | None -> assert false (* all shares honest in the baseline *))

  let from_scratch_coin g ~n ~t =
    (* Dealing round: t+1 dealers send one share to each player. *)
    let dealings =
      Array.init (t + 1) (fun _ -> S.deal g ~t ~n ~secret:(F.random g))
    in
    for _ = 1 to (t + 1) * n do
      Metrics.tick_message ~bytes_len:F.byte_size
    done;
    Metrics.tick_round ();
    (* Exposure round: every player sends its t+1 shares to everyone. *)
    for _ = 1 to n * (n - 1) do
      Metrics.tick_message ~bytes_len:((t + 1) * F.byte_size)
    done;
    Metrics.tick_round ();
    (* Every player interpolates each dealer's polynomial and sums the
       secrets: t+1 robust interpolations per player. *)
    let per_dealer_values =
      Array.map (fun shares -> (decode_per_player ~n ~t shares).(0)) dealings
    in
    let sums =
      Array.init n (fun _ ->
          Array.fold_left F.add F.zero per_dealer_values)
    in
    sums.(0)

  let trusted_dealer_coin g ~n ~t =
    let shares = S.deal g ~t ~n ~secret:(F.random g) in
    for _ = 1 to n do
      Metrics.tick_message ~bytes_len:F.byte_size
    done;
    Metrics.tick_round ();
    for _ = 1 to n * (n - 1) do
      Metrics.tick_message ~bytes_len:F.byte_size
    done;
    Metrics.tick_round ();
    (decode_per_player ~n ~t shares).(0)
end
