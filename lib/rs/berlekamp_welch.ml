module Make (F : Field_intf.S) = struct
  module P = Poly.Make (F)
  module L = Linalg.Make (F)

  (* For a candidate error count e, solve the linear system

       Q(x_i) - y_i * (E_0 + E_1 x_i + ... + E_{e-1} x_i^{e-1})
         = y_i * x_i^e                                  for each point i,

     where E(x) = x^e + E_{e-1} x^{e-1} + ... + E_0 is the monic error
     locator and deg Q <= max_degree + e. If the division Q / E is exact,
     the quotient is the candidate codeword polynomial. *)
  let attempt ~max_degree points e =
    let nq = max_degree + e + 1 in
    let rows =
      List.map
        (fun (x, y) ->
          let row = Array.make (nq + e) F.zero in
          let xp = ref F.one in
          for j = 0 to nq - 1 do
            row.(j) <- !xp;
            if j < nq - 1 then xp := F.mul !xp x
          done;
          let xp = ref F.one in
          for j = 0 to e - 1 do
            row.(nq + j) <- F.neg (F.mul y !xp);
            xp := F.mul !xp x
          done;
          row)
        points
    in
    let rhs =
      List.map (fun (x, y) -> F.mul y (F.pow x e)) points
    in
    match L.solve (Array.of_list rows) (Array.of_list rhs) with
    | None -> None
    | Some sol ->
        let q = P.of_coeffs (Array.sub sol 0 nq) in
        let locator =
          P.of_coeffs
            (Array.init (e + 1) (fun j -> if j = e then F.one else sol.(nq + j)))
        in
        let quotient, remainder = P.divmod q locator in
        if P.equal remainder P.zero then Some quotient else None

  let decode_with_support ~max_degree ~max_errors points =
    if max_degree < 0 || max_errors < 0 then
      invalid_arg "Berlekamp_welch.decode: negative parameter";
    let m = List.length points in
    if m < max_degree + 1 + (2 * max_errors) then
      invalid_arg "Berlekamp_welch.decode: too few points for uniqueness";
    Metrics.tick_interpolation ();
    (* The agreeing set is computed once: it decides acceptance and is
       returned as the support. *)
    let accept f =
      if P.degree f > max_degree then None
      else
        let support =
          List.filter (fun (x, y) -> F.equal (P.eval f x) y) points
        in
        if List.length support >= m - max_errors then Some (f, support)
        else None
    in
    (* Try the largest error count first; fall back in case the locator
       system is degenerate for an over-estimated e. *)
    let rec try_e e =
      if e < 0 then None
      else
        match Option.bind (attempt ~max_degree points e) accept with
        | Some _ as decoded -> decoded
        | None -> try_e (e - 1)
    in
    try_e max_errors

  let decode ~max_degree ~max_errors points =
    Option.map fst (decode_with_support ~max_degree ~max_errors points)
end
