module Make (F : Field_intf.S) = struct
  module S = Shamir.Make (F)
  module Codec = Wire.Codec (F)

  type t = {
    n : int;
    fault_bound : int;
    shares : F.t array;
    trusted : bool array array option;
  }

  let dealer_coin g ~n ~t =
    Metrics.without_counting (fun () ->
        let secret = F.random g in
        { n; fault_bound = t; shares = S.deal g ~t ~n ~secret; trusted = None })

  let trusted_row c i j =
    match c.trusted with None -> true | Some m -> m.(i).(j)

  let ground_truth c =
    Metrics.without_counting (fun () ->
        let shares = List.init c.n (fun i -> (i, c.shares.(i))) in
        let t = c.fault_bound in
        Option.map
          (fun (f, _) -> S.P.eval f F.zero)
          (S.robust_decode ~min_support:(t + 1) ~t shares))

  let write w c =
    Wire.Writer.u16 w c.n;
    Wire.Writer.u16 w c.fault_bound;
    Codec.write_elt_array w c.shares;
    match c.trusted with
    | None -> Wire.Writer.u8 w 0
    | Some rows ->
        Wire.Writer.u8 w 1;
        Array.iter
          (fun row ->
            (* One bit per entry, packed row-major per player. *)
            let byte = ref 0 and fill = ref 0 in
            let flush () =
              Wire.Writer.u8 w !byte;
              byte := 0;
              fill := 0
            in
            Array.iter
              (fun b ->
                if b then byte := !byte lor (1 lsl !fill);
                incr fill;
                if !fill = 8 then flush ())
              row;
            if !fill > 0 then flush ())
          rows

  let read r =
    let n = Wire.Reader.u16 r in
    let fault_bound = Wire.Reader.u16 r in
    if n < 1 then invalid_arg "Sealed_coin.read: bad n";
    let shares = Codec.read_elt_array r in
    if Array.length shares <> n then
      invalid_arg "Sealed_coin.read: share count mismatch";
    let trusted =
      match Wire.Reader.u8 r with
      | 0 -> None
      | 1 ->
          Some
            (Array.init n (fun _ ->
                 let bitmap = Wire.Reader.raw r ((n + 7) / 8) in
                 Array.init n (fun j ->
                     Bytes.get_uint8 bitmap (j / 8) lsr (j mod 8) land 1 = 1)))
      | _ -> invalid_arg "Sealed_coin.read: bad trusted tag"
    in
    { n; fault_bound; shares; trusted }
end
