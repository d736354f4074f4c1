module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 64

  let u8 t v =
    if v < 0 || v > 0xFF then invalid_arg "Wire.Writer.u8: out of range";
    Buffer.add_uint8 t v

  let u16 t v =
    if v < 0 || v > 0xFFFF then invalid_arg "Wire.Writer.u16: out of range";
    Buffer.add_uint16_le t v

  let u32 t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.Writer.u32: out of range";
    Buffer.add_uint16_le t (v land 0xFFFF);
    Buffer.add_uint16_le t (v lsr 16)

  let raw t b = Buffer.add_bytes t b
  let contents t = Buffer.to_bytes t
  let size t = Buffer.length t
end

module Reader = struct
  type t = { data : bytes; mutable pos : int }

  let of_bytes data = { data; pos = 0 }

  let need t n =
    if t.pos + n > Bytes.length t.data then
      invalid_arg "Wire.Reader: truncated input"

  let u8 t =
    need t 1;
    let v = Bytes.get_uint8 t.data t.pos in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = Bytes.get_uint16_le t.data t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    let low = u16 t in
    let high = u16 t in
    (high lsl 16) lor low

  let raw t n =
    need t n;
    let b = Bytes.sub t.data t.pos n in
    t.pos <- t.pos + n;
    b

  let is_exhausted t = t.pos = Bytes.length t.data

  let expect_end t =
    if not (is_exhausted t) then invalid_arg "Wire.Reader: trailing bytes"
end

module Crc32 = struct
  (* CRC-32 (IEEE 802.3), reflected, table-driven. *)
  let table =
    lazy
      (Array.init 256 (fun i ->
           let c = ref i in
           for _ = 1 to 8 do
             c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c))

  let digest b =
    let table = Lazy.force table in
    let crc = ref 0xFFFFFFFF in
    for i = 0 to Bytes.length b - 1 do
      crc := table.((!crc lxor Bytes.get_uint8 b i) land 0xFF) lxor (!crc lsr 8)
    done;
    !crc lxor 0xFFFFFFFF
end

module Envelope = struct
  type corruption =
    | Truncated_header
    | Bad_magic
    | Unsupported_version of int
    | Length_mismatch
    | Checksum_mismatch

  let describe = function
    | Truncated_header -> "truncated header"
    | Bad_magic -> "bad magic"
    | Unsupported_version v -> Printf.sprintf "unsupported version %d" v
    | Length_mismatch -> "payload length mismatch"
    | Checksum_mismatch -> "checksum mismatch"

  let header_len = 3
  let frame_overhead = 8 (* u32 length + u32 crc *)

  let header ~magic ~version =
    let w = Writer.create () in
    Writer.u16 w magic;
    Writer.u8 w version;
    Writer.contents w

  let frame payload =
    let w = Writer.create () in
    Writer.u32 w (Bytes.length payload);
    Writer.u32 w (Crc32.digest payload);
    Writer.raw w payload;
    Writer.contents w

  type parsed =
    | Short
    | Bad_checksum of { next : int }
    | Intact of { payload : bytes; next : int }

  let u32_at b pos =
    Bytes.get_uint16_le b pos lor (Bytes.get_uint16_le b (pos + 2) lsl 16)

  let parse_frame b pos =
    let size = Bytes.length b in
    if size - pos < frame_overhead then Short
    else
      let len = u32_at b pos in
      let next = pos + frame_overhead + len in
      if next > size then Short
      else
        let payload = Bytes.sub b (pos + frame_overhead) len in
        if Crc32.digest payload <> u32_at b (pos + 4) then Bad_checksum { next }
        else Intact { payload; next }

  let read_header ~magic ~readable:(lo, hi) b =
    if Bytes.length b < header_len then Error Truncated_header
    else if Bytes.get_uint16_le b 0 <> magic then Error Bad_magic
    else
      let v = Bytes.get_uint8 b 2 in
      if v < lo || v > hi then Error (Unsupported_version v) else Ok v

  let seal ~magic ~version payload =
    Bytes.cat (header ~magic ~version) (frame payload)

  let open_ ~magic ~readable b =
    let size = Bytes.length b in
    if size < header_len + frame_overhead then Error Truncated_header
    else
      match read_header ~magic ~readable b with
      | Error _ as e -> e
      | Ok _ when size <> header_len + frame_overhead + u32_at b header_len ->
          Error Length_mismatch
      | Ok version -> (
          match parse_frame b header_len with
          | Intact { payload; _ } -> Ok (version, payload)
          | Short | Bad_checksum _ -> Error Checksum_mismatch)
end

module Codec (F : Field_intf.S) = struct
  let write_elt w x = Writer.raw w (F.to_bytes x)
  let read_elt r = F.of_bytes (Reader.raw r F.byte_size)

  let write_elt_array w a =
    Writer.u16 w (Array.length a);
    Array.iter (write_elt w) a

  let read_elt_array r =
    let n = Reader.u16 r in
    Array.init n (fun _ -> read_elt r)

  let write_opt_elt_array w a =
    let n = Array.length a in
    Writer.u16 w n;
    (* Presence bitmap, one bit per slot, packed little-endian. *)
    let byte = ref 0 and fill = ref 0 in
    let flush_bits () =
      Writer.u8 w !byte;
      byte := 0;
      fill := 0
    in
    Array.iter
      (fun slot ->
        if slot <> None then byte := !byte lor (1 lsl !fill);
        incr fill;
        if !fill = 8 then flush_bits ())
      a;
    if !fill > 0 then flush_bits ();
    Array.iter (function Some x -> write_elt w x | None -> ()) a

  let read_opt_elt_array r =
    let n = Reader.u16 r in
    let bitmap = Reader.raw r ((n + 7) / 8) in
    let present i = Bytes.get_uint8 bitmap (i / 8) lsr (i mod 8) land 1 = 1 in
    Array.init n (fun i -> if present i then Some (read_elt r) else None)

  let encode_elt x = F.to_bytes x

  let decode_elt b =
    if Bytes.length b <> F.byte_size then
      invalid_arg "Wire.decode_elt: wrong length";
    F.of_bytes b

  let one_shot write read =
    ( (fun v ->
        let w = Writer.create () in
        write w v;
        Writer.contents w),
      fun b ->
        let r = Reader.of_bytes b in
        let v = read r in
        Reader.expect_end r;
        v )

  let encode_elt_array, decode_elt_array =
    one_shot write_elt_array read_elt_array

  let encode_opt_elt_array, decode_opt_elt_array =
    one_shot write_opt_elt_array read_opt_elt_array

  let elt_array_size n = 2 + (n * F.byte_size)

  let opt_elt_array_size a =
    let n = Array.length a in
    let present =
      Array.fold_left (fun acc s -> if s = None then acc else acc + 1) 0 a
    in
    2 + ((n + 7) / 8) + (present * F.byte_size)

  let payload_size ~clique ~poly_sizes =
    (* u16 clique length + u16 per id; u16 poly count + per polynomial a
       u16 id, u16 coefficient count, and the coefficients. *)
    2
    + (2 * List.length clique)
    + 2
    + List.fold_left (fun acc coeffs -> acc + 4 + (coeffs * F.byte_size)) 0 poly_sizes
end
