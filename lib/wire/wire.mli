(** Wire encoding for protocol messages.

    The simulator's communication accounting charges each message its
    true serialized size; this module is where "true serialized size"
    comes from. It provides a minimal deterministic binary format —
    fixed-width little-endian integers, length-prefixed sequences,
    canonical field elements via {!Field_intf.S.to_bytes} — plus codecs
    for the message shapes the protocols exchange (share vectors, gamma
    vectors with holes, [Coin-Gen] grade-cast payloads).

    Encodings are self-delimiting, so codecs compose; decoding is strict
    and raises [Invalid_argument] on trailing garbage, truncation, or
    non-canonical field elements. *)

module Writer : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val raw : t -> bytes -> unit
  val contents : t -> bytes
  val size : t -> int
end

module Reader : sig
  type t

  val of_bytes : bytes -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val raw : t -> int -> bytes
  val is_exhausted : t -> bool

  val expect_end : t -> unit
  (** @raise Invalid_argument if bytes remain. *)
end

module Crc32 : sig
  val digest : bytes -> int
  (** CRC-32 (IEEE 802.3) of the whole buffer, in [[0, 2^32)]. *)
end

(** The one on-disk envelope: a header of magic (u16) and version (u8),
    then frames of u32 payload length, u32 CRC-32 of the payload, and
    the payload. A sealed file ({!Envelope.seal}) is a header and
    exactly one frame; a journal is a header and any number of appended
    frames. *)
module Envelope : sig
  type corruption =
    | Truncated_header
    | Bad_magic
    | Unsupported_version of int
    | Length_mismatch
    | Checksum_mismatch

  val describe : corruption -> string
  (** The diagnostic text, e.g. ["payload length mismatch"]. *)

  val seal : magic:int -> version:int -> bytes -> bytes

  val open_ :
    magic:int -> readable:int * int -> bytes -> (int * bytes, corruption) result
  (** Check a {!seal}ed file whose version must lie in [readable]
      (inclusive) and return [(version, payload)]. Checks run header
      first, then the exact length, then the checksum. *)

  val header_len : int
  val header : magic:int -> version:int -> bytes

  val read_header :
    magic:int -> readable:int * int -> bytes -> (int, corruption) result
  (** The version in the header at offset 0; [Truncated_header] when
      fewer than {!header_len} bytes exist. *)

  val frame : bytes -> bytes

  type parsed =
    | Short  (** the frame runs past the end of the bytes *)
    | Bad_checksum of { next : int }
    | Intact of { payload : bytes; next : int }
        (** [next] is the offset just past the frame *)

  val parse_frame : bytes -> int -> parsed
  (** Parse the frame starting at the given offset. *)
end

module Codec (F : Field_intf.S) : sig
  val write_elt : Writer.t -> F.t -> unit
  val read_elt : Reader.t -> F.t

  val write_elt_array : Writer.t -> F.t array -> unit
  (** u16 length prefix, then canonical elements. *)

  val read_elt_array : Reader.t -> F.t array

  val write_opt_elt_array : Writer.t -> F.t option array -> unit
  (** Length prefix, presence bitmap, then the present elements — the
      gamma-vector shape ([Coin-Gen] step 3). *)

  val read_opt_elt_array : Reader.t -> F.t option array

  val encode_elt : F.t -> bytes
  val decode_elt : bytes -> F.t
  (** One-shot helpers; [decode_elt] demands the exact length. *)

  val encode_elt_array : F.t array -> bytes
  val decode_elt_array : bytes -> F.t array

  val encode_opt_elt_array : F.t option array -> bytes
  val decode_opt_elt_array : bytes -> F.t option array
  (** One-shot array helpers (strict: decoding demands exact length).
      These are the wire codecs handed to {!Net.create} so byte-level
      corruption faults operate on real encodings. *)

  val elt_array_size : int -> int
  (** Wire size of an array of the given length, without encoding it. *)

  val opt_elt_array_size : F.t option array -> int

  val payload_size : clique:int list -> poly_sizes:int list -> int
  (** Wire size of a [Coin-Gen] grade-cast payload carrying the given
      clique and check polynomials with the given coefficient counts
      (u16 ids and length prefixes). Used for exact gradecast byte
      accounting. *)
end
