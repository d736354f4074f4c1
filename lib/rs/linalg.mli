(** Dense linear algebra over an abstract field — just enough Gaussian
    elimination to drive the Berlekamp–Welch decoder's linear system. *)

module Make (F : Field_intf.S) : sig
  val solve : F.t array array -> F.t array -> F.t array option
  (** [solve a b] returns some [x] with [A x = b], or [None] if the
      system is inconsistent. When the system is under-determined, free
      variables are set to zero (any solution works for the decoder).
      [a] is an array of rows; neither input is mutated. *)
end
