(** Small integer helpers used throughout the simulator. *)

val ilog2 : int -> int
(** [ilog2 n] is the floor of log2 [n]. Raises [Invalid_argument] on
    non-positive input. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is the ceiling of log2 [n] ([0] for [n = 1]).
    Raises [Invalid_argument] on non-positive input. *)

val isqrt : int -> int
(** [isqrt n] is the floor of the square root of [n]. Raises
    [Invalid_argument] on negative input. *)

val pow : int -> int -> int
(** [pow base e] is [base] raised to the non-negative power [e];
    no overflow checking. *)

val cdiv : int -> int -> int
(** [cdiv a b] is the ceiling of [a / b] for positive [b]. *)

val clamp : lo:int -> hi:int -> int -> int
(** [clamp ~lo ~hi x] bounds [x] into the inclusive interval
    [\[lo, hi\]]. *)

val hash_int : int -> int
(** [hash_int v] equals [Hashtbl.hash v] for every int [v] (the
    runtime's MurmurHash3-based hash, in [\[0, 2^30)]), computed in
    OCaml without the polymorphic [caml_hash] primitive, so a
    per-delivery module can reproduce a [Hashtbl]'s bucket order. *)
