(** Hash-based (θ,δ)-samplers (Section 2.2 of the paper).

    The paper needs three shared sampling functions:
    - I : D × [n] → [n]^d, the {e Push Quorums} — [I (s, x)] is the set
      of nodes from which [x] accepts pushes for candidate string [s];
    - H : D × [n] → [n]^d, the {e Pull Quorums} — proxies that filter
      and forward pull traffic;
    - J : [n] × R → [n]^d, the {e Poll Lists} — the authoritative
      sample a node consults to verify one candidate.

    Lemma 1 (after KLST11) guarantees such samplers exist; like all
    practical instantiations we realize them as keyed hash functions,
    which satisfy the sampler properties with high probability — the
    [Property_check] module measures exactly that, and the adversary is
    given explicit query access rather than hash inversion.

    A sampler value is cheap (a seed and two sizes); quorum evaluation
    costs O(d) hashes. All nodes share the same seeds, which the model
    permits: samplers are common knowledge, only [r] labels and node
    RNGs are private. *)

type t

val create : seed:int64 -> n:int -> d:int -> t
(** [create ~seed ~n ~d]: quorums of [d] distinct nodes out of [n].
    Requires [1 <= d <= n]. *)

val n : t -> int

val d : t -> int
(** Target quorum cardinality; all quorums have exactly this size. *)

val default_d : n:int -> int
(** The d = Θ(log n) the paper's lemmas use: [4 * ceil_log2 n],
    clamped to [n]. *)

val quorum_sx : t -> s:string -> x:int -> int array
(** Quorum keyed by a candidate string and a node — the shape of I and
    H. Deterministic in (seed, s, x); elements are distinct. *)

val mem_sx : t -> s:string -> x:int -> y:int -> bool
(** [mem_sx t ~s ~x ~y] iff [y] is in [quorum_sx t ~s ~x]. Early-exits
    the counter-mode draw as soon as [y] appears; allocation-free. *)

val quorum_xr : t -> x:int -> r:int64 -> int array
(** Quorum keyed by a node and a random label — the shape of J. *)

val mem_xr : t -> x:int -> r:int64 -> y:int -> bool

(** {2 Key-state interface}

    A quorum is a pure function of the absorbed 64-bit key state, so
    the state works both as a compact cache key ({!Cache} uses it with
    an open-addressing int64 table, avoiding per-lookup tuple boxing)
    and as the input to batch evaluation into flat storage. *)

val key_sx : t -> s:string -> x:int -> int64
(** The absorbed key state of I/H-shaped quorums. *)

val key_xr : t -> x:int -> r:int64 -> int64
(** The absorbed key state of J-shaped quorums. *)

val quorum_of_key : t -> int64 -> int array
(** [quorum_of_key t (key_sx t ~s ~x)] = [quorum_sx t ~s ~x]. *)

val quorum_into : t -> int64 -> int array -> pos:int -> unit
(** Draw the quorum for a key state into [out.(pos .. pos + d - 1)] —
    the building block of flat precomputed tables. *)

val mem_of_key : t -> int64 -> y:int -> bool
(** Early-exit membership on a key state; allocation-free. *)

val mem_range : int array -> int -> int -> int -> bool
(** [mem_range a v i stop] iff [v] is among [a.(i .. stop - 1)]: the
    monomorphic, closure-free scan behind duplicate rejection in the
    draws and every quorum-membership test. *)

val majority_threshold : int -> int
(** [majority_threshold k] is the smallest count that constitutes
    "more than half of" a quorum of size [k], i.e. [k/2 + 1]. *)
