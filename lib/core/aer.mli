(** AER — the paper's almost-everywhere to everywhere agreement
    protocol (Section 3).

    Each correct node starts with a candidate string; more than half of
    all nodes are correct and hold the common gstring. The protocol has
    two phases:

    - {b Push} (Section 3.1.1): every node diffuses its initial
      candidate to the nodes whose push quorum it belongs to; a node
      accepts a string into its candidate list L_x only when a strict
      majority of the push quorum I(s, x) vouches for it.
    - {b Pull} (Section 3.1.2, Algorithms 1–3): for each candidate, the
      node polls a random poll list J(x, r) through the filtered
      forwarding chain H(s, x) → H(s, w) → w, and decides on the first
      candidate confirmed by a majority of its poll list.

    The module satisfies {!Fba_sim.Protocol.S}, so it runs unchanged on
    the synchronous engine (rushing or not) and the asynchronous one.

    One implementation deviation from the paper's pseudo-code is
    recorded in DESIGN.md (substitution 6): messages whose string does
    not match the receiver's current belief are buffered and replayed
    when the belief changes (upon decision), rather than dropped. Under
    asynchrony the two are equivalent (the scheduler could simply have
    delayed those messages); under a synchronous schedule the literal
    reading can starve late deciders. *)

type config

val config_of_scenario :
  ?strict_drop:bool ->
  ?events:Fba_sim.Events.sink ->
  ?compile:bool ->
  ?builder:Compiled.builder ->
  Scenario.t ->
  config
(** Shared immutable setup (samplers, memoized quorums, initial
    candidate assignment). The same value must be used for every node
    of an execution — quorum caches inside are shared deliberately.
    [strict_drop] (default false) applies the paper's pseudo-code
    literally, dropping belief-mismatched messages instead of buffering
    them (DESIGN.md substitution 6) — exposed for the ablation that
    shows why we buffer. [events] receives {!Fba_sim.Events.Phase}
    markers at the protocol's natural transitions (push → poll → fw1 →
    fw2); pass the same sink to the engine to interleave them with the
    message events. Markers never alter protocol behaviour. [compile]
    (default: on unless the [FBA_NO_COMPILE] environment variable is
    set) lets the engines lower the scenario into flat dispatch tables
    ({!Compiled}) before the run; on or off, executions are
    byte-identical — the switch exists for the parity harness and
    A/B measurements. [builder] supplies reusable compile scratch
    ({!Compiled.builder}) for instance streams. *)

val config_epoch : prev:config -> Scenario.t -> config
(** Epoch reuse for instance streams ({!Fba_harness.Service}): a
    config for [scenario] whose quorum caches, push plan and compile
    scratch are [prev]'s, reset in place — instance k+1 evaluates into
    storage instance k already paid for. [scenario] must share
    [prev]'s interner value ({!Scenario.make}'s [?intern] round-trip).
    Behaviour is identical to a fresh {!config_of_scenario}; [prev]
    must no longer be used once the new config exists. *)

val config_params : config -> Params.t
val config_scenario : config -> Scenario.t

val config_layout : config -> Msg.Layout.t
(** The packed field widths of the run — the same value as
    [(config_scenario cfg).layout]; every word this config packs or
    decodes uses it. *)

val config_compiled : config -> Compiled.t option
(** The lowered run structure, once {!Fba_sim.Protocol.S.compile} has
    run on a config created with [~compile:true] ([None] otherwise). *)

val config_intern : config -> Intern.t
(** The scenario's interner — the same value as
    [(config_scenario cfg).intern]; adversaries and tests use it to
    pack messages for injection. *)

include Fba_sim.Protocol.S with type config := config and type msg = Msg.Packed.t
(** Messages are packed immediates ({!Msg.Packed}): handlers run
    entirely on int words and emit through [receive_into] without
    allocating. [on_receive] remains as a list-returning shim over the
    same handlers. *)

val pack : config -> Msg.t -> msg
(** Pack a variant message onto the wire plane, interning its payloads
    in the run's interner. *)

val unpack : config -> msg -> Msg.t
(** Exact inverse of {!pack}. *)

val phase_of_kind : string -> string
(** Map a message kind (first token of {!Msg.pp}) onto the protocol
    phase it belongs to: Push ↦ "push"; Poll, Pull and Answer ↦ "poll"
    (the Algorithm 1 poll round-trip); Fw1 ↦ "fw1"; Fw2 ↦ "fw2"
    (the Algorithm 2/3 forwarding bursts). Unknown kinds map to
    themselves. The classifier for {!Fba_sim.Events.Phase_acc}: because
    every message belongs to exactly one phase, per-phase bits sum to
    [Metrics.total_bits_all]. *)

val fw1_burst_order : int list -> int list
(** The wire order of Algorithm 2's serve-all Fw2 burst: given a
    group's targets w, newest first, the order their Fw2s are emitted
    in — exactly the list a [Hashtbl.create 8] holding them (added
    oldest first) builds with a consing [Hashtbl.fold]. The handler
    keeps its targets in a flat store and emulates that order, which
    the determinism goldens pin. *)

val pos_set_words : int -> int
(** Words of a sender-set record for a quorum of degree [d]: a count,
    then [⌈d/62⌉] mask words. The handlers keep the distinct senders
    of each push, Fw1 and Fw2 quorum as such a record in a per-node
    arena, a sender being its position in the quorum. *)

val pos_set_add : int array -> int -> pos:int -> int
(** [pos_set_add a o ~pos] adds quorum position [pos] (0 ≤ pos < d) to
    the sender-set record at offset [o] of [a] (zero words are the
    empty set) and returns the set's new cardinality, or [-1] if [pos]
    was already in it. Touches no word outside the record. *)

(** {2 State inspection (experiments and tests)} *)

val belief : state -> string
(** Current s_this. *)

val decided : state -> string option

val candidates : state -> string list
(** The candidate list L_x. *)

val candidate_count : state -> int

val push_messages_sent : state -> int
(** Number of push-phase messages this node sent (Lemma 3). *)

val deferred_count : state -> int
(** Buffered messages awaiting a belief change. *)

val answers_sent : state -> int
(** Total Answer messages emitted (the Count_s filter of Algorithm 3
    sums over strings here). *)
