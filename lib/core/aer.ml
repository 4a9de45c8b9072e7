open Fba_stdx
module Cache = Fba_samplers.Cache
module Push_plan = Fba_samplers.Push_plan
module Packed = Msg.Packed

type config = {
  params : Params.t;
  scenario : Scenario.t;
  layout : Msg.Layout.t;  (* the scenario's packed field widths *)
  intern : Intern.t;  (* the scenario's string/label interner *)
  qi : Cache.t;  (* push quorums I *)
  qh : Cache.t;  (* pull quorums H *)
  qj : Cache.t;  (* poll lists J *)
  plan : Push_plan.t;  (* inverse of I, for the push fan-out *)
  strict_drop : bool;  (* drop belief-mismatched messages instead of buffering *)
  events : Fba_sim.Events.sink option;  (* phase-marker sink, observation only *)
  compile : bool;  (* lower the scenario at run start (Compiled) *)
  mutable compiled : Compiled.t option;  (* built by [compile], at most once *)
  builder : Compiled.builder option;  (* reusable compile scratch (instance streams) *)
}

(* FBA_NO_COMPILE flips the default off everywhere at once — the
   ci-level A/B switch that needs no per-experiment plumbing. *)
let compile_default () = Sys.getenv_opt "FBA_NO_COMPILE" = None

let config_of_scenario ?(strict_drop = false) ?events ?compile ?builder (scenario : Scenario.t) =
  let params = scenario.Scenario.params in
  let layout = scenario.Scenario.layout in
  let intern = scenario.Scenario.intern in
  let find s = Intern.find intern s in
  let rid_bits = layout.Msg.Layout.rid_bits in
  let si = Params.sampler_i params in
  {
    params;
    scenario;
    layout;
    intern;
    qi = Cache.create ~find si;
    qh = Cache.create ~find (Params.sampler_h params);
    qj = Cache.create ~find ~rid_bits (Params.sampler_j params);
    plan = Push_plan.create ~find ~sampler:si ();
    strict_drop;
    events;
    compile = (match compile with Some b -> b | None -> compile_default ());
    compiled = None;
    builder;
  }

(* Epoch reuse for instance streams: a config for [scenario] whose
   quorum caches, push plan and compile scratch are the previous
   epoch's, reset in place — so instance k+1 evaluates into storage
   instance k already paid for. [scenario] must share the previous
   scenario's interner value ({!Scenario.make}'s [?intern]); the
   caches' resolver closures are rebound regardless. Behaviour is
   identical to a fresh [config_of_scenario] on the same scenario. *)
let config_epoch ~prev (scenario : Scenario.t) =
  let params = scenario.Scenario.params in
  let layout = scenario.Scenario.layout in
  let intern = scenario.Scenario.intern in
  let find s = Intern.find intern s in
  let rid_bits = layout.Msg.Layout.rid_bits in
  let si = Params.sampler_i params in
  Cache.reset ~find prev.qi ~sampler:si;
  Cache.reset ~find prev.qh ~sampler:(Params.sampler_h params);
  Cache.reset ~find ~rid_bits prev.qj ~sampler:(Params.sampler_j params);
  Push_plan.reset ~find prev.plan ~sampler:si;
  {
    params;
    scenario;
    layout;
    intern;
    qi = prev.qi;
    qh = prev.qh;
    qj = prev.qj;
    plan = prev.plan;
    strict_drop = prev.strict_drop;
    events = prev.events;
    compile = prev.compile;
    compiled = None;
    builder = (match prev.builder with Some _ as b -> b | None -> Some (Compiled.builder ()));
  }

let config_params c = c.params
let config_scenario c = c.scenario
let config_layout c = c.layout
let config_intern c = c.intern
let config_compiled c = c.compiled

(* The engines call this once per run, before [init]. Idempotent, and
   inert unless the config opted in; behaviour is identical either way
   (the parity suite and the determinism goldens pin it), only the
   lookup machinery changes. *)
let compile cfg =
  if cfg.compile && cfg.compiled = None then
    cfg.compiled <- Some (Compiled.build ?builder:cfg.builder ~scenario:cfg.scenario ~qi:cfg.qi ())

(* Messages live on the packed plane: one immediate int each (Msg.Packed
   layout), with candidate strings and poll labels carried as interner
   ids. Handlers never materialize the variant form. *)
type msg = Packed.t

let pack cfg m = Packed.pack cfg.layout cfg.intern m
let unpack cfg p = Packed.unpack cfg.layout cfg.intern p

(* Small imperative helpers over Hashtbl-as-set (poll answers only —
   everything else lives in Int_table / the arena records below). *)
let set () : (int, unit) Hashtbl.t = Hashtbl.create 8

let set_add tbl v =
  if Hashtbl.mem tbl v then false
  else begin
    Hashtbl.add tbl v ();
    true
  end

let set_card = Hashtbl.length

(* The historical tables were keyed by (x, s) or (s, x) tuples; with
   both coordinates now small ints the pair packs into one immediate
   key, so every probe is hash-of-int with no per-lookup boxing. The
   shifts are the run layout's field widths — wide layouts widen the
   keys along with the wire words. *)
let key_xs (lt : Msg.Layout.t) ~x ~sid = (x lsl lt.Msg.Layout.sid_bits) lor sid
let key_sx (lt : Msg.Layout.t) ~sid ~x = (sid lsl lt.Msg.Layout.id_bits) lor x

(* Sender sets: the distinct members of a fixed quorum of degree d
   seen so far, each identified by its index in the quorum the
   verifying scan just walked (Cache.pos_sid). The record is
   [count; ⌈d/62⌉ mask words], position p being bit p mod 62 of mask
   word p / 62. [pos_set_add] adds a position and returns the new
   count, or -1 if it was already there: no hashing of node ids and no
   per-element storage. *)
let pos_set_words d = 1 + ((d + 61) / 62)

let pos_set_add (a : int array) o ~pos =
  let mw = o + 1 + (pos / 62) and bit = 1 lsl (pos mod 62) in
  let m = a.(mw) in
  if m land bit <> 0 then -1
  else begin
    a.(mw) <- m lor bit;
    let c = a.(o) + 1 in
    a.(o) <- c;
    c
  end

(* An outstanding poll of Algorithm 1, with the optional re-poll
   extension state (Params.max_poll_attempts). *)
type poll = {
  mutable p_rid : int;  (* interner id of the current label *)
  mutable p_answers : (int, unit) Hashtbl.t;
  mutable p_attempts : int;
  mutable p_issued : int;  (* round of the last (re-)issue *)
}

type state = {
  ctx : Fba_sim.Ctx.t;
  intern : Intern.t;  (* shared with the config; here so accessors resolve ids *)
  mutable cur_round : int;  (* last round seen, for phase-marker stamps *)
  mutable belief : int;  (* s_this, as an interned id *)
  mutable decided_sid : int;  (* -1 while undecided *)
  candidates : Int_table.t;  (* L_x: presence keyed by sid *)
  push_sets : Int_table.t;  (* sid -> arena offset of the senders ∈ I(s, this) *)
  polls : (int, poll) Hashtbl.t;
  pull_labels : Int_table.t;  (* presence: (key_xs lsl 20) lor rid *)
  pull_counts : Int_table.t;
      (* Pull dedup: label ids already routed per (x, s); capped at
         max_poll_attempts to bound the Fw1 amplification *)
  f1_groups : Int_table.t;  (* key_sx -> arena offset of (s, x)'s group record *)
  f1_targets : Int_table.t;
      (* (key_sx lsl id_bits) lor w -> arena offset of w's target
         record under (s, x) *)
  fw2_sets : Int_table.t;  (* key_sx -> arena offset of the senders z ∈ H(s, this) *)
  mutable arena : int array;  (* sender sets, Fw1 groups and targets, see [alloc] *)
  mutable top : int;  (* first free arena word *)
  polled : Int_table.t;  (* Algorithm 3's Polled set: presence, key_xs *)
  answer_counts : Int_table.t;  (* Count_s, keyed sid *)
  answered : Int_table.t;  (* presence: key_xs *)
  muted : int Vec.t;  (* answer-ready (s, x) keys gated by the filter *)
  deferred_src : int Vec.t;  (* belief-mismatched messages, parallel lanes *)
  deferred_msg : int Vec.t;
  mutable f1_scratch : int array;  (* lanes of the serve-all burst, see [fw1_burst] *)
  mutable push_sent : int;
  mutable answers_emitted : int;
}

(* A node's sender sets and Fw1 records live in one bump-allocated
   per-node int arena, each found through one Int_table, so a delivery
   probes one table for its sender set and allocates nothing but an
   arena or table doubling:
   - push, at [push_sets] sid: the sender set of I(s, this);
   - Fw2, at [fw2_sets] key_sx: the sender set of H(s, this);
   - Algorithm 2's second handler keeps, per (s, x), the senders
     y ∈ H(s, x) seen and the verified targets w it must serve once:
     - the group record of (s, x), at [f1_groups] key_sx:
       [head; sender set of H(s, x)] — the newest target record (-1 if
       none), then the set;
     - the target record of w, at [f1_targets] (key_sx lsl id_bits) lor w:
       [w; (rid lsl 1) lor served; next; g] — the label w was first
       verified under, with bit 0 set once its Fw2 went out (a fifth
       word would push more arenas past a doubling), the next older
       target of the group, and the group record, so a recorded target
       needs no [f1_groups] probe.
   Arena words past [top] are always 0, so a fresh set is empty. *)
let alloc st words =
  let o = st.top in
  let top = o + words in
  if top > Array.length st.arena then begin
    let a = Array.make (max 64 (max top (2 * Array.length st.arena))) 0 in
    Array.blit st.arena 0 a 0 o;
    st.arena <- a
  end;
  st.top <- top;
  o

(* The sender set at [key] of [tbl], allocated empty on first use. *)
let sender_set st tbl key ~d =
  let o = Int_table.get_or tbl key ~default:(-1) in
  if o >= 0 then o
  else begin
    let o = alloc st (pos_set_words d) in
    Int_table.set tbl key o;
    o
  end

let f1_group cfg st tkey =
  let g = Int_table.get_or st.f1_groups tkey ~default:(-1) in
  if g >= 0 then g
  else begin
    let g = alloc st (1 + pos_set_words cfg.params.Params.d_h) in
    st.arena.(g) <- -1;
    Int_table.set st.f1_groups tkey g;
    g
  end

let f1_record st ~wkey ~g ~w ~rid =
  let t = alloc st 4 in
  let a = st.arena in
  a.(t) <- w;
  a.(t + 1) <- rid lsl 1;
  a.(t + 2) <- a.(g);
  a.(t + 3) <- g;
  a.(g) <- t;
  Int_table.set st.f1_targets wkey t;
  t

(* The serve-all burst's wire order. Historically the targets sat in a
   [Hashtbl.create 8] and the burst was a Hashtbl.fold consing as it
   visited, so the wire is the reverse of the fold's visit order — and
   the determinism goldens pin it. A Hashtbl holding k bindings has b
   buckets, b = 16 doubled while k > 2b; a fold visits buckets in
   ascending [Hashtbl.hash w land (b - 1)], newest binding first within
   one (resizes keep that order). The wire is thus buckets descending,
   oldest first within one: a counting sort. [a.(0 .. k-1)] holds the
   targets' w, newest first; their indices in wire order go to
   [a.(k .. 2k-1)], and [a.(2k .. 2k+b-1)] holds the bucket counters. *)
let fw1_burst_buckets k =
  let b = ref 16 in
  while k > 2 * !b do
    b := 2 * !b
  done;
  !b

let fw1_burst_order_into (a : int array) k =
  let b = fw1_burst_buckets k in
  let cnt = 2 * k in
  Array.fill a cnt b 0;
  for i = 0 to k - 1 do
    let j = cnt + (Intx.hash_int a.(i) land (b - 1)) in
    a.(j) <- a.(j) + 1
  done;
  let next = ref k in
  for j = cnt + b - 1 downto cnt do
    let c = a.(j) in
    a.(j) <- !next;
    next := !next + c
  done;
  for i = k - 1 downto 0 do
    let j = cnt + (Intx.hash_int a.(i) land (b - 1)) in
    a.(a.(j)) <- i;
    a.(j) <- a.(j) + 1
  done

let fw1_burst_order ws =
  let k = List.length ws in
  let a = Array.make ((2 * k) + fw1_burst_buckets k) 0 in
  List.iteri (fun i w -> a.(i) <- w) ws;
  fw1_burst_order_into a k;
  List.init k (fun i -> a.(a.(k + i)))

(* Majority just reached for group [g]: serve every recorded target
   once. None was served before (serving needs the majority), so all
   are marked; their labels ride in a third scratch lane after the
   counters. *)
let fw1_burst st ~emit lt ~sid ~x g =
  let a = st.arena in
  let k = ref 0 and t = ref a.(g) in
  while !t >= 0 do
    incr k;
    t := a.(!t + 2)
  done;
  let k = !k in
  let rids = (2 * k) + fw1_burst_buckets k in
  if Array.length st.f1_scratch < rids + k then
    st.f1_scratch <- Array.make (max (rids + k) (2 * Array.length st.f1_scratch)) 0;
  let sc = st.f1_scratch in
  t := a.(g);
  for i = 0 to k - 1 do
    sc.(i) <- a.(!t);
    sc.(rids + i) <- a.(!t + 1) lsr 1;
    a.(!t + 1) <- a.(!t + 1) lor 1;
    t := a.(!t + 2)
  done;
  fw1_burst_order_into sc k;
  for i = k to (2 * k) - 1 do
    let j = sc.(i) in
    emit sc.(j) (Packed.fw2 lt ~sid ~rid:sc.(rids + j) ~x)
  done

let name = "aer"

(* Message kind -> protocol phase, for Events.Phase_acc. *)
let phase_of_kind = function
  | "Push" -> "push"
  | "Poll" | "Pull" | "Answer" -> "poll"
  | "Fw1" -> "fw1"
  | "Fw2" -> "fw2"
  | kind -> kind

(* Announce a phase transition (first activation only; Events.phase
   dedups). Pure observation: never changes protocol behaviour. *)
let mark cfg st name =
  match cfg.events with
  | None -> ()
  | Some k -> Fba_sim.Events.phase k ~round:st.cur_round name

(* Phase-indexed dispatch table (compiled path): packed tag -> handler,
   one indexed load instead of the per-message tag comparison chain.
   Declared ahead of the handler recursion and filled right after it;
   tags 0 and 7 keep the failing stub. *)
type handler = config -> state -> emit:(int -> Packed.t -> unit) -> src:int -> Packed.t -> unit

let invalid_packed : handler =
 fun _ _ ~emit:_ ~src:_ _ -> invalid_arg "Aer: invalid packed message"

let handler_table : handler array = Array.make 8 invalid_packed

(* Algorithm 1: poll a fresh random sample and the pull quorum for s.
   Handlers push outgoing messages through [emit] instead of returning
   lists; emission order is exactly the order the historical list API
   delivered, so schedules are byte-identical. *)
let issue_poll ?(round = 0) cfg st ~emit sid =
  mark cfg st "poll";
  let id = st.ctx.Fba_sim.Ctx.id in
  let r = Prng.int64 st.ctx.Fba_sim.Ctx.rng in
  let rid = Intern.intern_label cfg.intern r in
  (match Hashtbl.find st.polls sid with
  | p ->
    p.p_rid <- rid;
    p.p_answers <- set ();
    p.p_attempts <- p.p_attempts + 1;
    p.p_issued <- round
  | exception Not_found ->
    Hashtbl.replace st.polls sid { p_rid = rid; p_answers = set (); p_attempts = 1; p_issued = round });
  let poll_msg = Packed.poll cfg.layout ~sid ~rid in
  let pull_msg = Packed.pull cfg.layout ~sid ~rid in
  let qj = Cache.quorum_rid cfg.qj ~x:id ~rid ~r in
  for i = 0 to Array.length qj - 1 do
    emit qj.(i) poll_msg
  done;
  let qh = Cache.quorum_sid cfg.qh ~sid ~s:(Intern.string cfg.intern sid) ~x:id in
  for i = 0 to Array.length qh - 1 do
    emit qh.(i) pull_msg
  done

(* Algorithm 3's answer emission, gated by the log² n filter: an
   overloaded node waits until it has decided before answering more. *)
let try_answer cfg st ~emit sid x =
  let lt = cfg.layout in
  if
    Int_table.mem st.polled (key_xs lt ~x ~sid)
    && (not (Int_table.mem st.answered (key_xs lt ~x ~sid)))
    &&
    let o = Int_table.get_or st.fw2_sets (key_sx lt ~sid ~x) ~default:(-1) in
    o >= 0 && st.arena.(o) >= Params.majority_h cfg.params
  then begin
    let cnt = Int_table.get_or st.answer_counts sid ~default:0 in
    if st.decided_sid >= 0 || cnt < cfg.params.Params.pull_filter then begin
      Int_table.set st.answer_counts sid (cnt + 1);
      ignore (Int_table.add st.answered (key_xs lt ~x ~sid));
      st.answers_emitted <- st.answers_emitted + 1;
      emit x (Packed.answer lt ~sid)
    end
    else Vec.push st.muted (key_sx lt ~sid ~x)
  end

(* Push phase acceptance: s enters L_x on a strict majority of I(s, x). *)
let rec handle_push cfg st ~emit ~src sid =
  if st.decided_sid >= 0 || Int_table.mem st.candidates sid then ()
  else begin
    let id = st.ctx.Fba_sim.Ctx.id in
    let pos = Cache.pos_sid cfg.qi ~sid ~s:(Intern.string cfg.intern sid) ~x:id ~y:src in
    if pos >= 0 then begin
      let o = sender_set st st.push_sets sid ~d:cfg.params.Params.d_i in
      if pos_set_add st.arena o ~pos >= Params.majority_i cfg.params then begin
        ignore (Int_table.add st.candidates sid);
        issue_poll cfg st ~emit sid
      end
    end
  end

and handle_poll cfg st ~emit ~src p =
  let lt = cfg.layout in
  let sid = Packed.sid lt p and rid = Packed.rid lt p in
  let id = st.ctx.Fba_sim.Ctx.id in
  if Cache.mem_rid cfg.qj ~x:src ~rid ~r:(Intern.label cfg.intern rid) ~y:id then begin
    ignore (Int_table.add st.polled (key_xs lt ~x:src ~sid));
    (* The Fw2 majority may already be in (asynchronous reordering):
       Algorithm 3's Poll handler answers immediately in that case. *)
    try_answer cfg st ~emit sid src
  end

and handle_pull cfg st ~emit ~src p =
  let lt = cfg.layout in
  let sid = Packed.sid lt p in
  if sid <> st.belief then defer cfg st ~src p
  else begin
    let rid = Packed.rid lt p in
    let key = key_xs lt ~x:src ~sid in
    let lkey = (key lsl lt.Msg.Layout.rid_bits) lor rid in
    if
      Int_table.mem st.pull_labels lkey
      || Int_table.get_or st.pull_counts key ~default:0 >= cfg.params.Params.max_poll_attempts
    then ()
    else begin
      ignore (Int_table.add st.pull_labels lkey);
      ignore (Int_table.incr st.pull_counts key);
      let id = st.ctx.Fba_sim.Ctx.id in
      let s = Intern.string cfg.intern sid in
      if Cache.mem_sid cfg.qh ~sid ~s ~x:src ~y:id then begin
        (* Algorithm 2, first handler: fan the request out to the pull
           quorums of every poll-list member. The historical code consed
           (w ascending, z ascending) and returned the reversed list, so
           we emit w descending, z descending — the same wire order. *)
        mark cfg st "fw1";
        let r = Intern.label cfg.intern rid in
        let qj = Cache.quorum_rid cfg.qj ~x:src ~rid ~r in
        for wi = Array.length qj - 1 downto 0 do
          let w = qj.(wi) in
          let m = Packed.fw1 lt ~sid ~rid ~x:src ~w in
          let zq = Cache.quorum_sid cfg.qh ~sid ~s ~x:w in
          for zi = Array.length zq - 1 downto 0 do
            emit zq.(zi) m
          done
        done
      end
    end
  end

and handle_fw1 cfg st ~emit ~src p =
  let lt = cfg.layout in
  let sid = Packed.sid lt p in
  if sid <> st.belief then defer cfg st ~src p
  else begin
    let rid = Packed.rid lt p and x = Packed.x lt p and w = Packed.w lt p in
    let id = st.ctx.Fba_sim.Ctx.id in
    let s = Intern.string cfg.intern sid in
    let tkey = key_sx lt ~sid ~x in
    let wkey = (tkey lsl lt.Msg.Layout.id_bits) lor w in
    let t = Int_table.get_or st.f1_targets wkey ~default:(-1) in
    (* A target recorded under this very label already passed
       this ∈ H(s, w) and w ∈ J(x, rid), which depend on nothing else;
       only the sender check is new. Another label is verified in full. *)
    let proven = t >= 0 && Array.unsafe_get st.arena (t + 1) lsr 1 = rid in
    if proven || Cache.mem_sid cfg.qh ~sid ~s ~x:w ~y:id then begin
      (* The sender verification returns src's position in H(s, x) —
         the index the group's sender mask is keyed by. *)
      let spos = Cache.pos_sid cfg.qh ~sid ~s ~x ~y:src in
      if
        spos >= 0
        && (proven || Cache.mem_rid cfg.qj ~x ~rid ~r:(Intern.label cfg.intern rid) ~y:w)
      then begin
        (* First sighting of w as a target: its label id is the one
           served, so later copies with another rid never overwrite it. *)
        let g = if t >= 0 then st.arena.(t + 3) else f1_group cfg st tkey in
        let t = if t >= 0 then t else f1_record st ~wkey ~g ~w ~rid in
        let a = st.arena in
        let c = pos_set_add a (g + 1) ~pos:spos in
        let newly = c >= 0 in
        let c = if newly then c else a.(g + 1) in
        let maj = Params.majority_h cfg.params in
        if c >= maj then begin
          mark cfg st "fw2";
          if newly && c = maj then fw1_burst st ~emit lt ~sid ~x g
          else if a.(t + 1) land 1 = 0 then begin
            (* A target recorded after the majority: it was recorded by
               this very delivery, under this rid. *)
            a.(t + 1) <- a.(t + 1) lor 1;
            emit w (Packed.fw2 lt ~sid ~rid ~x)
          end
        end
      end
    end
  end

and handle_fw2 cfg st ~emit ~src p =
  let lt = cfg.layout in
  let sid = Packed.sid lt p in
  if sid <> st.belief then defer cfg st ~src p
  else begin
    let rid = Packed.rid lt p and x = Packed.x lt p in
    let id = st.ctx.Fba_sim.Ctx.id in
    if Cache.mem_rid cfg.qj ~x ~rid ~r:(Intern.label cfg.intern rid) ~y:id then begin
      let spos = Cache.pos_sid cfg.qh ~sid ~s:(Intern.string cfg.intern sid) ~x:id ~y:src in
      if spos >= 0 then begin
        let o = sender_set st st.fw2_sets (key_sx lt ~sid ~x) ~d:cfg.params.Params.d_h in
        if pos_set_add st.arena o ~pos:spos >= 0 then try_answer cfg st ~emit sid x
      end
    end
  end

and handle_answer cfg st ~emit ~src sid =
  if st.decided_sid >= 0 then ()
  else begin
    match Hashtbl.find st.polls sid with
    | exception Not_found -> ()
    | p ->
      let id = st.ctx.Fba_sim.Ctx.id in
      if
        Cache.mem_rid cfg.qj ~x:id ~rid:p.p_rid ~r:(Intern.label cfg.intern p.p_rid) ~y:src
        && set_add p.p_answers src
        && set_card p.p_answers >= Params.majority_j cfg.params
      then decide cfg st ~emit sid
  end

(* Decision: fix the belief, then replay buffered traffic that now
   matches it and release answers the overload filter was holding.
   Handlers cannot append to either backlog once decided_sid is set, so
   iterating the live lanes (chronological order) is a snapshot. *)
and decide cfg st ~emit sid =
  let lt = cfg.layout in
  st.decided_sid <- sid;
  st.belief <- sid;
  for i = 0 to Vec.length st.deferred_msg - 1 do
    let m = Vec.get st.deferred_msg i in
    (* Only Pull/Fw1/Fw2 are ever deferred; replay the ones matching
       the decided string, drop the rest. *)
    if Packed.sid lt m = sid then dispatch cfg st ~emit ~src:(Vec.get st.deferred_src i) m
  done;
  for i = 0 to Vec.length st.muted - 1 do
    (* muted holds key_sx-packed (s, x) pairs; split on the layout. *)
    let k = Vec.get st.muted i in
    if k lsr lt.Msg.Layout.id_bits = sid then
      try_answer cfg st ~emit sid (k land lt.Msg.Layout.id_mask)
  done;
  Vec.reset st.muted;
  (* Eviction: every reader of these rows is gated on decided_sid < 0
     (handle_push for the push accumulators; handle_answer / on_round /
     issue_poll for the outstanding polls — issue_poll is only reachable
     through the other two once candidates stop being added), so after
     the replay above none of them can be referenced again no matter
     what the calendar still holds in flight. Dropping their storage —
     not just their lengths — bounds per-node state after decision by
     the serve-side tables that must stay live (pull/fw1/fw2), which is
     what keeps decided nodes cheap while stragglers catch up. The push
     sender sets' arena records (a few words per candidate string)
     stay allocated: the bump arena frees nothing, only their index
     goes. *)
  Int_table.reset st.push_sets;
  Hashtbl.reset st.polls;
  Vec.reset st.deferred_src;
  Vec.reset st.deferred_msg

and defer cfg st ~src m =
  (* DESIGN.md substitution 6: the paper's pseudo-code drops these;
     buffering + replay is equivalent under asynchrony and avoids
     starving late deciders under a synchronous schedule. strict_drop
     restores the literal behaviour for the ablation. *)
  if (not cfg.strict_drop) && st.decided_sid < 0 then begin
    Vec.push st.deferred_src src;
    Vec.push st.deferred_msg m
  end

and dispatch cfg st ~emit ~src p =
  match cfg.compiled with
  | Some _ ->
    (* Compiled: tag-indexed jump (tag <= 7, table has 8 slots). *)
    (Array.unsafe_get handler_table (Packed.tag p)) cfg st ~emit ~src p
  | None ->
    let tag = Packed.tag p in
    if tag = Packed.tag_push then handle_push cfg st ~emit ~src (Packed.sid cfg.layout p)
    else if tag = Packed.tag_poll then handle_poll cfg st ~emit ~src p
    else if tag = Packed.tag_pull then handle_pull cfg st ~emit ~src p
    else if tag = Packed.tag_fw1 then handle_fw1 cfg st ~emit ~src p
    else if tag = Packed.tag_fw2 then handle_fw2 cfg st ~emit ~src p
    else if tag = Packed.tag_answer then handle_answer cfg st ~emit ~src (Packed.sid cfg.layout p)
    else invalid_arg "Aer: invalid packed message"

let () =
  handler_table.(Packed.tag_push) <-
    (fun cfg st ~emit ~src p -> handle_push cfg st ~emit ~src (Packed.sid cfg.layout p));
  handler_table.(Packed.tag_poll) <- handle_poll;
  handler_table.(Packed.tag_pull) <- handle_pull;
  handler_table.(Packed.tag_fw1) <- handle_fw1;
  handler_table.(Packed.tag_fw2) <- handle_fw2;
  handler_table.(Packed.tag_answer) <-
    (fun cfg st ~emit ~src p -> handle_answer cfg st ~emit ~src (Packed.sid cfg.layout p))

let init cfg ctx =
  let id = ctx.Fba_sim.Ctx.id in
  let s0 = cfg.scenario.Scenario.initial.(id) in
  let sid0 = Intern.intern cfg.intern s0 in
  let st =
    {
      ctx;
      intern = cfg.intern;
      cur_round = 0;
      belief = sid0;
      decided_sid = -1;
      candidates = Int_table.create ();
      push_sets = Int_table.create ();
      polls = Hashtbl.create 8;
      pull_labels = Int_table.create ~capacity:32 ();
      pull_counts = Int_table.create ~capacity:32 ();
      f1_groups = Int_table.create ~capacity:32 ();
      f1_targets = Int_table.create ~capacity:32 ();
      fw2_sets = Int_table.create ();
      arena = [||];
      top = 0;
      polled = Int_table.create ~capacity:32 ();
      answer_counts = Int_table.create ();
      answered = Int_table.create ~capacity:32 ();
      muted = Vec.create ();
      deferred_src = Vec.create ();
      deferred_msg = Vec.create ();
      f1_scratch = [||];
      push_sent = 0;
      answers_emitted = 0;
    }
  in
  ignore (Int_table.add st.candidates sid0);
  mark cfg st "push";
  let acc = ref [] in
  let emit dst m = acc := (dst, m) :: !acc in
  let push_msg = Packed.push cfg.layout ~sid:sid0 in
  (match cfg.compiled with
  | Some cp ->
    (* The compiled CSR row is Push_plan.targets, precomputed. *)
    let lo = Compiled.push_start cp ~y:id and hi = Compiled.push_stop cp ~y:id in
    for i = lo to hi - 1 do
      emit (Compiled.push_target cp i) push_msg
    done;
    st.push_sent <- hi - lo
  | None ->
    let targets = Push_plan.targets cfg.plan ~s:s0 ~y:id in
    for i = 0 to Array.length targets - 1 do
      emit targets.(i) push_msg
    done;
    st.push_sent <- Array.length targets);
  issue_poll cfg st ~emit sid0;
  (st, List.rev !acc)

(* The re-poll extension: a candidate whose poll went unanswered for
   repoll_timeout rounds retries with a fresh label, up to
   max_poll_attempts. With the default budget of 1 attempt this hook is
   inert and the protocol is exactly the paper's. *)
let on_round cfg st ~round =
  st.cur_round <- round;
  if st.decided_sid >= 0 || cfg.params.Params.max_poll_attempts <= 1 then []
  else begin
    let due = ref [] in
    Hashtbl.iter
      (fun sid (p : poll) ->
        if
          p.p_attempts < cfg.params.Params.max_poll_attempts
          && round - p.p_issued >= cfg.params.Params.repoll_timeout
        then due := sid :: !due)
      st.polls;
    let acc = ref [] in
    let emit dst m = acc := (dst, m) :: !acc in
    List.iter (fun sid -> issue_poll ~round cfg st ~emit sid) !due;
    List.rev !acc
  end

(* The engines' hot entry point: dispatch straight into the handlers,
   pushing outgoing messages through the engine's [emit] — no list, no
   tuples, no envelope. *)
let receive_into_impl cfg st ~round ~src m ~emit =
  st.cur_round <- round;
  dispatch cfg st ~emit ~src m

let receive_into = Some receive_into_impl

(* List-returning compatibility shim over the same handlers (unit
   tests drive it directly; engines use [receive_into]). *)
let on_receive cfg st ~round ~src m =
  let acc = ref [] in
  receive_into_impl cfg st ~round ~src m ~emit:(fun dst m -> acc := (dst, m) :: !acc);
  List.rev !acc

let output st = if st.decided_sid < 0 then None else Some (Intern.string st.intern st.decided_sid)

let msg_bits cfg m =
  match cfg.compiled with
  | Some cp -> Compiled.bits cp m
  | None -> Packed.bits cfg.layout cfg.params cfg.intern m

(* Profiler slots are the packed wire tags — the same indices the
   Compiled dispatch jump table is keyed by, so per-slot hit/time
   counters are hot-spot counters on that table. Tags 0 and 7 are the
   table's invalid stubs; they can never be charged (dispatch raises)
   but keep the indexing aligned. *)
let profiler_tags =
  [| "invalid"; "Push"; "Poll"; "Pull"; "Fw1"; "Fw2"; "Answer"; "invalid" |]

let msg_tags _cfg = profiler_tags
let msg_tag _cfg p = Packed.tag p

let pp_msg (cfg : config) = Packed.pp cfg.layout cfg.intern

let belief st = Intern.string st.intern st.belief
let decided st = output st

let candidates st =
  let acc = ref [] in
  Int_table.iter (fun sid _ -> acc := Intern.string st.intern sid :: !acc) st.candidates;
  !acc

let candidate_count st = Int_table.length st.candidates
let push_messages_sent st = st.push_sent
let deferred_count st = Vec.length st.deferred_msg
let answers_sent st = st.answers_emitted
