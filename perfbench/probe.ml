(* Timing probes the benchmark places around the simulator's public
   entry points. Nothing here reaches inside a layer: every number is
   taken at a call boundary the benchmark itself makes — a wrapped
   protocol ([Timed_aer], for handler time by message tag), wrapped
   adversary records (for [act] and the async hooks), and spans around
   [Runner], [Aer] and [Sync_engine.Make(...).start/step/finish].

   The benchmark runs in one domain ([jobs = 1]), so the counters are
   plain module-level state. *)

open Fba_core
module Sync_engine = Fba_sim.Sync_engine
module Async_engine = Fba_sim.Async_engine
module Attacks = Fba_adversary.Aer_attacks
module Runner = Fba_harness.Runner

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- Child counters: time spent in wrapped callbacks --- *)

(* Indexed by [Aer.msg_tag], a 3-bit wire tag. *)
let handler_ns = Array.make 8 0
let deliveries = Array.make 8 0
let handler_total = ref 0
let act_ns = ref 0
let act_calls = ref 0
let injected = ref 0
let hooks_ns = ref 0

(* Self time of every span closed so far. *)
let spans_self = ref 0
let rounds = ref 0

(* All time accounted to some layer so far: a span's self time is its
   duration minus what this grew by inside it, so every nanosecond
   inside nested spans and wrapped callbacks is counted exactly once. *)
let accounted_ns () = !handler_total + !act_ns + !hooks_ns + !spans_self

(* --- Spans: a call's duration and its self time --- *)

type span = { mutable total : int; mutable self : int }

let spans : (string, span) Hashtbl.t = Hashtbl.create 16

let span_of name =
  match Hashtbl.find_opt spans name with
  | Some s -> s
  | None ->
    let s = { total = 0; self = 0 } in
    Hashtbl.replace spans name s;
    s

let span name f =
  let s = span_of name in
  let a0 = accounted_ns () in
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () - t0 in
  let self = dt - (accounted_ns () - a0) in
  s.total <- s.total + dt;
  s.self <- s.self + self;
  spans_self := !spans_self + self;
  r

let span_total name = match Hashtbl.find_opt spans name with Some s -> s.total | None -> 0
let span_self name = match Hashtbl.find_opt spans name with Some s -> s.self | None -> 0

let reset () =
  Array.fill handler_ns 0 8 0;
  Array.fill deliveries 0 8 0;
  handler_total := 0;
  act_ns := 0;
  act_calls := 0;
  injected := 0;
  hooks_ns := 0;
  spans_self := 0;
  rounds := 0;
  Hashtbl.reset spans

(* --- Handler layer: AER behind a timing wrapper --- *)

let record_delivery tag dt =
  handler_ns.(tag) <- handler_ns.(tag) + dt;
  deliveries.(tag) <- deliveries.(tag) + 1;
  handler_total := !handler_total + dt

module Timed_aer = struct
  include Aer

  (* The engines deliver through [receive_into] whenever it is given.
     A handler's emits reach the async adversary's [observe] and
     [delay] hooks, which are timed on their own. *)
  let receive_into =
    Option.map
      (fun f cfg st ~round ~src m ~emit ->
        let h0 = !hooks_ns in
        let t0 = now_ns () in
        f cfg st ~round ~src m ~emit;
        record_delivery (Aer.msg_tag cfg m) (now_ns () - t0 - (!hooks_ns - h0)))
      Aer.receive_into
end

module T_sync = Sync_engine.Make (Timed_aer)
module T_async = Async_engine.Make (Timed_aer)

(* The tags reported per layer, as lowercase [Aer.msg_tags] names. *)
let tag_names = [ "push"; "poll"; "pull"; "fw1"; "fw2"; "answer" ]

let tag_index cfg name =
  let tags = Aer.msg_tags cfg in
  let rec go i =
    if i >= Array.length tags then invalid_arg ("Probe.tag_index: no AER tag " ^ name)
    else if String.lowercase_ascii tags.(i) = name then i
    else go (i + 1)
  in
  go 0

(* --- Adversary layer: wrapped records --- *)

let timed_sync (a : Attacks.sync) : Attacks.sync =
  {
    a with
    Sync_engine.act =
      (fun ~round ~observed ->
        let t0 = now_ns () in
        let out = a.Sync_engine.act ~round ~observed in
        act_ns := !act_ns + (now_ns () - t0);
        incr act_calls;
        injected := !injected + List.length out;
        out);
  }

let timed_async (a : Attacks.async) : Attacks.async =
  {
    a with
    Async_engine.delay =
      (fun ~time ~src ~dst m ->
        let t0 = now_ns () in
        let d = a.Async_engine.delay ~time ~src ~dst m in
        hooks_ns := !hooks_ns + (now_ns () - t0);
        d);
    observe =
      (fun ~time ~src ~dst m ->
        let t0 = now_ns () in
        a.Async_engine.observe ~time ~src ~dst m;
        hooks_ns := !hooks_ns + (now_ns () - t0));
    inject =
      (fun ~time ->
        let t0 = now_ns () in
        let out = a.Async_engine.inject ~time in
        hooks_ns := !hooks_ns + (now_ns () - t0);
        injected := !injected + List.length out;
        out);
  }

(* --- Traced replicas of the runner's AER call paths --- *)

(* Mirrors Runner.aer_sync's quiescence window. *)
let quiet_limit_of (sc : Scenario.t) =
  if Params.(sc.Scenario.params.max_poll_attempts) > 1 then
    Params.(sc.Scenario.params.repoll_timeout) + 2
  else 3

(* The storage an instance stream carries from one instance to the
   next, as [Fba_harness.Service] keeps it per lane. *)
type lane = {
  mutable intern : Intern.t option;
  mutable prev : Aer.config option;
  mailbox : Aer.msg Fba_sim.Engine_core.Mailbox.t;
}

let lane ~n =
  {
    intern = None;
    prev = None;
    mailbox = Fba_sim.Engine_core.Mailbox.create ~stream:Runner.default_config.Runner.stream ~n ();
  }

(* Scenario generation, as the runner does it; with a [lane], into
   the lane's recycled interner. *)
let scenario ?lane ~setup ~n ~seed () =
  let intern = Option.bind lane (fun l -> l.intern) in
  let sc = span "runner.scenario" (fun () -> Runner.scenario_of_setup ?intern setup ~n ~seed) in
  Option.iter (fun l -> l.intern <- Some sc.Scenario.intern) lane;
  sc

(* One AER run on the synchronous engine, the same execution as
   [Runner.aer_sync] (or, given a [lane], as one [Service] instance),
   with every layer boundary timed. *)
let aer_sync ?(mode = `Rushing) ?lane ~adversary (sc : Scenario.t) =
  let config = Runner.default_config in
  let cfg =
    span "aer.config" (fun () ->
        match Option.bind lane (fun l -> l.prev) with
        | Some prev -> Aer.config_epoch ~prev sc
        | None -> Aer.config_of_scenario ~compile:config.Runner.compile sc)
  in
  Option.iter (fun l -> l.prev <- Some cfg) lane;
  (* The runner builds the adversary before the engine compiles. *)
  let adv = span "aer_attacks.setup" (fun () -> timed_sync (adversary sc)) in
  span "compiled.build" (fun () -> Timed_aer.compile cfg);
  let mailbox = Option.map (fun l -> l.mailbox) lane in
  let running =
    span "sync_engine.start" (fun () ->
        T_sync.start ~quiet_limit:(quiet_limit_of sc) ~stream:config.Runner.stream ?mailbox
          ~net:config.Runner.net ~config:cfg ~n:sc.Scenario.params.Params.n
          ~seed:sc.Scenario.params.Params.seed ~adversary:adv ~mode
          ~max_rounds:config.Runner.max_rounds ())
  in
  while span "sync_engine.step" (fun () -> T_sync.step running) do
    incr rounds
  done;
  span "sync_engine.step" (fun () -> T_sync.finish running)

(* One AER run on the asynchronous engine, the same execution as
   [Runner.aer_async]. The engine has no stepper, so its run is one
   span; its self time is what handlers and hooks leave over. *)
let aer_async ~adversary (sc : Scenario.t) =
  let config = Runner.default_config in
  let cfg = span "aer.config" (fun () -> Aer.config_of_scenario ~compile:config.Runner.compile sc) in
  let adv = span "aer_attacks.setup" (fun () -> timed_async (adversary sc)) in
  span "compiled.build" (fun () -> Timed_aer.compile cfg);
  span "async_engine.run" (fun () ->
      T_async.run ~stream:config.Runner.stream ~net:config.Runner.net ~config:cfg
        ~n:sc.Scenario.params.Params.n ~seed:sc.Scenario.params.Params.seed ~adversary:adv
        ~max_time:config.Runner.max_time ())
