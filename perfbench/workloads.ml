(* The benchmark's three workloads. Each is a closed loop: one client
   runs AER instances back to back, the next starting when the last
   has finished, in one domain. Instance [k] of a run with root seed
   [s] uses the scenario seed [Service.instance_seed s k]. Every
   instance runs under 10% Byzantine nodes playing the cornering
   attack; message delay is simulated, so wall time is processor time
   only. *)

open Fba_stdx
open Fba_core
module Runner = Fba_harness.Runner
module Service = Fba_harness.Service
module Obs = Fba_harness.Obs
module Attacks = Fba_adversary.Aer_attacks
module Sync_engine = Fba_sim.Sync_engine
module Aer_sync = Sync_engine.Make (Aer)

let now_ns = Probe.now_ns
let setup = Runner.default_setup
let cornering sc = Attacks.cornering sc
let async_cornering sc = Attacks.async_cornering sc
let non_rushing = { Runner.default_config with Runner.mode = `Non_rushing }
let flooded = { Runner.default_config with Runner.flood = true }

(* Population sizes. [small] is for the benchmark's own tests. *)
type size = { stream_n : int; oneshot_n : int; mix_ns : int list }

let full = { stream_n = 128; oneshot_n = 1024; mix_ns = [ 64; 128; 256 ] }
let small = { stream_n = 64; oneshot_n = 64; mix_ns = [ 64 ] }

let names = [ "stream-n128"; "oneshot-n1024"; "mix-fig1" ]

(* Seeds of set-up rounds and of traced-run blocks, derived from the
   root seed so the same seed gives the same inputs. *)
let derived root label i =
  Hash64.finish (Hash64.add_int (Hash64.add_string (Hash64.init root) label) i)

(* --- One instance and its output check --- *)

(* What one instance produced, beside its wall time. *)
type outcome = {
  fingerprint : int64;  (** {!Service.fingerprint} of the runs (folded, for the mix) *)
  rounds : int;
  bits_per_node : float;  (** the paper's per-node communication cost; nan if not seen *)
  failure : string option;
      (** an exception, or a correct node that decided another value
          than gstring *)
  undecided : bool;  (** a correct node did not decide *)
  peak_words : int;  (** peak mailbox words (traced runs) *)
}

type instance = { seed : int64; latency_ns : int; out : outcome }

(* Safety is checked exactly: a wrong decision fails the instance.
   AER terminates with high probability, not always — at n=128 the
   Figure 1(a) table shows 0.997 of correct nodes agreeing — so a
   correct node left undecided is counted apart, not failed. *)
type verdict = { wrong : string option; undecided : bool }

let of_obs what (o : Obs.observation) =
  {
    wrong =
      (if o.Obs.wrong_decisions = 0 then None
       else Some (Printf.sprintf "%s: %d wrong decisions" what o.Obs.wrong_decisions));
    undecided = o.Obs.decided_fraction < 1.0;
  }

let of_outputs what ~correct ~reference outputs =
  let decided = ref 0 and wrong = ref 0 in
  Array.iteri
    (fun i d ->
      match d with
      | Some v when correct i ->
        incr decided;
        if Some v <> reference then incr wrong
      | _ -> ())
    outputs;
  let correct_total = ref 0 in
  Array.iteri (fun i _ -> if correct i then incr correct_total) outputs;
  {
    wrong = (if !wrong = 0 then None else Some (Printf.sprintf "%s: %d wrong decisions" what !wrong));
    undecided = !decided < !correct_total;
  }

let combine vs =
  { wrong = List.find_map (fun v -> v.wrong) vs; undecided = List.exists (fun v -> v.undecided) vs }

let outcome ?(peak_words = 0) ~fingerprint ~rounds ~bits_per_node v =
  { fingerprint; rounds; bits_per_node; failure = v.wrong; undecided = v.undecided; peak_words }

let failed_outcome e =
  {
    fingerprint = 0L;
    rounds = 0;
    bits_per_node = nan;
    failure = Some ("exception: " ^ Printexc.to_string e);
    undecided = false;
    peak_words = 0;
  }

(* Run [f] as instance [seed], timing it; an exception fails it. *)
let timed ~seed f =
  let t0 = now_ns () in
  let out = try f () with e -> failed_outcome e in
  { seed; latency_ns = now_ns () - t0; out }

let span ~traced name f = if traced then Probe.span name f else f ()
let fold_fp h fp = Hash64.add_int h (Int64.to_int fp)

(* --- oneshot: a fresh scenario and a fresh run, as the experiments do --- *)

let oneshot_run ~traced ~n ~seed () =
  if traced then begin
    let sc = Probe.scenario ~setup ~n ~seed () in
    let res = Probe.aer_sync ~adversary:cornering sc in
    Probe.span "runner.observe" (fun () ->
        let m = res.Sync_engine.metrics in
        let o =
          Obs.of_metrics ~metrics:m ~outputs:res.Sync_engine.outputs
            ~reference:(Some sc.Scenario.gstring) ()
        in
        outcome ~peak_words:(Fba_sim.Metrics.peak_mailbox_words m)
          ~fingerprint:(Service.fingerprint m) ~rounds:o.Obs.rounds
          ~bits_per_node:o.Obs.bits_per_node (of_obs "aer_sync" o))
  end
  else begin
    let sc = Runner.scenario_of_setup setup ~n ~seed in
    let r = Runner.aer_sync ~adversary:cornering sc in
    let o = r.Runner.obs in
    outcome ~fingerprint:(Service.fingerprint r.Runner.metrics) ~rounds:o.Obs.rounds
      ~bits_per_node:o.Obs.bits_per_node (of_obs "aer_sync" o)
  end

(* --- mix: the Figure 1(a)/(b) protocol mix at every size, one seed --- *)

(* A digest of a baseline's observation, for runs whose metrics the
   runner does not return. *)
let obs_digest (o : Obs.observation) =
  let h = Hash64.init 0x0B5L in
  let h = Hash64.add_int h o.Obs.rounds in
  let h = Hash64.add_int h o.Obs.total_bits_all in
  let h = Hash64.add_int h o.Obs.max_sent_bits in
  let h = Hash64.add_int h o.Obs.max_recv_bits in
  let h = Hash64.add_int h o.Obs.wrong_decisions in
  Hash64.finish (Hash64.add_int h (Int64.to_int (Int64.bits_of_float o.Obs.decided_fraction)))

(* Traced, the two AER runs go through the probed replicas and every
   other protocol is timed as one call. *)
let mix_run ~traced ~ns ~seed () =
  let span name f = span ~traced name f in
  let h = ref (Hash64.init 0x313L) in
  let rounds = ref 0 and bits = ref 0. and peak = ref 0 in
  let observe (sc : Scenario.t) metrics outputs =
    Probe.span "runner.observe" (fun () ->
        Obs.of_metrics ~metrics ~outputs ~reference:(Some sc.Scenario.gstring) ())
  in
  let verdicts =
    List.concat_map
      (fun n ->
        let sc =
          if traced then Probe.scenario ~setup ~n ~seed ()
          else Runner.scenario_of_setup setup ~n ~seed
        in
        let grid = span "runner.run_grid" (fun () -> Runner.run_grid sc) in
        let nr_metrics, nr =
          span "runner.aer_sync_nonrushing" (fun () ->
              if traced then begin
                let res = Probe.aer_sync ~mode:`Non_rushing ~adversary:cornering sc in
                let m = res.Sync_engine.metrics in
                (m, observe sc m res.Sync_engine.outputs)
              end
              else
                let r = Runner.aer_sync ~config:non_rushing ~adversary:cornering sc in
                (r.Runner.metrics, r.Runner.obs))
        in
        let asy_metrics, asy =
          span "runner.aer_async" (fun () ->
              if traced then begin
                let res = Probe.aer_async ~adversary:async_cornering sc in
                let m = res.Fba_sim.Async_engine.metrics in
                (m, observe sc m res.Fba_sim.Async_engine.outputs)
              end
              else
                let r, _ = Runner.aer_async ~adversary:async_cornering sc in
                (r.Runner.metrics, r.Runner.obs))
        in
        let ks = span "runner.ks09" (fun () -> Runner.ks09 ~config:flooded sc) in
        let relay = span "runner.run_relay" (fun () -> Runner.run_relay sc) in
        let ba =
          span "ba.run_sync" (fun () ->
              Ba.run_sync ~aer_adversary:cornering ~n ~seed
                ~byzantine_fraction:setup.Runner.byzantine_fraction ())
        in
        List.iter
          (fun fp -> h := fold_fp !h fp)
          [
            obs_digest grid;
            Service.fingerprint nr_metrics;
            Service.fingerprint asy_metrics;
            obs_digest ks;
            obs_digest relay;
            Service.fingerprint ba.Ba.metrics;
          ];
        rounds := !rounds + nr.Obs.rounds;
        bits := !bits +. nr.Obs.bits_per_node;
        peak := max !peak (Fba_sim.Metrics.peak_mailbox_words nr_metrics);
        let corrupted = Fba_sim.Metrics.corrupted ba.Ba.metrics in
        [
          of_obs (Printf.sprintf "run_grid n=%d" n) grid;
          of_obs (Printf.sprintf "aer_sync non-rushing n=%d" n) nr;
          of_obs (Printf.sprintf "aer_async n=%d" n) asy;
          of_obs (Printf.sprintf "ks09 n=%d" n) ks;
          of_obs (Printf.sprintf "run_relay n=%d" n) relay;
          of_outputs (Printf.sprintf "ba n=%d" n)
            ~correct:(fun i -> not (Bitset.mem corrupted i))
            ~reference:ba.Ba.gstring ba.Ba.outputs;
        ])
      ns
  in
  outcome ~peak_words:!peak ~fingerprint:(Hash64.finish !h) ~rounds:!rounds ~bits_per_node:!bits
    (combine verdicts)

(* --- stream: the instance stream of [Service.run], width 1, jobs 1 --- *)

let service_run ~n ~stream_seed ~instances =
  Service.run
    ~stream:{ Service.default_stream with Service.n; stream_seed; instances; width = 1; jobs = 1 }
    ~adversary:cornering ()

(* Scenario.make corrupts floor(fraction * n) nodes whatever the seed,
   so one scenario gives every instance's correct count. *)
let correct_count ~n = Scenario.correct_count (Runner.scenario_of_setup setup ~n ~seed:0L)

let of_service_result ~correct (r : Service.instance_result) =
  {
    seed = r.Service.seed;
    latency_ns = r.Service.latency_ns;
    out =
      outcome ~fingerprint:r.Service.fingerprint ~rounds:r.Service.rounds_used ~bits_per_node:nan
        {
          wrong = (if r.Service.agreed then None else Some "service: a wrong decision");
          undecided = r.Service.decided < correct;
        };
  }

(* One stream instance on the traced replica of a Service lane. *)
let stream_traced ~lane ~n ~seed () =
  let sc = Probe.scenario ~lane ~setup ~n ~seed () in
  let res = Probe.aer_sync ~lane ~adversary:cornering sc in
  Probe.span "runner.observe" (fun () ->
      let m = res.Sync_engine.metrics in
      outcome ~peak_words:(Fba_sim.Metrics.peak_mailbox_words m)
        ~fingerprint:(Service.fingerprint m) ~rounds:res.Sync_engine.rounds_used ~bits_per_node:nan
        (of_outputs "service" ~correct:(Scenario.is_correct sc)
           ~reference:(Some sc.Scenario.gstring) res.Sync_engine.outputs))
