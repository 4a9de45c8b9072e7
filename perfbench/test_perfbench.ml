(* The benchmark's own tests: its timing wrappers and traced replicas
   leave executions unchanged, on the synchronous and the asynchronous
   engine, and the metrics it prints are the ones BENCHMARK.json
   declares. *)

open Perfbench
module Runner = Fba_harness.Runner
module Service = Fba_harness.Service

let n = 64
let seeds = [ 11L; 12L; 13L ]
let fp = Alcotest.testable (fun ppf v -> Format.fprintf ppf "0x%016Lx" v) Int64.equal

let sync_identity () =
  List.iter
    (fun seed ->
      let plain = Workloads.oneshot_run ~traced:false ~n ~seed () in
      let traced = Workloads.oneshot_run ~traced:true ~n ~seed () in
      Alcotest.check fp (Printf.sprintf "seed %Ld" seed) plain.Workloads.fingerprint
        traced.Workloads.fingerprint)
    seeds

let async_identity () =
  List.iter
    (fun seed ->
      let sc = Runner.scenario_of_setup Workloads.setup ~n ~seed in
      let plain, _ = Runner.aer_async ~adversary:Workloads.async_cornering sc in
      let traced = Probe.aer_async ~adversary:Workloads.async_cornering sc in
      Alcotest.check fp (Printf.sprintf "seed %Ld" seed)
        (Service.fingerprint plain.Runner.metrics)
        (Service.fingerprint traced.Fba_sim.Async_engine.metrics))
    seeds;
  Alcotest.(check bool) "async hooks were timed" true (!Probe.hooks_ns > 0)

let stream_identity () =
  let s = Workloads.service_run ~n ~stream_seed:5L ~instances:3 in
  let lane = Probe.lane ~n in
  Array.iter
    (fun (r : Service.instance_result) ->
      let traced = Workloads.stream_traced ~lane ~n ~seed:r.Service.seed () in
      Alcotest.check fp
        (Printf.sprintf "instance %d" r.Service.index)
        r.Service.fingerprint traced.Workloads.fingerprint)
    s.Service.results

let mix_identity () =
  let seed = 21L in
  let plain = Workloads.mix_run ~traced:false ~ns:[ n ] ~seed () in
  let traced = Workloads.mix_run ~traced:true ~ns:[ n ] ~seed () in
  Alcotest.check fp "mix" plain.Workloads.fingerprint traced.Workloads.fingerprint

(* Probe counters attribute handler time by tag and count deliveries. *)
let counters () =
  Probe.reset ();
  ignore (Workloads.oneshot_run ~traced:true ~n ~seed:11L ());
  let deliveries = Array.fold_left ( + ) 0 Probe.deliveries in
  Alcotest.(check bool) "deliveries counted" true (deliveries > 0);
  Alcotest.(check bool) "act called" true (!Probe.act_calls > 0);
  Alcotest.(check int) "per-tag handler time sums to the total"
    !Probe.handler_total (Array.fold_left ( + ) 0 Probe.handler_ns)

(* --- Metric names against BENCHMARK.json --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The ["name"] values of one metric list of BENCHMARK.json. *)
let declared section =
  let s = read_file "../BENCHMARK.json" in
  let find sub from =
    let k = String.length sub in
    let rec go i =
      if i + k > String.length s then raise Not_found
      else if String.sub s i k = sub then i
      else go (i + 1)
    in
    go from
  in
  let start = find ("\"" ^ section ^ "\"") 0 in
  let stop = find "]" start in
  let rec names from acc =
    match find "\"name\": \"" from with
    | i when i < stop ->
      let v = i + 9 in
      let e = String.index_from s v '"' in
      names e (String.sub s v (e - v) :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  List.sort compare (names start [])

let keys r = List.sort compare (List.map (fun m -> m.Bench.key) r.Bench.metrics)

let names () =
  List.iter
    (fun name ->
      let w = Option.get (Bench.find ~size:Workloads.small name) in
      let root = 3L in
      Alcotest.(check (list string))
        (name ^ " end-to-end") (declared "end_to_end")
        (keys (Bench.untraced w ~root ~seconds:0.05));
      (* run.py adds the calibration loop's figure to a traced result. *)
      Alcotest.(check (list string))
        (name ^ " per-layer") (declared "per_layer")
        (List.sort compare ("box.calib_ns_per_read" :: keys (Bench.traced w ~root ~seconds:0.05))))
    Workloads.names

let () =
  Alcotest.run "perfbench"
    [
      ( "identity",
        [
          Alcotest.test_case "sync wrappers keep fingerprints" `Quick sync_identity;
          Alcotest.test_case "async wrappers keep fingerprints" `Quick async_identity;
          Alcotest.test_case "stream replica matches Service.run" `Quick stream_identity;
          Alcotest.test_case "traced mix matches untraced" `Quick mix_identity;
        ] );
      ("probes", [ Alcotest.test_case "counters" `Quick counters ]);
      ("metrics", [ Alcotest.test_case "names match BENCHMARK.json" `Quick names ]);
    ]
