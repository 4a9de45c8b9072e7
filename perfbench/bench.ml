(* Drives one workload for a run: set-up, the timed closed loop, the
   output check, and the metrics the run reports. An untraced run
   (trace off) gives the end-to-end metrics; a traced run alternates
   untraced and traced blocks over the same instances and gives the
   per-layer metrics. *)

open Fba_core
open Workloads

(* --- Statistics --- *)

let median = function
  | [||] -> nan
  | a ->
    let a = Array.copy a in
    Array.sort compare a;
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it, as
   (percentile, value); [None] below eleven samples. *)
let tail a =
  let k = Array.length a in
  if k < 11 then None
  else begin
    let a = Array.copy a in
    Array.sort compare a;
    let i = k - 11 in
    Some (100. *. float_of_int (i + 1) /. float_of_int k, a.(i))
  end

(* Peak resident set size of this process, in kB. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else go ()
    in
    let v = go () in
    close_in ic;
    v

(* --- Workload plumbing --- *)

type t = {
  name : string;
  pass_size : int;  (** instances in one pass *)
  set_up : int64 -> unit;  (** one set-up round, on the given seed *)
  untraced : int64 -> int -> instance array;
      (** instances [0, c) of a root seed, untraced *)
  traced : int64 -> int -> instance;  (** instance [k] of a root seed, traced *)
  cross_check : instance array -> string list;
      (** replays of untraced instances on another path; a message per
          mismatch *)
}

let no_cross_check _ = []

(* Instances [0, c) of [root], one after another, with a reference
   sample between two. Each starts on a collected heap, as a fresh
   process would, so its time and memory do not carry its
   predecessor's garbage; the collection is outside the instance's wall
   time. *)
let loop run root c =
  Array.init c (fun k ->
      let seed = Service.instance_seed root k in
      if k > 0 then Reference.sample ();
      Gc.full_major ();
      timed ~seed (run ~seed))

(* The setup layers of one instance: scenario, config, compiled
   tables, adversary and engine start. *)
let set_up_instance ~n seed =
  let sc = Runner.scenario_of_setup setup ~n ~seed in
  let cfg = Aer.config_of_scenario ~compile:Runner.default_config.Runner.compile sc in
  let adversary = cornering sc in
  Aer.compile cfg;
  ignore
    (Aer_sync.start ~quiet_limit:(Probe.quiet_limit_of sc) ~config:cfg ~n
       ~seed:sc.Scenario.params.Params.seed ~adversary ~mode:`Rushing
       ~max_rounds:Runner.default_config.Runner.max_rounds ())

let stream size =
  let n = size.stream_n in
  let correct = correct_count ~n in
  let lane = ref None in
  {
    name = "stream-n128";
    pass_size = 16;
    set_up = set_up_instance ~n;
    untraced =
      (fun root c ->
        match service_run ~n ~stream_seed:root ~instances:c with
        | s -> Array.map (of_service_result ~correct) s.Service.results
        | exception e ->
          Array.init c (fun k ->
              { seed = Service.instance_seed root k; latency_ns = 0; out = failed_outcome e }));
    traced =
      (fun root k ->
        (* Each Service.run owns fresh lanes; so does each traced block. *)
        if k = 0 then lane := Some (Probe.lane ~n);
        let seed = Service.instance_seed root k in
        timed ~seed (stream_traced ~lane:(Option.get !lane) ~n ~seed));
    (* Epoch reuse is storage only: the stream's first instance must be
       the same execution as a fresh one-shot run of its seed. *)
    cross_check =
      (fun inst ->
        let first = inst.(0) in
        let one = oneshot_run ~traced:false ~n ~seed:first.seed () in
        if one.fingerprint = first.out.fingerprint then []
        else
          [
            Printf.sprintf "FINGERPRINT MISMATCH seed=%Ld service=0x%016Lx one-shot=0x%016Lx"
              first.seed first.out.fingerprint one.fingerprint;
          ]);
  }

let oneshot size =
  let n = size.oneshot_n in
  {
    name = "oneshot-n1024";
    pass_size = 4;
    set_up = set_up_instance ~n;
    untraced = loop (oneshot_run ~traced:false ~n);
    traced =
      (fun root k ->
        let seed = Service.instance_seed root k in
        timed ~seed (oneshot_run ~traced:true ~n ~seed));
    cross_check = no_cross_check;
  }

let mix size =
  let ns = size.mix_ns in
  {
    name = "mix-fig1";
    pass_size = 4;
    set_up = (fun seed -> List.iter (fun n -> set_up_instance ~n seed) ns);
    untraced = loop (mix_run ~traced:false ~ns);
    traced =
      (fun root k ->
        let seed = Service.instance_seed root k in
        timed ~seed (mix_run ~traced:true ~ns ~seed));
    cross_check = no_cross_check;
  }

let find ?(size = full) name =
  List.find_opt (fun w -> w.name = name) [ stream size; oneshot size; mix size ]

(* Repeat [step] while the time it has taken so far, plus its mean,
   still fits [budget] ns; at least once. *)
let repeat ~budget step =
  let t0 = now_ns () in
  let rec go k acc =
    let spent = now_ns () - t0 in
    if k > 0 && spent + (spent / k) > budget then List.rev acc else go (k + 1) (step k :: acc)
  in
  go 0 []

(* Set-up rounds, each on its own seed, timed in seconds. *)
let set_up_round w root r =
  let t = now_ns () in
  w.set_up (derived root "set-up" r);
  float_of_int (now_ns () - t) /. 1e9

(* --- Results --- *)

type metric = { key : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let count p a = Array.fold_left (fun acc i -> if p i then acc + 1 else acc) 0 a
let failures = count (fun i -> i.out.failure <> None)

let instance_notes a =
  Array.to_list a
  |> List.filter_map (fun i ->
         match i.out.failure with
         | Some f -> Some (Printf.sprintf "FAILED instance seed=%Ld: %s" i.seed f)
         | None ->
           if i.out.undecided then
             Some (Printf.sprintf "undecided instance seed=%Ld: a correct node did not decide" i.seed)
           else None)

let ms ns = float_of_int ns /. 1e6

let fp_digest a =
  String.concat " "
    (List.init (min 4 (Array.length a)) (fun i -> Printf.sprintf "0x%016Lx" a.(i).out.fingerprint))

let outcome_notes inst =
  let n = Array.length inst in
  let undecided = count (fun i -> i.out.undecided) inst in
  let bits = Array.map (fun i -> i.out.bits_per_node) inst in
  [
    Printf.sprintf "failed_share = %d/%d, undecided_share = %d/%d" (failures inst) n undecided n;
    Printf.sprintf "rounds_mean = %.3f%s"
      (Fba_stdx.Stats.mean (Array.map (fun i -> float_of_int i.out.rounds) inst))
      (if Array.exists Float.is_nan bits then ""
       else Printf.sprintf ", bits_per_node_mean = %.1f" (Fba_stdx.Stats.mean bits));
  ]

(* Messages for instances whose fingerprint differs from the same
   instance in [reference]. *)
let mismatches ~what reference inst =
  List.filter_map
    (fun (u, t) ->
      if u.out.fingerprint = t.out.fingerprint then None
      else
        Some
          (Printf.sprintf "FINGERPRINT MISMATCH (%s) seed=%Ld 0x%016Lx vs 0x%016Lx" what u.seed
             u.out.fingerprint t.out.fingerprint))
    (List.combine (Array.to_list reference) (Array.to_list inst))

(* End-to-end metrics, with tracing off. The run repeats one pass of
   [pass_size] instances, with set-up rounds and a reference sample
   before each pass, until its time is spent. Times are normalized by
   the reference kernel's median sample in the run ({!Reference.scale});
   the raw figures are printed as notes. *)
let untraced w ~root ~seconds =
  ignore (Reference.take ());
  let setups = ref (List.init 5 (set_up_round w root)) in
  let words = ref 0. in
  let passes =
    repeat ~budget:(int_of_float (seconds *. 1e9)) (fun p ->
        setups := set_up_round w root ((2 * p) + 5) :: set_up_round w root ((2 * p) + 6) :: !setups;
        Reference.sample ();
        let w0 = Gc.minor_words () in
        let inst = w.untraced root w.pass_size in
        words := !words +. (Gc.minor_words () -. w0);
        inst)
  in
  Reference.sample ();
  let reference = median (Array.of_list (List.map float_of_int (Reference.take ()))) in
  let scale = Reference.scale reference in
  let first = List.hd passes in
  let all = Array.concat passes in
  let runs = Array.length all in
  let lat = Array.map (fun i -> ms i.latency_ns) all in
  let rate = float_of_int runs /. (Array.fold_left ( +. ) 0. lat /. 1e3) in
  let setup_s = median (Array.of_list !setups) in
  let problems =
    w.cross_check first @ List.concat_map (mismatches ~what:"pass vs first pass" first) (List.tl passes)
  in
  let tail_note =
    match tail lat with
    | None -> Printf.sprintf "latency_tail_ms omitted: %d samples, fewer than 11" runs
    | Some (p, v) ->
      Printf.sprintf "latency_tail_ms p%.1f = %.3f raw, %.3f normalized (%d samples)" p v (v *. scale)
        runs
  in
  {
    attempted = runs;
    failed = failures all + List.length problems;
    metrics =
      [
        { key = "instances_per_sec"; value = rate /. scale; unit_ = "1/s" };
        { key = "latency_p50_ms"; value = median lat *. scale; unit_ = "ms" };
        { key = "minor_words_per_instance"; value = !words /. float_of_int runs; unit_ = "words" };
        { key = "peak_rss_mb"; value = float_of_int (vm_hwm_kb ()) /. 1024.; unit_ = "MB" };
        { key = "setup_s"; value = setup_s *. scale; unit_ = "s" };
      ];
    notes =
      [
        Printf.sprintf
          "%d passes of %d instances; raw: latency_p50_ms = %.3f, instances_per_sec = %.4f, setup_s = \
           %.6f; reference kernel %.3f ms (nominal %.3f), scale %.4f"
          (List.length passes) w.pass_size (median lat) rate setup_s (reference /. 1e6)
          (float_of_int Reference.nominal_ns /. 1e6)
          scale;
        tail_note;
      ]
      @ outcome_notes first
      @ [ "fingerprints of the first instances: " ^ fp_digest first ]
      @ problems @ instance_notes first;
  }

(* Per-layer metrics: a traced run. Blocks of [pass_size] instances
   run untraced and traced over the same instances, alternating which
   side runs first, until the time is spent. Every metric is per
   traced instance unless its name says otherwise. *)
let traced w ~root ~seconds =
  ignore (set_up_round w root 0);
  Probe.reset ();
  let untraced_ns = ref 0 and traced_ns = ref 0 in
  let minor_gcs = ref 0 and major_gcs = ref 0 in
  let untraced_side broot =
    let g0 = Gc.quick_stat () in
    let t0 = now_ns () in
    let inst = w.untraced broot w.pass_size in
    untraced_ns := !untraced_ns + (now_ns () - t0);
    let g1 = Gc.quick_stat () in
    minor_gcs := !minor_gcs + g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs := !major_gcs + g1.Gc.major_collections - g0.Gc.major_collections;
    inst
  in
  let traced_side broot =
    let t0 = now_ns () in
    let inst = Array.init w.pass_size (w.traced broot) in
    traced_ns := !traced_ns + (now_ns () - t0);
    inst
  in
  ignore (Reference.take ());
  let blocks =
    repeat ~budget:(int_of_float (seconds *. 1e9)) (fun b ->
        Reference.sample ();
        let broot = derived root "block" b in
        if b mod 2 = 0 then
          let u = untraced_side broot in
          (u, traced_side broot)
        else
          let t = traced_side broot in
          (untraced_side broot, t))
  in
  let plain = Array.concat (List.map fst blocks) and probed = Array.concat (List.map snd blocks) in
  let problems = mismatches ~what:"untraced vs traced" plain probed in
  let k = float_of_int (Array.length probed) in
  let per ns = ms ns /. k in
  let per_untraced c = float_of_int c /. float_of_int (Array.length plain) in
  let deliveries = Array.fold_left ( + ) 0 Probe.deliveries in
  let traced_wall = Array.fold_left (fun acc i -> acc + i.latency_ns) 0 probed in
  let unattributed = traced_wall - Probe.accounted_ns () in
  let time key ns = { key; value = per ns; unit_ = "ms" } in
  let counted key c = { key; value = float_of_int c /. k; unit_ = "count" } in
  (* The per-tag rows need an AER config for the tag table; any will do. *)
  let tag_cfg =
    Aer.config_of_scenario ~compile:false (Runner.scenario_of_setup setup ~n:64 ~seed:1L)
  in
  let per_tag =
    List.concat_map
      (fun name ->
        let i = Probe.tag_index tag_cfg name in
        [
          time ("aer.handler." ^ name ^ "_ms") Probe.handler_ns.(i);
          counted ("aer.deliveries." ^ name) Probe.deliveries.(i);
        ])
      Probe.tag_names
  in
  let metrics =
    [
      time "runner.scenario_ms" (Probe.span_self "runner.scenario");
      time "aer.config_ms" (Probe.span_self "aer.config");
      time "compiled.build_ms" (Probe.span_self "compiled.build");
      time "aer_attacks.setup_ms" (Probe.span_self "aer_attacks.setup");
      time "sync_engine.start_ms" (Probe.span_self "sync_engine.start");
      time "aer.handler_ms" !Probe.handler_total;
      {
        key = "aer.handler_ns_per_delivery";
        value = float_of_int !Probe.handler_total /. float_of_int (max 1 deliveries);
        unit_ = "ns";
      };
      counted "aer.deliveries" deliveries;
    ]
    @ per_tag
    @ [
        time "sync_engine.step_ms" (Probe.span_total "sync_engine.step");
        time "sync_engine.self_ms" (Probe.span_self "sync_engine.step");
        counted "sync_engine.rounds" !Probe.rounds;
        time "aer_attacks.act_ms" !Probe.act_ns;
        counted "aer_attacks.act_calls" !Probe.act_calls;
        counted "aer_attacks.injected" !Probe.injected;
        time "runner.observe_ms" (Probe.span_self "runner.observe");
        {
          key = "sim.peak_mailbox_words";
          value = float_of_int (Array.fold_left (fun acc i -> max acc i.out.peak_words) 0 probed);
          unit_ = "words";
        };
        { key = "gc.minor_collections"; value = per_untraced !minor_gcs; unit_ = "count" };
        { key = "gc.major_collections"; value = per_untraced !major_gcs; unit_ = "count" };
        {
          key = "trace.overhead";
          value = float_of_int !traced_ns /. float_of_int (max 1 !untraced_ns);
          unit_ = "ratio";
        };
        time "trace.unattributed_ms" unattributed;
        {
          key = "box.reference_ms";
          value = median (Array.of_list (List.map ms (Reference.take ())));
          unit_ = "ms";
        };
      ]
  in
  (* Layers only the mix exercises: printed, not part of the result. *)
  let mix_layers =
    if w.name <> "mix-fig1" then []
    else
      [
        "mix layers per instance (ms): "
        ^ String.concat " "
            (List.map
               (fun (key, ns) -> Printf.sprintf "%s=%.3f" key (per ns))
               [
                 ("runner.run_grid_ms", Probe.span_total "runner.run_grid");
                 ("runner.aer_sync_nonrushing_ms", Probe.span_total "runner.aer_sync_nonrushing");
                 ("runner.aer_async_ms", Probe.span_total "runner.aer_async");
                 ("runner.ks09_ms", Probe.span_total "runner.ks09");
                 ("runner.run_relay_ms", Probe.span_total "runner.run_relay");
                 ("ba.run_sync_ms", Probe.span_total "ba.run_sync");
                 ("aer_attacks.async_hooks_ms", !Probe.hooks_ns);
                 ("async_engine.self_ms", Probe.span_self "async_engine.run");
               ]);
      ]
  in
  let ladder =
    Printf.sprintf
      "ladder: traced instance %.3f ms = layer self times %.3f ms + unattributed %.3f ms (%d traced, \
       %d untraced instances)"
      (per traced_wall) (per (Probe.accounted_ns ())) (per unattributed) (Array.length probed)
      (Array.length plain)
  in
  {
    attempted = Array.length plain + Array.length probed;
    failed = failures plain + failures probed + List.length problems;
    metrics;
    notes =
      (ladder :: mix_layers)
      @ outcome_notes plain
      @ [ "fingerprints, untraced then traced: " ^ fp_digest plain ^ " / " ^ fp_digest probed ]
      @ problems @ instance_notes plain @ instance_notes probed;
  }

(* --- Box fingerprint: a memory-bound calibration loop --- *)

(* Dependent random reads over a 64 MB buffer, larger than the
   last-level cache of common server parts: the index of each read
   depends on the value of the last, so reads do not overlap and each
   costs a trip to memory. Returns nanoseconds per read, the median of
   three passes. *)
let calibrate () =
  let words = 1 lsl 23 in
  let mask = words - 1 in
  let buf = Array.make words 1 in
  let reads = 1 lsl 20 in
  let pass () =
    let idx = ref 0 in
    let t0 = now_ns () in
    for _ = 1 to reads do
      (* idx <- 5 idx + 1 (mod 2^23): a full-period walk. *)
      idx := ((5 * !idx) + Array.unsafe_get buf !idx) land mask
    done;
    let dt = now_ns () - t0 in
    if !idx < 0 then print_string "";
    float_of_int dt /. float_of_int reads
  in
  median (Array.init 3 (fun _ -> pass ()))

(* --- JSON --- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_escape s =
  String.concat "" (List.map (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c) (List.of_seq (String.to_seq s)))

let to_json r =
  let correct = r.failed = 0 in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (json_escape m.key)
              (json_number m.value) (json_escape m.unit_))
          r.metrics))
