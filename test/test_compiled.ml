(* Scenario compiler (Fba_core.Compiled + Int_table + the interned-id
   cache extensions).

   The compiled plane must be invisible: lowering the scenario into
   flat dispatch tables may change how lookups are answered, never what
   they answer. Evidence, bottom up:

   - Int_table vs a Hashtbl model: randomized op sequences agree on
     every returned value (the table underlies all compiled-path
     per-node sets and counters);
   - membership oracles: [Cache.pos_sid]/[pos_rid] agree with
     [mem_sid]/[mem_rid] and index the cached quorum correctly;
   - CSR fan-out vs Push_plan: the compiled push edges are exactly
     [Push_plan.targets] for every correct node, and the rows the
     build donates to the push cache are exactly the sampler's;
   - wire accounting: [Compiled.bits] equals [Packed.bits], including
     for strings interned after compilation;
   - trace identity: full runs with compilation on and off are
     bit-identical (metrics fingerprint, outputs, JSONL event stream)
     on adversarial scenarios, sync and async — the determinism goldens
     (test_determinism) then pin the shared behaviour to the historical
     wire trace. *)

module Attacks = Fba_adversary.Aer_attacks
module Runner = Fba_harness.Runner
module Metrics = Fba_sim.Metrics
module Cache = Fba_samplers.Cache
module Sampler = Fba_samplers.Sampler
module Push_plan = Fba_samplers.Push_plan
open Fba_core
open Fba_stdx
module Packed = Msg.Packed

(* --- Int_table vs Hashtbl model --- *)

type iop = Set of int * int | Add of int | Incr of int | Mem of int | Clear

let gen_iop =
  let open QCheck2.Gen in
  (* Keys from a small range so collisions, growth and re-touching are
     all exercised. *)
  let k = int_range 0 200 in
  oneof
    [
      map2 (fun k v -> Set (k, v)) k (int_range 0 1000);
      map (fun k -> Add k) k;
      map (fun k -> Incr k) k;
      map (fun k -> Mem k) k;
      return Clear;
    ]

let prop_int_table =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"Int_table agrees with a Hashtbl model"
       QCheck2.Gen.(list_size (int_range 0 400) gen_iop)
       (fun ops ->
         let t = Int_table.create ~capacity:2 () in
         let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
         let get_m k = match Hashtbl.find_opt model k with Some v -> v | None -> min_int in
         List.for_all
           (fun op ->
             let ok =
               match op with
               | Set (k, v) ->
                 Int_table.set t k v;
                 Hashtbl.replace model k v;
                 true
               | Add k ->
                 let fresh = Int_table.add t k in
                 let fresh' = not (Hashtbl.mem model k) in
                 if fresh' then Hashtbl.replace model k 0;
                 fresh = fresh'
               | Incr k ->
                 let v = Int_table.incr t k in
                 let v' = (match Hashtbl.find_opt model k with Some v -> v | None -> 0) + 1 in
                 Hashtbl.replace model k v';
                 v = v'
               | Mem k -> Int_table.mem t k = Hashtbl.mem model k
               | Clear ->
                 Int_table.clear t;
                 Hashtbl.reset model;
                 true
             in
             ok
             && Int_table.length t = Hashtbl.length model
             && (match op with
                | Set (k, _) | Add k | Incr k | Mem k ->
                  Int_table.get_or t k ~default:min_int = get_m k
                | Clear -> true))
           ops))

let test_int_table_negative () =
  let t = Int_table.create () in
  let rejects name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  rejects "set" (fun () -> Int_table.set t (-1) 0);
  rejects "add" (fun () -> ignore (Int_table.add t (-3)));
  rejects "incr" (fun () -> ignore (Int_table.incr t (-1)))

(* --- Int_table slot spread --- *)

(* The handlers' packed keys carry their low field in the key's low
   bits: (key_sx lsl 13) lor w for one node's Fw1 targets, and
   (x lsl 13) lor sid for its per-(x, s) sets. A slot hash that reads
   only low key bits — the multiply applied after the shift,
   key * (C lsr 30), whose even factor also halves the slots — piles
   every key sharing that field onto one home slot. Lookups of either
   shape must stay near one slot. *)
let mean_probe_length keys =
  let t = Int_table.create ~capacity:32 () in
  List.iter (fun k -> Int_table.set t k 0) keys;
  List.iter (fun k -> if not (Int_table.mem t k) then Alcotest.failf "key %d lost" k) keys;
  let slots = List.fold_left (fun acc k -> acc + Int_table.probe_length t k) 0 keys in
  float_of_int slots /. float_of_int (List.length keys)

let test_int_table_spread () =
  let sid = 3 in
  let ws = List.init 30 (fun i -> ((i * 331) + 17) mod 1024) in
  let groups = List.init 20 (fun j -> (sid lsl 13) lor (((j * 97) + 5) mod 1024)) in
  let f1_targets = List.concat_map (fun g -> List.map (fun w -> (g lsl 13) lor w) ws) groups in
  let key_xs = List.init 600 (fun i -> (((i * 7) + 1) lsl 13) lor sid) in
  List.iter
    (fun (name, keys) ->
      let mean = mean_probe_length keys in
      if mean > 2.0 then
        Alcotest.failf "%s: %d keys read %.2f slots per lookup (bound 2)" name (List.length keys)
          mean)
    [ ("f1_targets-shaped keys", f1_targets); ("key_xs keys sharing one sid", key_xs) ]

(* --- Shared scenario fixtures --- *)

let scenario ~n ~seed = Runner.scenario_of_setup Runner.default_setup ~n ~seed

(* Build against a local push cache (what Aer.compile does with the
   config's qi), keeping the donated rows inspectable. *)
let compiled_of sc =
  let find s = Intern.find sc.Scenario.intern s in
  let qi = Cache.create ~find (Params.sampler_i sc.Scenario.params) in
  let cp = Compiled.build ~scenario:sc ~qi () in
  (qi, cp)

(* --- Position oracles --- *)

let test_pos_oracles () =
  let sc = scenario ~n:64 ~seed:11L in
  let params = sc.Scenario.params in
  let intern = sc.Scenario.intern in
  let find s = Intern.find intern s in
  let qh = Cache.create ~find (Params.sampler_h params) in
  let qj = Cache.create ~find (Params.sampler_j params) in
  let n = params.Params.n in
  for x = 0 to n - 1 do
    let s = sc.Scenario.initial.(x) in
    let sid = Intern.find intern s in
    Alcotest.(check bool) "initials are interned" true (sid >= 0);
    let q = Cache.quorum_sid qh ~sid ~s ~x in
    for y = 0 to n - 1 do
      let pos = Cache.pos_sid qh ~sid ~s ~x ~y in
      let mem = Cache.mem_sid qh ~sid ~s ~x ~y in
      Alcotest.(check bool) "pos_sid >= 0 iff mem_sid" mem (pos >= 0);
      if pos >= 0 then Alcotest.(check int) "pos_sid indexes the quorum" y q.(pos)
    done
  done;
  let r = 0xFACEL in
  let rid = Intern.intern_label intern r in
  let x = 3 in
  let q = Cache.quorum_rid qj ~x ~rid ~r in
  for y = 0 to n - 1 do
    let pos = Cache.pos_rid qj ~x ~rid ~r ~y in
    let mem = Cache.mem_rid qj ~x ~rid ~r ~y in
    Alcotest.(check bool) "pos_rid >= 0 iff mem_rid" mem (pos >= 0);
    if pos >= 0 then Alcotest.(check int) "pos_rid indexes the quorum" y q.(pos)
  done

(* --- Typed membership scans vs an Array.exists oracle ---

   [mem_sid]/[pos_sid]/[mem_rid] answer from monomorphic int scans over
   memoized quorums; the oracle asks the sampler afresh and scans with
   the stdlib. Probes are quorum members, other ids, and ids outside
   [0, n) (the scans must answer "absent" for those, never fault). *)

let scan_fixtures =
  lazy
    (Array.map
       (fun n ->
         let sc = scenario ~n ~seed:5L in
         let params = sc.Scenario.params in
         let find s = Intern.find sc.Scenario.intern s in
         ( sc,
           Cache.create ~find (Params.sampler_h params),
           Cache.create ~find (Params.sampler_j params) ))
       [| 24; 64; 130 |])

let first_index q y =
  let rec go i = if i >= Array.length q then -1 else if q.(i) = y then i else go (i + 1) in
  go 0

let prop_scans_match_oracle =
  let open QCheck2.Gen in
  let gen =
    tup4 (int_range 0 2) (int_bound 10_000) (pair (int_range 0 2) (int_bound 10_000))
      (int_range 1 5_000)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"mem_sid/pos_sid/mem_rid agree with an Array.exists oracle"
       gen (fun (fi, xs, (mode, k), label) ->
         let sc, qh, qj = (Lazy.force scan_fixtures).(fi) in
         let params = sc.Scenario.params in
         let n = params.Params.n in
         let x = xs mod n in
         (* Any string the run knows: node [k mod n]'s initial value. *)
         let s = sc.Scenario.initial.(k mod n) in
         let sid = Intern.find sc.Scenario.intern s in
         let r = Int64.of_int label in
         let rid = Intern.intern_label sc.Scenario.intern r in
         let qs = Sampler.quorum_sx (Params.sampler_h params) ~s ~x in
         let qr = Sampler.quorum_xr (Params.sampler_j params) ~x ~r in
         let probe q =
           match mode with
           | 0 -> q.(k mod Array.length q)  (* a member *)
           | 1 -> k mod n  (* any in-range id *)
           | _ -> if k land 1 = 0 then -1 - (k mod 7) else n + (k mod 7)  (* outside [0, n) *)
         in
         let y = probe qs and y' = probe qr in
         Cache.mem_sid qh ~sid ~s ~x ~y = Array.exists (fun v -> v = y) qs
         && Cache.pos_sid qh ~sid ~s ~x ~y = first_index qs y
         && Cache.mem_rid qj ~x ~rid ~r ~y:y' = Array.exists (fun v -> v = y') qr))

(* --- CSR fan-out vs the Push_plan oracle --- *)

let test_csr_matches_push_plan () =
  List.iter
    (fun (n, seed) ->
      let sc = scenario ~n ~seed in
      let _qi, cp = compiled_of sc in
      (* Independent oracle: a fresh plan over a fresh sampler-equal
         cache, no interner routing. *)
      let plan = Push_plan.create ~sampler:(Params.sampler_i sc.Scenario.params) () in
      Alcotest.(check int) "compiled n" n (Compiled.n cp);
      for y = 0 to n - 1 do
        if Scenario.is_correct sc y then
          Alcotest.(check (array int))
            (Printf.sprintf "targets of correct node %d" y)
            (Push_plan.targets plan ~s:sc.Scenario.initial.(y) ~y)
            (Compiled.push_targets cp ~y)
        else
          Alcotest.(check (array int))
            (Printf.sprintf "corrupted node %d has no compiled edges" y)
            [||] (Compiled.push_targets cp ~y)
      done)
    [ (48, 5L); (96, 23L) ]

let test_seeded_rows_match_sampler () =
  let sc = scenario ~n:64 ~seed:3L in
  let qi, _cp = compiled_of sc in
  let si = Params.sampler_i sc.Scenario.params in
  let intern = sc.Scenario.intern in
  for x = 0 to sc.Scenario.params.Params.n - 1 do
    Array.iter
      (fun s ->
        let sid = Intern.find intern s in
        Alcotest.(check (array int))
          (Printf.sprintf "qi row (%s, %d)" s x)
          (Sampler.quorum_sx si ~s ~x)
          (Cache.quorum_sid qi ~sid ~s ~x))
      sc.Scenario.initial
  done

(* --- Wire accounting --- *)

let test_bits_agree () =
  let sc = scenario ~n:128 ~seed:9L in
  let params = sc.Scenario.params in
  let intern = sc.Scenario.intern in
  let lt = sc.Scenario.layout in
  let _qi, cp = compiled_of sc in
  let check_msg m =
    let p = Packed.pack lt intern m in
    Alcotest.(check int)
      (Format.asprintf "bits of %a" Msg.pp m)
      (Packed.bits lt params intern p) (Compiled.bits cp p)
  in
  let s0 = sc.Scenario.gstring and s1 = sc.Scenario.initial.(1) in
  List.iter check_msg
    [
      Msg.Push s0;
      Msg.Answer s1;
      Msg.Poll { s = s0; r = 77L };
      Msg.Pull { s = s1; r = -1L };
      Msg.Fw1 { x = 5; s = s0; r = 3L; w = 100 };
      Msg.Fw2 { x = 127; s = s1; r = 0L };
    ];
  (* A string the compiler never saw (interned after the build, as an
     adversary's junk would be) takes the slow path, once. *)
  let late = "late-junk-string-after-compile" in
  ignore (Intern.intern intern late);
  check_msg (Msg.Push late);
  check_msg (Msg.Push late);
  match Compiled.bits cp 0 with
  | (_ : int) -> Alcotest.fail "invalid tag accepted"
  | exception Invalid_argument _ -> ()

(* --- Trace identity: compile on vs off --- *)

module E = Fba_sim.Sync_engine.Make (Aer)
module A = Fba_sim.Async_engine.Make (Aer)

let fingerprint m =
  let h = ref (Hash64.init 0x600DL) in
  let n = Metrics.n m in
  for i = 0 to n - 1 do
    h := Hash64.add_int !h (Metrics.sent_messages_of m i);
    h := Hash64.add_int !h (Metrics.sent_bits_of m i);
    h := Hash64.add_int !h (Metrics.recv_messages_of m i);
    h := Hash64.add_int !h (Metrics.recv_bits_of m i);
    h := Hash64.add_int !h (match Metrics.decision_round m i with None -> -1 | Some r -> r)
  done;
  Hash64.finish (Hash64.add_int !h (Metrics.rounds m))

let quiet_limit_of sc =
  if Params.(sc.Scenario.params.max_poll_attempts) > 1 then
    Params.(sc.Scenario.params.repoll_timeout) + 2
  else 3

let jsonl_sink () =
  let buf = Buffer.create 4096 in
  let sink = Fba_sim.Events.create () in
  Fba_sim.Events.attach sink (Fba_sim.Events.Jsonl.consumer buf);
  (sink, buf)

let arb_run =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%Ld" n seed)
    QCheck.Gen.(pair (int_range 24 64) (map Int64.of_int (int_range 1 1000)))

let sync_run ~compile (n, seed) =
  let sc = scenario ~n ~seed in
  let events, buf = jsonl_sink () in
  let cfg = Aer.config_of_scenario ~events ~compile sc in
  let res =
    E.run ~quiet_limit:(quiet_limit_of sc) ~events ~config:cfg ~n ~seed
      ~adversary:(Attacks.cornering sc) ~mode:`Rushing ~max_rounds:300 ()
  in
  (res, buf)

let prop_sync_compile_identical =
  QCheck.Test.make ~name:"sync: compiled and dynamic runs are trace-identical" ~count:8 arb_run
    (fun run ->
      let on, on_buf = sync_run ~compile:true run in
      let off, off_buf = sync_run ~compile:false run in
      Int64.equal (fingerprint on.Fba_sim.Sync_engine.metrics)
        (fingerprint off.Fba_sim.Sync_engine.metrics)
      && on.Fba_sim.Sync_engine.outputs = off.Fba_sim.Sync_engine.outputs
      && Buffer.contents on_buf = Buffer.contents off_buf)

let async_run ~compile (n, seed) =
  let sc = scenario ~n ~seed in
  let events, buf = jsonl_sink () in
  let cfg = Aer.config_of_scenario ~events ~compile sc in
  let res =
    A.run ~events ~config:cfg ~n ~seed ~adversary:(Attacks.async_cornering sc) ~max_time:4000 ()
  in
  (res, buf)

let prop_async_compile_identical =
  QCheck.Test.make ~name:"async: compiled and dynamic runs are trace-identical" ~count:5 arb_run
    (fun run ->
      let on, on_buf = async_run ~compile:true run in
      let off, off_buf = async_run ~compile:false run in
      Int64.equal (fingerprint on.Fba_sim.Async_engine.metrics)
        (fingerprint off.Fba_sim.Async_engine.metrics)
      && on.Fba_sim.Async_engine.outputs = off.Fba_sim.Async_engine.outputs
      && Buffer.contents on_buf = Buffer.contents off_buf)

let suites =
  [
    ( "compiled.int_table",
      [
        prop_int_table;
        Alcotest.test_case "negative keys rejected" `Quick test_int_table_negative;
        Alcotest.test_case "packed keys spread: about one slot per lookup" `Quick
          test_int_table_spread;
      ] );
    ( "compiled.tables",
      [
        Alcotest.test_case "pos_sid/pos_rid agree with the mem oracles" `Quick test_pos_oracles;
        prop_scans_match_oracle;
        Alcotest.test_case "CSR fan-out equals Push_plan" `Quick test_csr_matches_push_plan;
        Alcotest.test_case "donated qi rows equal the sampler" `Quick test_seeded_rows_match_sampler;
        Alcotest.test_case "Compiled.bits equals Packed.bits" `Quick test_bits_agree;
      ] );
    ( "compiled.parity",
      List.map QCheck_alcotest.to_alcotest
        [ prop_sync_compile_identical; prop_async_compile_identical ] );
  ]
