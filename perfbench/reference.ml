(* A fixed reference kernel that gauges how fast the host runs work
   like the simulator's, at the moment it is sampled.

   On a shared host, contention for the memory system slows whole
   stretches of a run by tens of percent, and slow stretches can outlast
   a run. The kernel does random read-modify-writes over a 2 MB buffer
   with a short-lived allocation per step, like AER's handlers on their
   tables, and is sampled between instances. It is part of the
   benchmark, not of the program, so a change to the program does not
   move it; it is timed on a warm buffer, so the program's cache
   footprint does not either.

   Contention slows the kernel more than the workloads: over twelve
   35-s runs of stream-n128 and oneshot-n1024, log latency against log
   kernel time had slopes 0.47 and 0.40 (correlations 0.99 and 0.92).
   Times are therefore scaled by the square root of the kernel's
   slowdown ({!scale}), which cut the runs' latency spread (IQR /
   median) from 0.24 to 0.03 and from 0.26 to 0.10. Dependent
   pointer-chasing probes, like the calibration loop, tracked latency
   far worse. *)

let words = 1 lsl 18
let buf = lazy (Array.make words 1)

let kernel () =
  let a = Lazy.force buf in
  let x = ref 1 and s = ref 0 in
  let t0 = Probe.now_ns () in
  for _ = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffffffff;
    let j = (!x lsr 9) land (words - 1) in
    s := !s + Array.unsafe_get a j;
    Array.unsafe_set a j (!s land 0xffff);
    s := !s + List.length (Sys.opaque_identity [ !s; j ])
  done;
  if !s = 42 then print_string "";
  Probe.now_ns () - t0

(* The kernel's time in a typical stretch on the host the benchmark
   was written on. A normalized time is what the time would read when
   the kernel takes this long. *)
let nominal_ns = 1_600_000

(* The factor that normalizes a time measured while the kernel's median
   sample was [reference_ns]. *)
let scale reference_ns = sqrt (float_of_int nominal_ns /. reference_ns)

let samples = ref []

(* Time the kernel once its buffer is warm, and keep the sample. *)
let sample () =
  ignore (kernel ());
  samples := kernel () :: !samples

(* The samples taken since the last call, oldest first. *)
let take () =
  let s = List.rev !samples in
  samples := [];
  s
