(* The benchmark's executable.

     main.exe run --workload NAME --seed N --seconds S --trace 0|1
     main.exe calibrate

   [run] prints human-readable lines, then the result as one JSON
   object on the last line, and exits 1 if an instance failed its
   output check. [calibrate] prints the memory-bound calibration
   loop's nanoseconds per read. perfbench/run.py builds this program
   and calls both. *)

let usage () =
  prerr_endline
    ("usage: main.exe run --workload (" ^ String.concat "|" Perfbench.Workloads.names
   ^ ") --seed N --seconds S --trace 0|1\n       main.exe calibrate");
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "calibrate" ] -> Printf.printf "%.17g\n" (Perfbench.Bench.calibrate ())
  | "run" :: args ->
    let rec parse acc = function
      | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let workload = get "workload" in
    let seed, seconds, trace =
      match (int_of_string_opt (get "seed"), float_of_string_opt (get "seconds"), get "trace") with
      | Some seed, Some seconds, (("0" | "1") as t) when seconds > 0. -> (seed, seconds, t = "1")
      | _ -> usage ()
    in
    let w = match Perfbench.Bench.find workload with Some w -> w | None -> usage () in
    let root = Int64.of_int seed in
    let r =
      if trace then Perfbench.Bench.traced w ~root ~seconds
      else Perfbench.Bench.untraced w ~root ~seconds
    in
    List.iter print_endline r.Perfbench.Bench.notes;
    print_endline (Perfbench.Bench.to_json r);
    exit (if r.Perfbench.Bench.failed = 0 then 0 else 1)
  | _ -> usage ()
