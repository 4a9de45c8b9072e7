(* The fba front-end's exit codes: a size or fraction that violates
   Params.make/make_for's preconditions, or a population past the packed
   message word's 2^18 ceiling, is a usage error (cmdliner's exit 124,
   with the reason and the usage line on stderr), and an output file
   that cannot be opened is a one-line error; neither is an "internal
   error, uncaught exception" (exit 125). *)

let fba = "../bin/fba.exe"

let run args =
  let ic, oc, ec = Unix.open_process_args_full fba (Array.of_list (fba :: args)) [||] in
  close_out oc;
  let _ = In_channel.input_all ic in
  let err = In_channel.input_all ec in
  match Unix.close_process_full (ic, oc, ec) with
  | Unix.WEXITED code -> (code, err)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail "fba was killed"

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let check_usage_error args ~mentions =
  let code, err = run args in
  let cmd = String.concat " " args in
  Alcotest.(check int) (cmd ^ ": exit code") Cmdliner.Cmd.Exit.cli_error code;
  Alcotest.(check bool) (cmd ^ ": names the precondition") true (contains ~sub:mentions err);
  Alcotest.(check bool) (cmd ^ ": prints usage") true (contains ~sub:"Usage: fba" err)

let test_params_preconditions () =
  check_usage_error [ "run-aer"; "-n"; "1" ] ~mentions:"n must be at least 4";
  check_usage_error [ "run-aer"; "--byzantine"; "0.5" ] ~mentions:"byzantine_fraction";
  check_usage_error [ "run-aer"; "--knowledgeable"; "0.2" ] ~mentions:"knowledgeable_fraction";
  check_usage_error [ "run-ba"; "-n"; "2" ] ~mentions:"n must be at least 4";
  check_usage_error [ "trace"; "-n"; "3" ] ~mentions:"n must be at least 4";
  check_usage_error [ "service"; "-n"; "1"; "--instances"; "1"; "--jobs"; "1" ]
    ~mentions:"n must be at least 4"

let test_layout_ceiling () =
  check_usage_error [ "run-aer"; "-n"; "300000" ] ~mentions:"2^18 = 262144"

let test_unwritable_jsonl () =
  let code, err = run [ "trace"; "-n"; "48"; "--jsonl"; "/nonexistent/dir/x.jsonl" ] in
  Alcotest.(check bool) "exits non-zero" true (code <> 0);
  Alcotest.(check bool) "no internal error" false (contains ~sub:"internal error" err);
  Alcotest.(check bool) "names the file" true (contains ~sub:"/nonexistent/dir/x.jsonl" err);
  Alcotest.(check int) "one line" 1
    (List.length (List.filter (( <> ) "") (String.split_on_char '\n' err)))

let test_valid_run_exits_zero () =
  let code, _ = run [ "run-aer"; "-n"; "32"; "--seed"; "3" ] in
  Alcotest.(check int) "run-aer -n 32 exit code" 0 code

let suites =
  [
    ( "cli.exit_codes",
      [
        Alcotest.test_case "Params preconditions are usage errors" `Quick
          test_params_preconditions;
        Alcotest.test_case "n past 2^18 is a usage error" `Quick test_layout_ceiling;
        Alcotest.test_case "unwritable --jsonl is a one-line error" `Quick
          test_unwritable_jsonl;
        Alcotest.test_case "a valid run exits 0" `Quick test_valid_run_exits_zero;
      ] );
  ]
