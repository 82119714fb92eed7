(* The perf-gate decision logic (ISSUE 10 satellite): the gate against
   an empty or missing trajectory used to pass silently — these are
   the regressions that keep it honest.  The logic is pure
   (lib/gate), so the tests feed it bench-file strings directly. *)

module G = Arc_gate.Gate

let bench ?(plain = 6.5) ?(join = 120.) () =
  Printf.sprintf
    "{\n\
    \  \"telemetry\": {\n\
    \    \"read_hit_ns_off\": 9.10,\n\
    \    \"read_hit_ns_on\": 9.30,\n\
    \    \"overhead_pct\": 2.20,\n\
    \    \"read_plain_ns\": %.2f,\n\
    \    \"reader_join_p99_ns\": %.2f\n\
    \  }\n\
     }"
    plain join

let scaling =
  "{ \"hw_cores\": 4, \"read_hit_ns@2\": 10.0, \"read_plain_ns@2\": 6.0,\n\
  \  \"read_hit_ns@4\": 11.0, \"read_plain_ns@4\": 7.0,\n\
  \  \"results\": [{\"cores\": 2, \"read_hit_ns\": 10.0}] }"

let evaluate ?fabric ?scaling ?shm ?prior ?(ceiling = 9.8) b =
  match
    G.evaluate ~bench:b ?fabric ?scaling ?shm ?prior ~threshold:20. ~ceiling
      ~label:"test" ~date:"2026-01-01T00:00:00Z" ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "evaluate failed: %s" e

let count p r = List.length (List.filter p r.G.verdicts)
let is_regression = function G.Regression _ -> true | _ -> false
let is_within = function G.Within _ -> true | _ -> false
let is_seed = function G.Baseline_recorded _ -> true | _ -> false

let test_empty_trajectory_is_not_green () =
  (* No prior entry: every metric seeds, nothing is compared, and the
     report says so — the caller must exit non-zero on [seeded]. *)
  let r = evaluate (bench ()) in
  Alcotest.(check bool) "seeded" true r.G.seeded;
  Alcotest.(check int) "nothing compared" 0 r.G.compared;
  Alcotest.(check int) "no failures either" 0 r.G.failures;
  Alcotest.(check bool) "all metrics recorded as baselines" true
    (count is_seed r >= 3);
  Alcotest.(check bool) "entry carries the label" true
    (G.field_of ~key:"read_hit_ns_off" r.G.entry = Some 9.1)

let test_prior_entry_arms_the_gate () =
  let prior =
    "{\"date\": \"x\", \"label\": \"prev\", \"read_hit_ns_off\": 9.00, \
     \"read_plain_ns\": 6.40, \"reader_join_p99_ns\": 118.00}"
  in
  let r = evaluate ~prior (bench ()) in
  Alcotest.(check bool) "not seeded" false r.G.seeded;
  Alcotest.(check int) "three trajectory comparisons" 3 r.G.compared;
  Alcotest.(check int) "all within threshold" 0 r.G.failures;
  Alcotest.(check bool) "within verdicts" true (count is_within r = 3)

let test_regression_detected () =
  let prior = "{\"read_hit_ns_off\": 6.00}" in
  let r = evaluate ~prior (bench ()) in
  (* 9.10 against 6.00 + 20% = 7.20: regression. *)
  Alcotest.(check int) "one failure" 1 r.G.failures;
  Alcotest.(check bool) "a regression verdict" true (count is_regression r = 1)

let test_plain_ceiling_enforced () =
  (* The R2' plain read must stay under the absolute ceiling even when
     the trajectory agrees with it (drift-only gates would let the
     fast path erode one threshold at a time). *)
  let prior = "{\"read_plain_ns\": 11.90}" in
  let r = evaluate ~prior (bench ~plain:12.0 ()) in
  Alcotest.(check int) "ceiling violation" 1 r.G.failures;
  Alcotest.(check bool) "ceiling verdict" true
    (count (function G.Ceiling_exceeded _ -> true | _ -> false) r = 1);
  let ok = evaluate ~prior:"{\"read_plain_ns\": 6.40}" (bench ()) in
  Alcotest.(check bool) "under ceiling passes" true
    (count (function G.Ceiling_ok _ -> true | _ -> false) ok = 1)

(* The shape bench/main.exe --shm-json writes: the 4KB heap copy row
   follows a 4KB shm row and precedes the larger sizes' copy rows. *)
let shm_bench copy_4k =
  Printf.sprintf
    "{\n\
    \  \"results\": [\n\
    \    {\"substrate\": \"shm\", \"op\": \"write\", \"size\": \"4KB\", \"size_words\": \
     512, \"median_ns_per_op\": 900.0},\n\
    \    {\"substrate\": \"heap\", \"op\": \"copy\", \"size\": \"4KB\", \"size_words\": \
     512, \"copy_ns_per_word\": %.3f},\n\
    \    {\"substrate\": \"heap\", \"op\": \"copy\", \"size\": \"32KB\", \"size_words\": \
     4096, \"copy_ns_per_word\": 7.000}\n\
    \  ]\n\
     }"
    copy_4k

let test_copy_ceiling () =
  (* The heap payload copy is held under an absolute bound: 0.10
     ns/word is a memmove, 2.32 the per-word GC-barrier path. *)
  let is_copy metric = metric = "copy_ns_per_word@4KB" in
  let ok = evaluate ~shm:(shm_bench 0.10) (bench ()) in
  Alcotest.(check int) "memmove copy passes" 0 ok.G.failures;
  Alcotest.(check bool) "copy ceiling ok verdict on the 4KB row" true
    (count
       (function
         | G.Ceiling_ok { metric; value; _ } -> is_copy metric && value = 0.10
         | _ -> false)
       ok
    = 1);
  let slow = evaluate ~shm:(shm_bench 2.32) (bench ()) in
  Alcotest.(check int) "barrier-path copy fails" 1 slow.G.failures;
  Alcotest.(check bool) "copy ceiling exceeded verdict" true
    (count
       (function G.Ceiling_exceeded { metric; _ } -> is_copy metric | _ -> false)
       slow
    = 1);
  Alcotest.(check bool) "no shm bench, no copy verdict" true
    (count
       (function
         | G.Ceiling_ok { metric; _ } | G.Ceiling_exceeded { metric; _ } -> is_copy metric
         | _ -> false)
       (evaluate (bench ()))
    = 0)

let test_scaling_keys_discovered_and_gated () =
  let r = evaluate ~scaling (bench ()) in
  (* Discovery: every read_hit_ns@N / read_plain_ns@N key is tracked
     (and lands in the entry); the nested results array must not
     contribute keys. *)
  Alcotest.(check (list string)) "hit keys" [ "read_hit_ns@2"; "read_hit_ns@4" ]
    (G.keys_with_prefix ~prefix:"read_hit_ns@" scaling);
  Alcotest.(check (option (float 0.001))) "scaling key in entry" (Some 10.0)
    (G.field_of ~key:"read_hit_ns@2" r.G.entry);
  let prior = "{\"read_hit_ns@2\": 5.0, \"read_plain_ns@2\": 6.1}" in
  let armed = evaluate ~scaling ~prior (bench ()) in
  (* @2 hit regressed (10.0 vs 5.0+20%); @2 plain within; @4 seeds. *)
  Alcotest.(check bool) "per-core regression caught" true
    (armed.G.failures >= 1 && count is_regression armed >= 1);
  Alcotest.(check bool) "per-core within counted" true (armed.G.compared >= 2)

let test_malformed_inputs_rejected () =
  (match
     G.evaluate ~bench:"{}" ~threshold:20. ~label:"x" ~date:"d" ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bench without required fields must be rejected");
  (match
    G.evaluate ~bench:(bench ()) ~fabric:"{}" ~threshold:20. ~label:"x" ~date:"d" ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fabric file without snapshot_ns_per_shard must be rejected");
  match
    G.evaluate ~bench:(bench ()) ~shm:"{\"results\": []}" ~threshold:20. ~label:"x"
      ~date:"d" ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shm file without the 4KB heap copy row must be rejected"

let suite =
  [
    Alcotest.test_case "empty trajectory is not green" `Quick
      test_empty_trajectory_is_not_green;
    Alcotest.test_case "prior entry arms the gate" `Quick
      test_prior_entry_arms_the_gate;
    Alcotest.test_case "regression detected" `Quick test_regression_detected;
    Alcotest.test_case "plain-read ceiling" `Quick test_plain_ceiling_enforced;
    Alcotest.test_case "heap copy ceiling" `Quick test_copy_ceiling;
    Alcotest.test_case "scaling keys discovered" `Quick
      test_scaling_keys_discovered_and_gated;
    Alcotest.test_case "malformed inputs rejected" `Quick
      test_malformed_inputs_rejected;
  ]
