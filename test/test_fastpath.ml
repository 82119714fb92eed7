(* ISSUE 10: the R2' validated plain-load read and write coalescing.

   Real-memory tests pin down the single-threaded semantics and the
   telemetry accounting; the virtual-scheduler tests drive the
   adversarial interleavings — a writer mid-publish during the plain
   scan must produce the one bounded fallback (never a torn result),
   and the unvalidated negative control must be convicted as torn by
   the stamped-payload validation under the same schedules. *)

module A = Arc_core.Arc.Make (Arc_mem.Real_mem)
module Ad = Arc_core.Arc_dynamic.Make (Arc_mem.Real_mem)
module P = Arc_workload.Payload.Make (Arc_mem.Real_mem)
module As = Arc_core.Arc.Make (Arc_vsched.Sim_mem)
module Ps = Arc_workload.Payload.Make (Arc_vsched.Sim_mem)
module Sq = Arc_baselines.Seqlock_reg.Make (Arc_vsched.Sim_mem)
module Checker = Arc_trace.Checker
module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy

let check = Alcotest.(check int)

let stamped ~seq ~len =
  let a = Array.make len 0 in
  P.stamp a ~seq ~len;
  a

(* --- R2' semantics on real memory ----------------------------------- *)

let test_plain_reads_values () =
  let n = 16 in
  let reg = A.create ~readers:2 ~capacity:n ~init:(stamped ~seq:0 ~len:n) in
  A.set_telemetry reg (Some (A.make_telemetry ~readers:2 ()));
  let rd = A.reader reg 0 in
  let read_seq () =
    match A.read_plain rd ~f:(fun buf len -> P.validate buf ~len) with
    | Ok s -> s
    | Error e -> Alcotest.failf "validated plain read returned torn data: %s" e
  in
  check "initial value" 0 (read_seq ());
  for k = 1 to 8 do
    A.write reg ~src:(stamped ~seq:k ~len:n) ~len:n;
    check (Printf.sprintf "write %d visible" k) k (read_seq ())
  done;
  let tel = Option.get (A.telemetry reg) in
  (* Single-threaded: every plain read validated, no fallback, and the
     plain path never touched the subscription machinery. *)
  check "plain reads counted" 9 (A.plain_reads tel);
  check "no fallbacks" 0 (A.plain_fallbacks tel);
  check "no classic reads" 0 (A.fast_reads tel + A.slow_reads tel)

let test_plain_hot_hit_after_subscribe () =
  let n = 8 in
  let reg = A.create ~readers:1 ~capacity:n ~init:(stamped ~seq:0 ~len:n) in
  let rd = A.reader reg 0 in
  A.write reg ~src:(stamped ~seq:1 ~len:n) ~len:n;
  (* Classic read subscribes and caches the packed word; the plain
     reads that follow take the pinned hot hit and must return exactly
     the pinned value. *)
  ignore (A.read_with rd ~f:(fun _ _ -> ()));
  for _ = 1 to 3 do
    match A.read_plain rd ~f:(fun buf len -> P.validate buf ~len) with
    | Ok s -> check "hot hit returns pinned value" 1 s
    | Error e -> Alcotest.failf "hot-hit plain read torn: %s" e
  done;
  (* A new write moves [current]: the next plain read leaves the hot
     path, validates against the new slot, and sees the new value
     without subscribing. *)
  A.write reg ~src:(stamped ~seq:2 ~len:n) ~len:n;
  (match A.read_plain rd ~f:(fun buf len -> P.validate buf ~len) with
  | Ok s -> check "validated path sees the new write" 2 s
  | Error e -> Alcotest.failf "validated plain read torn: %s" e);
  (* The classic path still works and resubscribes past it. *)
  ignore (A.read_with rd ~f:(fun _ _ -> ()))

(* --- write coalescing ------------------------------------------------ *)

let test_coalescing_property () =
  let n = 8 in
  let max_pending = 4 and max_staleness = 6 in
  let reg = A.create ~readers:1 ~capacity:n ~init:(stamped ~seq:0 ~len:n) in
  let rd = A.reader reg 0 in
  let published = ref [] and last_pub = ref 0 in
  let observe () =
    (* Single-threaded: at most one publish can have happened since
       the previous observation, so polling after every operation
       records the complete publish sequence. *)
    match A.read_plain rd ~f:(fun buf len -> P.validate buf ~len) with
    | Ok s -> if s <> !last_pub then (published := s :: !published; last_pub := s)
    | Error e -> Alcotest.failf "torn read while observing publishes: %s" e
  in
  let enq = ref 0 in
  let src = Array.make n 0 in
  for k = 1 to 25 do
    incr enq;
    P.stamp src ~seq:!enq ~len:n;
    A.write_coalesced reg ~max_pending ~max_staleness ~src ~len:n;
    observe ();
    if k mod 7 = 0 then begin
      (* A direct write must absorb (supersede) the staged batch, not
         lose it or publish stale staged data after fresher data. *)
      incr enq;
      P.stamp src ~seq:!enq ~len:n;
      A.write reg ~src ~len:n;
      observe ()
    end
  done;
  A.flush_coalesced reg;
  observe ();
  check "nothing left pending after flush" 0 (A.pending_writes reg);
  (match
     Checker.check_coalesced ~enqueued:!enq ~bound:max_staleness
       (List.rev !published)
   with
  | Ok publishes -> Alcotest.(check bool) "published at least once" true (publishes > 0)
  | Error v ->
    Alcotest.failf "coalescing contract violated: %a" Checker.pp_coalesce_violation v);
  Alcotest.(check bool) "batches formed" true (A.coalesced_batches reg > 0);
  Alcotest.(check bool) "absorbed writes counted" true (A.coalesced_absorbed reg > 0);
  Alcotest.(check bool)
    (Printf.sprintf "max batch %d within max_pending %d" (A.max_coalesced_batch reg)
       max_pending)
    true
    (A.max_coalesced_batch reg <= max_pending)

let test_coalescing_lone_flush_and_validation () =
  let n = 4 in
  let reg = A.create ~readers:1 ~capacity:n ~init:(stamped ~seq:0 ~len:n) in
  let rd = A.reader reg 0 in
  let src = stamped ~seq:1 ~len:n in
  A.write_coalesced reg ~max_pending:8 ~max_staleness:8 ~src ~len:n;
  check "staged, not yet published" 1 (A.pending_writes reg);
  (match A.read_plain rd ~f:(fun buf len -> P.validate buf ~len) with
  | Ok s -> check "reader still sees the pre-batch value" 0 s
  | Error e -> Alcotest.fail e);
  A.flush_coalesced reg;
  (match A.read_plain rd ~f:(fun buf len -> P.validate buf ~len) with
  | Ok s -> check "flush published the batch" 1 s
  | Error e -> Alcotest.fail e);
  A.flush_coalesced reg (* idempotent on empty staging *);
  check "still published value" 1 (A.read_with rd ~f:(fun buf _ -> P.decode_seq buf));
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () ->
      A.write_coalesced reg ~max_pending:0 ~max_staleness:4 ~src ~len:n);
  raises (fun () ->
      (* staleness bound must cover the batch size *)
      A.write_coalesced reg ~max_pending:4 ~max_staleness:3 ~src ~len:n);
  raises (fun () ->
      A.write_coalesced reg ~max_pending:2 ~max_staleness:4 ~src ~len:(n + 1))

let test_coalescing_dynamic_variant () =
  let n = 8 in
  let module Pd = P in
  let reg = Ad.create ~readers:1 ~capacity:n ~init:(stamped ~seq:0 ~len:n) in
  let rd = Ad.reader reg 0 in
  let src = Array.make n 0 in
  for k = 1 to 10 do
    Pd.stamp src ~seq:k ~len:n;
    Ad.write_coalesced reg ~max_pending:3 ~max_staleness:5 ~src ~len:n
  done;
  Ad.flush_coalesced reg;
  (match Ad.read_plain rd ~f:(fun buf len -> Pd.validate buf ~len) with
  | Ok s -> check "dynamic variant: final write published" 10 s
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "dynamic variant batches" true (Ad.coalesced_batches reg >= 3);
  Alcotest.(check bool) "dynamic max batch bounded" true
    (Ad.max_coalesced_batch reg <= 3)

(* --- vsched: the stamp-mismatch fallback and the negative control ---- *)

let seeds = 40
let sim_words = 8
let sim_writes = 12
let sim_reads = 20

(* Runs one adversarial schedule; [read] performs one plain-path read
   on the handle and returns the validation result of whatever the
   register returned.  Returns (fallbacks, plain_reads, convictions):
   a conviction is a {e returned} torn value — f itself may observe
   torn words mid-scan, that is the seqlock discipline, but a torn
   result must never escape a validated read.  [check_order:false] is
   for the unvalidated control: out-of-order results are its expected
   misbehaviour, and it is judged by torn results alone. *)
let run_plain_schedule ?(strategy = fun seed -> Strategy.random ~seed)
    ?(policy = Arc_core.Arc.Fixed) ?(check_order = true) ~seed ~read () =
  let init = Array.make sim_words 0 in
  P.stamp init ~seq:0 ~len:sim_words;
  let reg = As.create_with policy ~readers:2 ~capacity:sim_words ~init in
  As.set_telemetry reg (Some (As.make_telemetry ~readers:2 ()));
  let convictions = ref 0 in
  let writer () =
    let src = Array.make sim_words 0 in
    for k = 1 to sim_writes do
      P.stamp src ~seq:k ~len:sim_words;
      As.write reg ~src ~len:sim_words
    done
  in
  let reader i () =
    let rd = As.reader reg i in
    let last = ref (-1) in
    for _ = 1 to sim_reads do
      match read rd with
      | Ok s ->
        if check_order && s < !last then
          Alcotest.failf "seed %d: new-old inversion %d -> %d" seed !last s;
        last := s
      | Error _ -> incr convictions
    done
  in
  ignore (Sched.run ~strategy:(strategy seed) [| writer; reader 0; reader 1 |]);
  let tel = Option.get (As.telemetry reg) in
  (As.plain_fallbacks tel, As.plain_reads tel, !convictions)

let test_plain_fallback_under_schedules ?policy () =
  let total_fallbacks = ref 0 and total_plain = ref 0 in
  let strategies =
    [ (fun seed -> Strategy.random ~seed);
      (fun seed -> Strategy.random_burst ~seed ~max_burst:40);
      (fun seed ->
        Strategy.steal ~seed
          ~base:(Strategy.random ~seed:(seed + 1))
          ~probability:0.05 ~min_pause:30 ~max_pause:200) ]
  in
  List.iter
    (fun strategy ->
      for seed = 0 to seeds - 1 do
        let fallbacks, plain, convictions =
          run_plain_schedule ~strategy ?policy ~seed
            ~read:(fun rd ->
              As.read_plain rd ~f:(fun buf len -> Ps.validate buf ~len))
            ()
        in
        if convictions > 0 then
          Alcotest.failf "seed %d: validated plain read returned torn data" seed;
        total_fallbacks := !total_fallbacks + fallbacks;
        total_plain := !total_plain + plain
      done)
    strategies;
  (* The schedules must actually have driven both arms: validated
     plain successes and the writer-mid-publish stamp-mismatch
     fallback.  If either stays at zero the test lost its teeth. *)
  Alcotest.(check bool)
    (Printf.sprintf "stamp-mismatch fallbacks driven (%d)" !total_fallbacks)
    true (!total_fallbacks > 0);
  Alcotest.(check bool)
    (Printf.sprintf "validated plain reads driven (%d)" !total_plain)
    true (!total_plain > 0)

let test_unvalidated_plain_convicted ?policy () =
  (* Negative control: the same scan with validation removed must be
     convicted as torn by the stamped payload under some schedule —
     this is what proves the begin/end stamps are load-bearing. *)
  (* The tear needs a long writer stretch inside the reader's scan
     (finish the in-flight publish, then re-prepare the very slot
     being scanned): a stolen reader resting mid-scan while the writer
     churns is exactly that geometry — the validated read survives
     these same schedules above via its fallback. *)
  let burst seed =
    Strategy.steal ~seed
      ~base:(Strategy.random ~seed:(seed + 1))
      ~probability:0.05 ~min_pause:30 ~max_pause:200
  in
  let convicted = ref 0 in
  for seed = 0 to seeds - 1 do
    let _, _, convictions =
      run_plain_schedule ~strategy:burst ?policy ~check_order:false ~seed
        ~read:(fun rd ->
          As.Debug.unvalidated_plain rd ~f:(fun buf len -> Ps.validate buf ~len))
        ()
    in
    convicted := !convicted + convictions
  done;
  Alcotest.(check bool)
    (Printf.sprintf "unvalidated plain load convicted as torn (%d)" !convicted)
    true (!convicted > 0)

(* --- seqlock torn-size regression (ISSUE 10 satellite) --------------- *)

let test_seqlock_torn_size_is_a_retry () =
  (* Plant an out-of-range size word, as a torn or corrupted store
     would leave it; the reader must treat it as failed validation
     (retry until a legitimate write repairs the register), never
     clamp it into a bogus success.  The pre-fix code returned a
     clamped length immediately, so retries stayed 0. *)
  let capacity = 8 in
  let reg = Sq.create ~readers:1 ~capacity ~init:(Array.make 4 7) in
  Sq.Debug.force_size reg (Sq.Debug.capacity reg + 3);
  let rd = Sq.reader reg 0 in
  let got = ref (-1) in
  let reader () = got := Sq.read_with rd ~f:(fun _ len -> len) in
  let repair () = Sq.write reg ~src:(Array.make 2 9) ~len:2 in
  ignore (Sched.run ~strategy:(Strategy.random ~seed:11) [| reader; repair |]);
  Alcotest.(check bool) "torn size counted as retries" true (Sq.retries rd >= 1);
  check "read completed with the repaired length" 2 !got

let suite =
  [
    Alcotest.test_case "plain read returns values" `Quick test_plain_reads_values;
    Alcotest.test_case "plain hot hit after subscribe" `Quick
      test_plain_hot_hit_after_subscribe;
    Alcotest.test_case "coalescing property" `Quick test_coalescing_property;
    Alcotest.test_case "coalescing flush + validation" `Quick
      test_coalescing_lone_flush_and_validation;
    Alcotest.test_case "coalescing (dynamic variant)" `Quick
      test_coalescing_dynamic_variant;
    Alcotest.test_case "fallback under schedules" `Quick
      test_plain_fallback_under_schedules;
    Alcotest.test_case "unvalidated control convicted" `Quick
      test_unvalidated_plain_convicted;
    Alcotest.test_case "fallback under schedules (sized storage)" `Quick
      (test_plain_fallback_under_schedules ~policy:Arc_core.Arc.Sized);
    Alcotest.test_case "unvalidated control convicted (sized storage)" `Quick
      (test_unvalidated_plain_convicted ~policy:Arc_core.Arc.Sized);
    Alcotest.test_case "seqlock torn size retries" `Quick
      test_seqlock_torn_size_is_a_retry;
  ]
