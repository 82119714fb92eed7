(* Real-parallelism stress: domains (and systhreads) hammer each
   register in Verify mode; every snapshot is validated and the
   recorded history must pass the atomicity checker.  This is the
   hardware-memory-model counterpart of the simulated exploration. *)

module Config = Arc_harness.Config
module Registry = Arc_harness.Registry
module Checker = Arc_trace.Checker

let verify_cfg =
  {
    Config.default_real with
    Config.readers = 3;
    size_words = 64;
    duration_s = 0.15;
    workload = Config.Verify;
    record = 200_000;
    seed = 99;
  }

let assert_clean ~who (result : Config.result) =
  if result.Config.torn > 0 then
    Alcotest.failf "%s: %d torn snapshots on real domains" who result.Config.torn;
  match result.Config.history with
  | None -> Alcotest.failf "%s: no history" who
  | Some h ->
    if result.Config.dropped_events > 0 then
      (* With drops the history is incomplete: torn-freedom was still
         checked op-by-op, but skip the history checker. *)
      ()
    else begin
      match Checker.check h with
      | Ok report ->
        if report.Checker.reads_checked = 0 then
          Alcotest.failf "%s: no reads recorded" who
      | Error v -> Alcotest.failf "%s: %a" who Checker.pp_violation v
    end

let clamp_readers (entry : Registry.entry) (cfg : Config.real) =
  match
    entry.Registry.caps.Arc_core.Register_intf.max_readers
      ~capacity_words:cfg.Config.size_words
  with
  | Some bound when cfg.Config.readers > bound -> { cfg with Config.readers = bound }
  | _ -> cfg

let domain_case (entry : Registry.entry) =
  Alcotest.test_case
    (Printf.sprintf "%s: atomic on parallel domains" entry.Registry.name)
    `Quick
    (fun () ->
      let cfg = clamp_readers entry verify_cfg in
      assert_clean ~who:entry.Registry.name (entry.Registry.run_real cfg))

let thread_case (entry : Registry.entry) =
  Alcotest.test_case
    (Printf.sprintf "%s: atomic on time-shared threads" entry.Registry.name)
    `Quick
    (fun () ->
      let cfg =
        clamp_readers entry
          { verify_cfg with Config.parallelism = `Threads; readers = 8;
            duration_s = 0.1 }
      in
      assert_clean ~who:entry.Registry.name (entry.Registry.run_real cfg))

let test_steal_mode_still_atomic () =
  (* CPU-steal injection must degrade performance, never correctness. *)
  let entry = Registry.find "arc" in
  let cfg =
    {
      verify_cfg with
      Config.steal = Some { Config.probability = 0.01; pause_us = 200. };
    }
  in
  assert_clean ~who:"arc+steal" (entry.Registry.run_real cfg)

let test_hold_throughput_sane () =
  (* Hold-model runs report coherent accounting. *)
  List.iter
    (fun name ->
      let entry = Registry.find name in
      let cfg =
        { Config.default_real with Config.duration_s = 0.05; size_words = 16 }
      in
      let r = entry.Registry.run_real cfg in
      if r.Config.reads <= 0 then Alcotest.failf "%s: no reads" name;
      if r.Config.writes <= 0 then Alcotest.failf "%s: no writes" name;
      if r.Config.duration <= 0. then Alcotest.failf "%s: no elapsed time" name;
      let recomputed =
        float_of_int (r.Config.reads + r.Config.writes) /. r.Config.duration
      in
      if Float.abs (recomputed -. r.Config.total_throughput) > 1e-6 then
        Alcotest.failf "%s: inconsistent throughput" name)
    [ "arc"; "rf"; "peterson"; "rwlock"; "seqlock" ]

module Arc_real = Arc_core.Arc.Make (Arc_mem.Real_mem)
module P_real = Arc_workload.Payload.Make (Arc_mem.Real_mem)

let test_plain_reads_real_writer () =
  (* R' plain reads against a real writer Domain whose slot fill is a
     memmove: the scan may read a slot mid-copy, and only the seq
     bracket stands between a torn view and the caller.  [f] runs on
     every view, torn or not; what must never happen is a torn value
     being returned.  The hardware counterpart of the vsched
     [unvalidated_plain] control. *)
  let words = 512 in
  let init = Array.make words 0 in
  P_real.stamp init ~seq:0 ~len:words;
  let reg = Arc_real.create ~readers:1 ~capacity:words ~init in
  let tel = Arc_real.make_telemetry ~readers:1 () in
  Arc_real.set_telemetry reg (Some tel);
  let rd = Arc_real.reader reg 0 in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let src = Array.make words 0 in
        let seq = ref 0 in
        while not (Atomic.get stop) do
          incr seq;
          P_real.stamp src ~seq:!seq ~len:words;
          Arc_real.write reg ~src ~len:words
        done;
        !seq)
  in
  let f buf len = P_real.validate buf ~len in
  let reads = ref 0 and torn = ref 0 and backwards = ref 0 and newest = ref 0 in
  let deadline = Unix.gettimeofday () +. 0.2 in
  while Unix.gettimeofday () < deadline do
    let r =
      if !reads land 1 = 0 then Arc_real.read_plain rd ~f else Arc_real.read_with rd ~f
    in
    incr reads;
    match r with
    | Error _ -> incr torn
    | Ok seq ->
        if seq < !newest then incr backwards;
        newest := max !newest seq
  done;
  Atomic.set stop true;
  let writes = Domain.join writer in
  Printf.printf "reads=%d writes=%d newest=%d plain_reads=%d plain_fallbacks=%d\n%!"
    !reads writes !newest (Arc_real.plain_reads tel) (Arc_real.plain_fallbacks tel);
  Alcotest.(check int) "no torn value returned" 0 !torn;
  Alcotest.(check int) "never older than a value already seen" 0 !backwards;
  Alcotest.(check bool) "the reader observed a new seq" true (!newest > 0)

let suite =
  List.map domain_case Registry.all
  @ List.map thread_case [ Registry.find "arc"; Registry.find "peterson" ]
  @ [
      Alcotest.test_case "arc atomic under steal injection" `Quick
        test_steal_mode_still_atomic;
      Alcotest.test_case "hold throughput accounting" `Quick
        test_hold_throughput_sane;
      Alcotest.test_case "R' plain reads under a real writer Domain" `Quick
        test_plain_reads_real_writer;
    ]
