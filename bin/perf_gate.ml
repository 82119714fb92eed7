(* arc-perf-gate: per-op regression gate (ISSUE 5, extended by ISSUEs
   6, 8 and 10).

   Reads the telemetry record of a BENCH_arc.json produced by
   `bench/main.exe --throughput-json`, appends a dated entry to the
   perf trajectory (results/BENCH_trajectory.jsonl, one JSON object
   per line), and fails if any tracked per-op cost regressed more than
   --threshold percent against the last committed trajectory entry:

   - read_hit_ns_off — the telemetry-detached classic read hit;
   - read_plain_ns   — the R2' validated plain-load read (ISSUE 10),
                       additionally held under an absolute --ceiling
                       (default 9.8 ns, the pre-R2' classic-path cost
                       the fast path exists to beat);
   - snapshot_ns_per_shard and reader_join_p99_ns when their bench
     files / fields are present (ISSUEs 6 and 8);
   - copy_ns_per_word of the 4KB heap copy row in the BENCH_shm.json
     beside the --bench file (`bench/main.exe --shm-json`), when that
     file exists: held under the absolute 1.0 ns/word ceiling
     (Gate.copy_ceiling), so a payload copy that falls back onto the
     GC write barrier fails;
   - read_hit_ns@N / read_plain_ns@N for every core count N found in
     a BENCH_scaling.json (bench/main.exe --scaling-json --cores ...),
     so CI enforces scaling, not just single-core cost (ISSUE 10).

     dune exec bin/perf_gate.exe
     dune exec bin/perf_gate.exe -- --bench /tmp/BENCH_arc.json --threshold 10

   Exit status 0 = within budget (entry appended), 1 = regression or
   ceiling violation, 2 = malformed inputs, 3 = nothing compared (the
   appended entry seeds the baseline — deliberately non-green so an
   empty or missing trajectory can never pass silently in CI; commit
   the seeded trajectory to turn the gate on).

   The decision logic lives in lib/gate (Arc_gate.Gate) so the
   empty-trajectory behaviour is covered by the tier-1 suite; this
   file is only IO and exit codes. *)

open Cmdliner
module Gate = Arc_gate.Gate

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let read_opt path = if Sys.file_exists path then Some (read_file path) else None

let last_nonempty_line s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> function
  | [] -> None
  | lines -> Some (List.nth lines (List.length lines - 1))

let iso_date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let run bench fabric_bench scaling_bench trajectory threshold ceiling label =
  let bench_s =
    try read_file bench
    with Sys_error msg ->
      Printf.eprintf "perf-gate: cannot read %s: %s\n" bench msg;
      exit 2
  in
  let prior = Option.bind (read_opt trajectory) last_nonempty_line in
  let shm_bench = Filename.concat (Filename.dirname bench) "BENCH_shm.json" in
  let result =
    Gate.evaluate ~bench:bench_s ?fabric:(read_opt fabric_bench)
      ?scaling:(read_opt scaling_bench) ?shm:(read_opt shm_bench) ?prior
      ~threshold ~ceiling ~label
      ~date:(iso_date ()) ()
  in
  match result with
  | Error msg ->
    Printf.eprintf "perf-gate: %s\n" msg;
    exit 2
  | Ok report ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 trajectory in
    output_string oc report.Gate.entry;
    output_char oc '\n';
    close_out oc;
    Printf.printf "perf-gate: appended to %s\n  %s\n" trajectory report.Gate.entry;
    List.iter
      (fun v -> Format.printf "perf-gate: %a@." Gate.pp_verdict v)
      report.Gate.verdicts;
    if report.Gate.failures > 0 then exit 1;
    if report.Gate.seeded then begin
      Printf.printf
        "perf-gate: SEEDED baseline \"%s\" — no prior trajectory entry to \
         compare against; commit %s to arm the gate (exit 3, not green)\n"
        label trajectory;
      exit 3
    end

let cmd =
  let bench =
    Arg.(
      value
      & opt string "results/BENCH_arc.json"
      & info [ "bench" ] ~docv:"PATH"
          ~doc:"BENCH_arc.json produced by bench/main.exe --throughput-json.")
  in
  let fabric_bench =
    Arg.(
      value
      & opt string "results/BENCH_fabric.json"
      & info [ "fabric-bench" ] ~docv:"PATH"
          ~doc:
            "BENCH_fabric.json produced by bench/main.exe --fabric-json; when \
             present its snapshot_ns_per_shard is tracked and gated too.")
  in
  let scaling_bench =
    Arg.(
      value
      & opt string "results/BENCH_scaling.json"
      & info [ "scaling-bench" ] ~docv:"PATH"
          ~doc:
            "BENCH_scaling.json produced by bench/main.exe --scaling-json; \
             when present every read_hit_ns@N / read_plain_ns@N key it \
             carries is tracked and gated per core count.")
  in
  let trajectory =
    Arg.(
      value
      & opt string "results/BENCH_trajectory.jsonl"
      & info [ "trajectory" ] ~docv:"PATH"
          ~doc:
            "Perf trajectory file (one JSON object per line); the gate \
             compares against its last line and appends the new entry.")
  in
  let threshold =
    Arg.(
      value & opt float 20.
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"Maximum allowed read-cost regression, in percent.")
  in
  let ceiling =
    Arg.(
      value & opt float 9.8
      & info [ "ceiling" ] ~docv:"NS"
          ~doc:
            "Absolute bound the R2' plain-load read (read_plain_ns) must stay \
             below — the pre-R2' classic-path cost it exists to beat.")
  in
  let label =
    Arg.(
      value & opt string "local"
      & info [ "label" ] ~docv:"LABEL"
          ~doc:"Free-form provenance tag for the entry (e.g. a commit sha).")
  in
  Cmd.v
    (Cmd.info "arc-perf-gate"
       ~doc:
         "Append the current per-op read costs (classic hit, R2' plain load, \
          per-core-count scaling points, and the fabric/admission metrics \
          when measured) to the perf trajectory and fail on regression \
          beyond the threshold; a run that compared nothing exits 3.")
    Term.(
      const run $ bench $ fabric_bench $ scaling_bench $ trajectory $ threshold
      $ ceiling $ label)

let () = exit (Cmd.eval cmd)
