(* perfbench: publish-to-visible benchmark of the ARC register, its shm
   substrate, the admission gate and the fabric.

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics with tracing off;
   with --trace 1 it spends half the time untraced and half traced and
   reports the per-layer ledger.  The last line of standard output is
   the JSON result.  --inject torn|backwards corrupts the final write,
   the negative control of the correctness checks. *)

open Perfbench

(* Set-up time varies by a third from one process to the next (heap
   and allocator state), so each of [setup_children] fresh processes
   sets up [setup_trials] times after as many unmeasured warm-up rounds,
   and the run reports the median of their medians. *)
let setup_children = 21
let setup_trials = 25

let setup_median (setup : unit -> unit) =
  for _ = 1 to setup_trials do
    setup ()
  done;
  Report.median
    (Array.init setup_trials (fun _ ->
         let t = Span.now () in
         setup ();
         float_of_int (Span.now () - t) /. 1e9))

(* Runs before any domain is spawned, so forking is safe. *)
let setup_in_child setup =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let s = Printf.sprintf "%.17g\n" (setup_median setup) in
      ignore (Unix.write_substring wr s 0 (String.length s));
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let v = In_channel.input_all ic in
      close_in ic;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "set-up child failed");
      float_of_string (String.trim v)

let usage () =
  prerr_endline
    "usage: main.exe --workload feed-4k|bulk-32k-shm|fabric-64 --seed N --seconds S \
     --trace 0|1 [--inject torn|backwards]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let inject = ref Common.No_inject in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ( "--inject",
        Arg.Symbol
          ( [ "torn"; "backwards" ],
            fun s -> inject := if s = "torn" then Common.Torn else Common.Backwards ),
        "" );
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "" with Arg.Bad _ | Arg.Help _ -> usage ());
  let w = match Workloads.find !workload with Some w -> w | None -> usage () in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" w.name !seed !seconds !trace;
  Printf.printf "host: nproc=%d ocaml=%s os=%s word=%d\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.os_type Sys.int_size;
  let times = Array.init setup_children (fun _ -> setup_in_child w.setup) in
  let setup_s = Report.median times in
  Printf.printf "setup: median %.6f s over %d processes x %d trials (min %.6f, max %.6f)\n"
    setup_s setup_children setup_trials
    (Array.fold_left min infinity times)
    (Array.fold_left max 0.0 times);
  let cfg = { Common.seconds = !seconds; seed = !seed; traced = false; inject = !inject } in
  let phases, metrics, units =
    if !trace = 0 then begin
      let ph = w.run cfg in
      let e = Report.e2e ph in
      Report.print_e2e "untraced" e;
      ([ ph ], Report.e2e_metrics ~setup_s e, Report.end_to_end)
    end
    else begin
      let half = { cfg with seconds = !seconds /. 2.0 } in
      let pu = w.run half in
      let pt = w.run { half with traced = true } in
      let eu = Report.e2e pu and et = Report.e2e pt in
      Report.print_e2e "untraced" eu;
      Report.print_e2e "traced" et;
      let ledger = Report.ledger ~untraced:eu ~traced:et pt in
      List.iter (fun (n, v) -> Printf.printf "ledger %s = %.6g\n" n v) ledger;
      Workloads.ensure_out ();
      let path =
        Filename.concat Workloads.out_dir
          (Printf.sprintf "spans-%s-seed%d.tsv" w.name !seed)
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc "domain\tid\tname\tstart_ns\tend_ns\tparent\tseq\n";
          List.iter (fun (d, sp) -> Span.dump oc ~domain:d ~origin:pt.t0 sp) pt.recorders);
      Printf.printf "spans: %s (%d host-stalled spans over %.0f ms left out of the means)\n"
        path
        (List.fold_left (fun a (_, sp) -> a + sp.Span.stalled) 0 pt.recorders)
        (float_of_int Span.stall_ns /. 1e6);
      ([ pu; pt ], ledger, Report.per_layer)
    end
  in
  List.iter (fun (ph : Common.phase) -> List.iter print_endline ph.info) phases;
  let attempted = List.fold_left (fun a (ph : Common.phase) -> a + ph.attempted) 0 phases in
  let failed =
    List.fold_left (fun a (ph : Common.phase) -> a + Common.total_fails ph.fails) 0 phases
  in
  List.iter
    (fun (ph : Common.phase) ->
      let f = ph.fails in
      Printf.printf
        "checks: torn=%d backwards=%d final_missed=%d backpressured=%d \
         snapshot_errors=%d cut_violations=%d\n"
        f.torn f.backwards f.final_missed f.backpressured f.snapshot_errors f.cut_violations)
    phases;
  Printf.printf "failed_share: %d/%d = %.3g\n" failed attempted
    (float_of_int failed /. float_of_int (max 1 attempted));
  print_endline
    (Report.json_line ~correct:(failed = 0) ~attempted ~failed metrics units)
