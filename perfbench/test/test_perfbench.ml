(* Checks of the benchmark itself: its correctness checks are
   load-bearing (a torn payload and a backwards seq are caught, on every
   workload), a clean run fails nothing, and the traced run's RMW counts
   match the paper's accounting exactly. *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let run (w : Workloads.t) ~traced inject =
  w.run { Common.seconds = 0.3; seed = 7; traced; inject }

let unit_checks () =
  let o = Common.obs () in
  Common.note o 5 1;
  check "observer: a forward value fails nothing" (Common.total_fails o.f = 0);
  Common.note o (Common.torn_code 6) 2;
  check "observer: a torn value is a failure" (o.f.torn = 1);
  Common.note o 3 3;
  check "observer: a backwards seq is a failure" (o.f.backwards = 1);
  (* Writes 1..3 to shards 0, 1, 0: {3; 2} is a cut; {3; 0} saw write
     3 but not write 2, so it is not. *)
  let log = Common.wlog () in
  List.iter
    (fun s ->
      List.iter (fun v -> Vec.push v 0) [ log.due; log.inv; log.ret ];
      Vec.push log.shard s)
    [ 0; 1; 0 ];
  let sample a =
    let v = Vec.create Fabric_wl.shards in
    Array.iteri (fun s x -> if s < Fabric_wl.shards then Vec.push v x) a;
    for _ = Array.length a to Fabric_wl.shards - 1 do
      Vec.push v 0
    done;
    v
  in
  check "cut: a consistent snapshot passes" (Fabric_wl.cut_violations log (sample [| 3; 2 |]) = 0);
  check "cut: a torn snapshot is caught" (Fabric_wl.cut_violations log (sample [| 3; 0 |]) = 1)

let workload_checks (w : Workloads.t) =
  let clean = run w ~traced:false Common.No_inject in
  check (w.name ^ ": clean run fails nothing") (Common.total_fails clean.fails = 0);
  let torn = run w ~traced:false Common.Torn in
  check (w.name ^ ": injected torn payload is caught") (torn.fails.torn > 0);
  let back = run w ~traced:false Common.Backwards in
  check (w.name ^ ": injected backwards seq is caught") (back.fails.backwards > 0);
  let traced = run w ~traced:true Common.No_inject in
  let get k = List.assoc k traced.ledger in
  check (w.name ^ ": traced run fails nothing") (Common.total_fails traced.fails = 0);
  check (w.name ^ ": RMW counts match the paper's accounting") (get "mem.rmw_mismatches" = 0.0);
  if w.name <> "fabric-64" then
    check (w.name ^ ": one RMW per write") (get "mem.rmw_per_write" = 1.0)

let () =
  unit_checks ();
  List.iter workload_checks Workloads.all;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
