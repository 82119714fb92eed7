module Real = Arc_mem.Real_mem
module Counting_real = Arc_mem.Counting.Make (Arc_mem.Real_mem)
module Sim = Arc_vsched.Sim_mem
module RI = Arc_core.Register_intf

type entry = {
  name : string;
  caps : RI.caps;
  run_real : Config.real -> Config.result;
  run_sim : ?strategy:Arc_vsched.Strategy.t -> Config.sim -> Config.result;
  run_sim_telemetry :
    (?strategy:Arc_vsched.Strategy.t ->
    Config.sim ->
    Config.result * Arc_obs.Obs.metric list)
    option;
  run_fabric_sim :
    (?strategy:Arc_vsched.Strategy.t -> Config.fabric_sim -> Fabric_runner.result)
    option;
  count :
    readers:int ->
    size_words:int ->
    rounds:int ->
    reads_per_write:int ->
    Count_runner.per_op;
}

module Entry_of (A : Arc_core.Register_intf.ALGORITHM) = struct
  module R_real = A.Make (Real)
  module R_cnt = A.Make (Counting_real)
  module R_sim = A.Make (Sim)
  module Run_real = Real_runner.Make (R_real)
  module Run_sim = Sim_runner.Make (R_sim)
  module Count = Count_runner.Make (Counting_real) (R_cnt)

  let entry =
    {
      name = A.algorithm;
      caps = R_real.caps;
      run_real = Run_real.run;
      run_sim = (fun ?strategy cfg -> Run_sim.run ?strategy cfg);
      run_sim_telemetry = None;
      run_fabric_sim = None;
      count = Count.measure;
    }
end

(* Telemetry-capable sim runner for the ARC family.  [Entry_of] sees
   registers only through {!Arc_core.Register_intf.S}, which has no
   observability surface; this one takes the full {!Arc_core.Arc.S}
   signature, attaches a telemetry handle before the fibers start
   (clocked by the virtual scheduler, so trace timestamps are
   simulated time), and returns the run's metric snapshot alongside
   the result. *)
module Tel_of (R : Arc_core.Arc.S) = struct
  module Run = Sim_runner.Make (R)

  let run ?strategy (cfg : Config.sim) =
    let attached = ref None in
    let prepare reg =
      R.set_telemetry reg
        (Some
           (R.make_telemetry ~clock:Arc_vsched.Sched.now
              ~readers:cfg.Config.sim_readers ()));
      attached := Some reg
    in
    let r = Run.run ~prepare ?strategy cfg in
    let metrics =
      match !attached with Some reg -> R.metrics reg | None -> []
    in
    (r, metrics)
end

module Arc_sim = Arc_core.Arc.Make (Sim)
module Arc_nohint_sim = Arc_core.Arc_nohint.Make (Sim)
module Arc_dynamic_sim = Arc_core.Arc_dynamic.Make (Sim)
module Arc_tel = Tel_of (Arc_sim)
module Arc_dynamic_tel = Tel_of (Arc_dynamic_sim)

(* Fabric runners for the stamped family (ISSUE 6).  Like telemetry,
   the versioned-read surface ([read_stamped]/[probe_stamp]) is wider
   than {!Arc_core.Register_intf.S}, so [Entry_of] cannot build these;
   they are instantiated per stamped algorithm and advertised through
   the [snapshot_read] capability bit — consumers discover them with
   {!fabric_capable}, never by name. *)
module Arc_fab = Fabric_runner.Make (Arc_sim)
module Arc_nohint_fab = Fabric_runner.Make (Arc_nohint_sim)
module Arc_dynamic_fab = Fabric_runner.Make (Arc_dynamic_sim)

module Arc_entry = Entry_of (Arc_core.Arc)
module Arc_nohint_entry = Entry_of (Arc_core.Arc_nohint)
module Arc_dynamic_entry = Entry_of (Arc_core.Arc_dynamic)
module Rf_entry = Entry_of (Arc_baselines.Rf)
module Peterson_entry = Entry_of (Arc_baselines.Peterson)
module Rwlock_entry = Entry_of (Arc_baselines.Rwlock_reg)
module Seqlock_entry = Entry_of (Arc_baselines.Seqlock_reg)
module Lamport_entry = Entry_of (Arc_baselines.Lamport_reg)
module Simpson_entry = Entry_of (Arc_baselines.Simpson_reg)

let arc_entry =
  {
    Arc_entry.entry with
    run_sim_telemetry = Some Arc_tel.run;
    run_fabric_sim = Some (fun ?strategy cfg -> Arc_fab.run ?strategy cfg);
  }

let arc_nohint_entry =
  {
    Arc_nohint_entry.entry with
    run_fabric_sim = Some (fun ?strategy cfg -> Arc_nohint_fab.run ?strategy cfg);
  }

let arc_dynamic_entry =
  {
    Arc_dynamic_entry.entry with
    run_sim_telemetry = Some Arc_dynamic_tel.run;
    run_fabric_sim = Some (fun ?strategy cfg -> Arc_dynamic_fab.run ?strategy cfg);
  }

let all =
  [
    arc_entry;
    arc_nohint_entry;
    arc_dynamic_entry;
    Rf_entry.entry;
    Peterson_entry.entry;
    Rwlock_entry.entry;
    Seqlock_entry.entry;
    Lamport_entry.entry;
    Simpson_entry.entry;
  ]

let paper_set =
  [ arc_entry; Rf_entry.entry; Peterson_entry.entry; Rwlock_entry.entry ]

let find name = List.find (fun e -> e.name = name) all
let names = List.map (fun e -> e.name) all

let supports entry ~readers ~capacity_words =
  RI.supports_readers entry.caps ~readers ~capacity_words

let supporting ~readers ~capacity_words entries =
  List.filter (fun e -> supports e ~readers ~capacity_words) entries

let fabric_capable entries =
  List.filter (fun e -> e.caps.RI.snapshot_read) entries

(* The invariant behind capability discovery: every entry advertising
   [snapshot_read] carries a fabric runner.  Checked eagerly so a new
   stamped algorithm registered without its fabric instantiation fails
   at module load, not at first use. *)
let () =
  List.iter
    (fun e ->
      if e.caps.RI.snapshot_read && Option.is_none e.run_fabric_sim then
        invalid_arg
          (Printf.sprintf
             "Registry: %s advertises snapshot_read but has no fabric runner"
             e.name))
    all
