(** Ablations: E5 (the §3.4 free-slot hint — measured slot probes per
    write with parked readers plus hold-model throughput of the two
    variants) and E8 (the dynamic-allocation variant's memory
    footprint under different snapshot-size distributions, §3.3). *)

module Table = Arc_report.Table
module Arc_direct = Arc_core.Arc.Make (Arc_mem.Real_mem)
module P_direct = Arc_workload.Payload.Make (Arc_mem.Real_mem)

let probes_per_write ~policy ~readers ~writes =
  let capacity = 16 in
  let init = Array.make capacity 0 in
  P_direct.stamp init ~seq:0 ~len:capacity;
  let reg = Arc_direct.create_with policy ~readers ~capacity ~init in
  let handles = Array.init readers (Arc_direct.reader reg) in
  let src = Array.make capacity 0 in
  (* Park all but one reader on distinct old snapshots. *)
  for seq = 1 to readers do
    P_direct.stamp src ~seq ~len:capacity;
    Arc_direct.write reg ~src ~len:capacity;
    ignore (Arc_direct.read_with handles.(seq - 1) ~f:(fun _ _ -> ()))
  done;
  let before = Arc_direct.write_probes reg in
  for seq = readers + 1 to readers + writes do
    ignore (Arc_direct.read_with handles.(0) ~f:(fun _ _ -> ()));
    P_direct.stamp src ~seq ~len:capacity;
    Arc_direct.write reg ~src ~len:capacity
  done;
  float_of_int (Arc_direct.write_probes reg - before) /. float_of_int writes

let ablation_hint (opts : Grid.opts) =
  let table =
    Table.create
      ~title:
        "E5 — §3.4 free-slot hint ablation: write-side slot probes per write \
         (parked readers) and hold-model throughput"
      ~columns:[ "variant"; "readers"; "probes/write"; "hold ops/s (3 readers)" ]
  in
  let readerss = if opts.Grid.quick then [ 8 ] else [ 8; 32; 128 ] in
  let throughput name =
    let entry = Registry.find name in
    let cfg =
      {
        Config.default_real with
        Config.duration_s = opts.Grid.duration_s;
        seed = opts.Grid.seed;
      }
    in
    Grid.mean_of ~reps:opts.Grid.reps (fun () ->
        (entry.Registry.run_real cfg).Config.total_throughput)
  in
  let tp_hint = throughput "arc" and tp_nohint = throughput "arc-nohint" in
  List.iter
    (fun readers ->
      List.iter
        (fun (label, policy, tp) ->
          Table.add_row table
            [
              label;
              string_of_int readers;
              Printf.sprintf "%.2f" (probes_per_write ~policy ~readers ~writes:500);
              Printf.sprintf "%.3g" tp;
            ])
        [
          ("arc (hint)", Arc_core.Arc.Fixed, tp_hint);
          ("arc-nohint", Arc_core.Arc.Fixed_no_hint, tp_nohint);
        ])
    readerss;
  table

(* E8: the dynamic-allocation variant's memory footprint under
   different snapshot-size distributions. *)
module Arc_dyn = Arc_core.Arc_dynamic.Make (Arc_mem.Real_mem)

let ablation_dynamic (_opts : Grid.opts) =
  let table =
    Table.create
      ~title:
        "E8 — dynamic buffer allocation (§3.3 note): memory footprint vs static \
         ARC (3 readers, capacity 16384 words, 2000 writes)"
      ~columns:
        [ "size distribution"; "static words"; "dynamic words"; "reallocs/write" ]
  in
  let readers = 3 in
  let capacity = 16384 in
  let static_words = (readers + 2) * capacity in
  let run_distribution name sample =
    let rng = Arc_util.Splitmix.of_int 11 in
    let reg = Arc_dyn.create ~readers ~capacity ~init:[| 0 |] in
    let handles = Array.init readers (Arc_dyn.reader reg) in
    let src = Array.make capacity 0 in
    let writes = 2000 in
    for _ = 1 to writes do
      let len = sample rng in
      P_direct.stamp src ~seq:1 ~len;
      Arc_dyn.write reg ~src ~len;
      (* a reader occasionally follows, cycling the slots *)
      if Arc_util.Splitmix.bernoulli rng 0.5 then
        ignore
          (Arc_dyn.read_with handles.(Arc_util.Splitmix.int rng readers)
             ~f:(fun _ _ -> ()))
    done;
    Table.add_row table
      [
        name;
        string_of_int static_words;
        string_of_int (Arc_dyn.footprint_words reg);
        Printf.sprintf "%.3f"
          (float_of_int (Arc_dyn.reallocations reg) /. float_of_int writes);
      ]
  in
  run_distribution "constant 256w" (fun _ -> 256);
  run_distribution "uniform 1..512w" (fun rng -> 1 + Arc_util.Splitmix.int rng 512);
  run_distribution "bimodal 64w/16384w" (fun rng ->
      if Arc_util.Splitmix.bernoulli rng 0.95 then 64 else capacity);
  table
