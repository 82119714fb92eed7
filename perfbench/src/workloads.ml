(* The three workloads and the substrates they run on: the untraced
   register for the end-to-end metrics, the same register over
   {!Tmem} for the traced run. *)

open Common

module Heap = Arc_core.Arc.Make (Arc_mem.Real_mem)
module Heap_traced = Arc_core.Arc.Make (Tmem.Make (Arc_mem.Real_mem))
module Feed = Reg_wl.Make (Heap)
module Feed_traced = Reg_wl.Make (Heap_traced)
module Fab = Fabric_wl.Make (Heap)
module Fab_traced = Fabric_wl.Make (Heap_traced)

let feed_shape = { Reg_wl.words = 512; rate = 50_000; reader = Hold }
let bulk_shape = { Reg_wl.words = 4096; rate = 0; reader = Processing 20_000 }

(* Three slots of 4096 words plus trailers and cells fit in 2^15. *)
let bulk_map_words = 1 lsl 15

(* Run outputs (the shm mapping, span dumps), relative to the working
   directory. *)
let out_dir = ".perfbench-out"

let ensure_out () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let with_mapping f =
  ensure_out ();
  let path = Filename.concat out_dir (Printf.sprintf "bulk-%d.map" (Unix.getpid ())) in
  let m = Arc_shm.Shm_mem.create ~path ~words:bulk_map_words in
  Fun.protect
    ~finally:(fun () ->
      Arc_shm.Shm_mem.close m;
      Sys.remove path)
    (fun () ->
      Arc_shm.Shm_mem.set_geometry m ~readers:1 ~capacity:bulk_shape.words;
      f m)

let bulk_setup () =
  with_mapping (fun m ->
      let module B = (val Arc_shm.Shm_mem.mem m) in
      let module W = Reg_wl.Make (Arc_core.Arc.Make (B)) in
      W.probe bulk_shape (W.build bulk_shape ~traced:false ~base:0))

let bulk_run cfg =
  with_mapping (fun m ->
      let module B = (val Arc_shm.Shm_mem.mem m) in
      if cfg.traced then
        let module W = Reg_wl.Make (Arc_core.Arc.Make (Tmem.Make (B))) in
        W.run bulk_shape cfg
      else
        let module W = Reg_wl.Make (Arc_core.Arc.Make (B)) in
        W.run bulk_shape cfg)

type t = {
  name : string;
  setup : unit -> unit;
      (** build the workload's shared state and complete one write and
          one read through it *)
  run : cfg -> phase;
}

let all =
  [
    {
      name = "feed-4k";
      setup = (fun () -> Feed.probe feed_shape (Feed.build feed_shape ~traced:false ~base:0));
      run =
        (fun cfg ->
          if cfg.traced then Feed_traced.run feed_shape cfg else Feed.run feed_shape cfg);
    };
    { name = "bulk-32k-shm"; setup = bulk_setup; run = bulk_run };
    {
      name = "fabric-64";
      setup = (fun () -> Fab.probe (Fab.build ~traced:false ~base:0));
      run = (fun cfg -> if cfg.traced then Fab_traced.run cfg else Fab.run cfg);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
