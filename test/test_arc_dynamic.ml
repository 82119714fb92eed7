(* The dynamic-allocation ARC variant (§3.3 implementation note), and
   the storage policies' shared core. *)

module Ad = Arc_core.Arc_dynamic.Make (Arc_mem.Real_mem)
module P = Arc_workload.Payload.Make (Arc_mem.Real_mem)

let check = Alcotest.(check int)

let stamped ~seq ~len =
  let a = Array.make len 0 in
  P.stamp a ~seq ~len;
  a

let read_seq rd =
  Ad.read_with rd ~f:(fun buffer len ->
      match P.validate buffer ~len with
      | Ok seq -> seq
      | Error msg -> Alcotest.fail msg)

let test_footprint_tracks_content () =
  (* Static ARC would allocate (N+2) × capacity up front; the dynamic
     variant starts with just the initial value. *)
  let reg = Ad.create ~readers:4 ~capacity:100_000 ~init:(stamped ~seq:0 ~len:10) in
  check "initial footprint = init only" 10 (Ad.footprint_words reg);
  Ad.write reg ~src:(stamped ~seq:1 ~len:50) ~len:50;
  check "one 50-word buffer added" 60 (Ad.footprint_words reg)

let test_small_snapshots_stay_small () =
  let readers = 3 in
  let reg = Ad.create ~readers ~capacity:100_000 ~init:(stamped ~seq:0 ~len:8) in
  for seq = 1 to 100 do
    Ad.write reg ~src:(stamped ~seq ~len:8) ~len:8
  done;
  (* N+2 buffers of ≤ 8 words each, never 100k. *)
  Alcotest.(check bool)
    (Printf.sprintf "footprint %d ≤ (N+2)×8" (Ad.footprint_words reg))
    true
    (Ad.footprint_words reg <= (readers + 2) * 8)

let test_realloc_policy () =
  let reg = Ad.create ~readers:1 ~capacity:4096 ~init:(stamped ~seq:0 ~len:64) in
  let base = Ad.reallocations reg in
  (* Stable size across many writes: at most one realloc per slot as
     the 0-word empties grow, then none. *)
  for seq = 1 to 50 do
    Ad.write reg ~src:(stamped ~seq ~len:64) ~len:64
  done;
  let grown = Ad.reallocations reg - base in
  Alcotest.(check bool)
    (Printf.sprintf "steady size reallocates once per slot (%d ≤ 3)" grown)
    true (grown <= 3);
  (* Small oscillation within the hysteresis band: no reallocation. *)
  let before = Ad.reallocations reg in
  for seq = 51 to 80 do
    Ad.write reg ~src:(stamped ~seq ~len:(if seq mod 2 = 0 then 64 else 40)) ~len:(if seq mod 2 = 0 then 64 else 40)
  done;
  check "no realloc inside the band" before (Ad.reallocations reg);
  (* Big shrink triggers it. *)
  Ad.write reg ~src:(stamped ~seq:81 ~len:4) ~len:4;
  Alcotest.(check bool) "shrink reallocates" true (Ad.reallocations reg > before)

let test_views_survive_recycling () =
  (* A parked reader's view must stay intact even when its slot's
     buffer has since been replaced by a smaller one (the GC keeps the
     old array alive — the OCaml counterpart of the paper's
     reclamation discussion). *)
  let reg = Ad.create ~readers:2 ~capacity:1024 ~init:(stamped ~seq:0 ~len:8) in
  let rd = Ad.reader reg 0 in
  let other = Ad.reader reg 1 in
  Ad.write reg ~src:(stamped ~seq:1 ~len:512) ~len:512;
  let view, len = Ad.read_view rd in
  (* Force the slots through recycling with very different sizes. *)
  for seq = 2 to 60 do
    let size = if seq mod 2 = 0 then 4 else 900 in
    ignore (Ad.read_with other ~f:(fun _ _ -> ()));
    Ad.write reg ~src:(stamped ~seq ~len:size) ~len:size
  done;
  (match P.validate view ~len with
  | Ok seq -> check "old view intact" 1 seq
  | Error msg -> Alcotest.failf "view corrupted: %s" msg);
  check "len preserved" 512 len;
  Alcotest.(check bool) "next read is fresh" true (read_seq rd = 60)

module A = Arc_core.Arc.Make (Arc_mem.Real_mem)

let test_sequential_equivalence_with_static () =
  (* Same op string, same observable results as static ARC. *)
  let rng = Arc_util.Splitmix.of_int 31 in
  let cap = 64 in
  let d = Ad.create ~readers:2 ~capacity:cap ~init:(stamped ~seq:0 ~len:8) in
  let s = A.create ~readers:2 ~capacity:cap ~init:(stamped ~seq:0 ~len:8) in
  let drd = Array.init 2 (Ad.reader d) and srd = Array.init 2 (A.reader s) in
  let seq = ref 0 in
  for _ = 1 to 1000 do
    if Arc_util.Splitmix.bool rng then begin
      incr seq;
      let len = 1 + Arc_util.Splitmix.int rng cap in
      let src = stamped ~seq:!seq ~len in
      Ad.write d ~src ~len;
      A.write s ~src ~len
    end
    else begin
      let i = Arc_util.Splitmix.int rng 2 in
      let a = Ad.read_into drd.(i) ~dst:(Array.make cap 0) in
      let b = A.read_into srd.(i) ~dst:(Array.make cap 0) in
      check "same snapshot length" b a
    end
  done

(* {1 One core under every storage policy} *)

(* Real memory with two test hooks: it counts [alloc] calls, and it can
   kill the writer right after its W2 exchange — the publish/freeze
   window that the crash-recovery journal covers. *)
module Hooked = struct
  include Arc_mem.Real_mem

  exception Crash

  let allocs = ref 0
  let crash_after_exchange = ref false

  let alloc words =
    Stdlib.incr allocs;
    Arc_mem.Real_mem.alloc words

  let exchange a v =
    let old = Arc_mem.Real_mem.exchange a v in
    if !crash_after_exchange then begin
      crash_after_exchange := false;
      raise Crash
    end;
    old
end

module HA = Arc_core.Arc.Make (Hooked)
module HN = Arc_core.Arc_nohint.Make (Hooked)
module HD = Arc_core.Arc_dynamic.Make (Hooked)

let metric_names ms =
  List.sort_uniq compare (List.map (fun (m : Arc_obs.Obs.metric) -> m.mname) ms)

let metric name ms =
  match List.find_opt (fun (m : Arc_obs.Obs.metric) -> m.mname = name) ms with
  | Some m -> int_of_float m.value
  | None -> Alcotest.failf "metric %s not exported" name

let test_telemetry_parity () =
  let readers = 2 and capacity = 16 in
  let init = stamped ~seq:0 ~len:8 in
  let d = HD.create ~readers ~capacity ~init in
  let s = HA.create ~readers ~capacity ~init in
  HD.set_telemetry d (Some (HD.make_telemetry ~readers ()));
  HA.set_telemetry s (Some (HA.make_telemetry ~readers ()));
  for seq = 1 to 5 do
    HD.write d ~src:(stamped ~seq ~len:8) ~len:8;
    HA.write s ~src:(stamped ~seq ~len:8) ~len:8
  done;
  Alcotest.(check bool) "sized storage counts W1 probes" true
    (HD.write_probes d > 0);
  (* Crash the writer between W2 and W3; the journal names the slot it
     superseded, and the successor's recovery quarantines it. *)
  let superseded = Arc_util.Packed.index (HD.Debug.current d) in
  Hooked.crash_after_exchange := true;
  (match HD.write d ~src:(stamped ~seq:6 ~len:8) ~len:8 with
  | () -> Alcotest.fail "the hooked exchange must crash the write"
  | exception Hooked.Crash -> ());
  check "journalled slot quarantined" 1 (HD.recover_crash d);
  let published = Arc_util.Packed.index (HD.Debug.current d) in
  let spare =
    List.find
      (fun j -> j <> superseded && j <> published)
      (List.init (HD.Debug.slots d) Fun.id)
  in
  HD.quarantine d spare;
  let codes = List.map (fun (e : Arc_obs.Ring.entry) -> e.code) (HD.trace d) in
  Alcotest.(check bool) "ring records the recovery" true
    (List.mem Arc_obs.Ring.code_recover codes);
  Alcotest.(check bool) "ring records the quarantine" true
    (List.mem Arc_obs.Ring.code_quarantine codes);
  check "both retired slots exported" 2
    (metric "arc_quarantined_slots" (HD.metrics d));
  Alcotest.(check (list string)) "same metric names as fixed storage"
    (metric_names (HA.metrics s)) (metric_names (HD.metrics d));
  (* Fixed storage exports the storage metrics too, truthfully. *)
  let fixed = HA.metrics s in
  check "fixed storage never reallocates" 0
    (metric "arc_reallocations_total" fixed);
  check "fixed footprint is (N+2)·capacity" ((readers + 2) * capacity)
    (metric "arc_footprint_words" fixed)

(* 1,000 writes of varying length, a third of them coalesced with
   periodic flushes, while readers follow.  Returns the [alloc] calls
   made after [create]. *)
module Drive (R : Arc_core.Arc.S) = struct
  let allocs_after_create () =
    let readers = 3 and capacity = 64 in
    let reg = R.create ~readers ~capacity ~init:(stamped ~seq:0 ~len:8) in
    let rds = Array.init readers (R.reader reg) in
    let rng = Arc_util.Splitmix.of_int 17 in
    Hooked.allocs := 0;
    for seq = 1 to 1000 do
      let len = 1 + Arc_util.Splitmix.int rng capacity in
      let src = stamped ~seq ~len in
      if seq mod 3 = 0 then
        R.write_coalesced reg ~max_pending:4 ~max_staleness:4 ~src ~len
      else R.write reg ~src ~len;
      if seq mod 7 = 0 then R.flush_coalesced reg;
      ignore (R.read_with rds.(seq mod readers) ~f:(fun _ len -> len))
    done;
    R.flush_coalesced reg;
    !Hooked.allocs
end

let test_fixed_storage_never_allocates () =
  let module DA = Drive (HA) in
  let module DN = Drive (HN) in
  let module DD = Drive (HD) in
  check "fixed storage: no alloc after create" 0 (DA.allocs_after_create ());
  check "fixed no-hint storage: no alloc after create" 0
    (DN.allocs_after_create ());
  Alcotest.(check bool) "sized storage reallocates" true
    (DD.allocs_after_create () > 0)

let suite =
  [
    Alcotest.test_case "footprint tracks content" `Quick test_footprint_tracks_content;
    Alcotest.test_case "small snapshots stay small" `Quick
      test_small_snapshots_stay_small;
    Alcotest.test_case "realloc policy" `Quick test_realloc_policy;
    Alcotest.test_case "views survive recycling" `Quick test_views_survive_recycling;
    Alcotest.test_case "sequential equivalence with static" `Quick
      test_sequential_equivalence_with_static;
    Alcotest.test_case "sized telemetry matches fixed" `Quick test_telemetry_parity;
    Alcotest.test_case "fixed storage never allocates after create" `Quick
      test_fixed_storage_never_allocates;
  ]
