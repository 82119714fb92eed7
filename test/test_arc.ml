(* White-box tests of the ARC algorithm: the §4 lemmas as executable
   invariants, the exact RMW accounting of the read fast path, the
   §3.4 hint, and the zero-copy view guarantee. *)

module Packed = Arc_util.Packed
module Counting = Arc_mem.Counting.Make (Arc_mem.Real_mem)
module Intf = Arc_mem.Mem_intf
module Arc = Arc_core.Arc.Make (Arc_mem.Real_mem)
module Arc_cnt = Arc_core.Arc.Make (Counting)
module P = Arc_workload.Payload.Make (Arc_mem.Real_mem)
module P_cnt = Arc_workload.Payload.Make (Counting)

let check = Alcotest.(check int)

let stamped ~seq ~len =
  let a = Array.make len 0 in
  P.stamp a ~seq ~len;
  a

let test_slot_count () =
  let reg = Arc.create ~readers:5 ~capacity:4 ~init:(stamped ~seq:0 ~len:4) in
  check "N + 2 slots, the classical lower bound" 7 (Arc.Debug.slots reg)

let test_initial_current () =
  (* I1: current = ⟨index 0, count N⟩. *)
  let reg = Arc.create ~readers:9 ~capacity:4 ~init:(stamped ~seq:0 ~len:4) in
  let cur = Arc.Debug.current reg in
  check "initial index" 0 (Packed.index cur);
  check "initial count pre-charges all readers" 9 (Packed.count cur)

let test_current_tracks_published_slot () =
  let reg = Arc.create ~readers:2 ~capacity:4 ~init:(stamped ~seq:0 ~len:4) in
  let seen = Hashtbl.create 8 in
  for seq = 1 to 20 do
    Arc.write reg ~src:(stamped ~seq ~len:4) ~len:4;
    let idx = Packed.index (Arc.Debug.current reg) in
    Alcotest.(check bool) "published slot in range" true
      (idx >= 0 && idx < Arc.Debug.slots reg);
    check "fresh publication has zero presence count" 0
      (Packed.count (Arc.Debug.current reg));
    Hashtbl.replace seen idx ()
  done;
  Alcotest.(check bool) "writer rotates over multiple slots" true
    (Hashtbl.length seen >= 2)

let test_presence_ledger_invariant () =
  (* Lemma 4.1's ledger: frozen presences + live count = N at every
     quiescent point, across random op sequences. *)
  let rng = Arc_util.Splitmix.of_int 7 in
  let readers = 6 in
  let reg = Arc.create ~readers ~capacity:8 ~init:(stamped ~seq:0 ~len:8) in
  let handles = Array.init readers (Arc.reader reg) in
  let seq = ref 0 in
  for step = 1 to 3000 do
    if Arc_util.Splitmix.bool rng then begin
      incr seq;
      Arc.write reg ~src:(stamped ~seq:!seq ~len:8) ~len:8
    end
    else
      ignore (Arc.read_with handles.(Arc_util.Splitmix.int rng readers) ~f:(fun _ _ -> ()));
    if not (Arc.Debug.presence_bound_holds reg) then
      Alcotest.failf "presence ledger broken at step %d" step;
    if not (Arc.Debug.free_slot_exists reg) then
      Alcotest.failf "Lemma 4.1 violated at step %d: no free slot" step
  done

let test_counter_freeze () =
  (* W3: after a write supersedes a slot with standing readers, the
     superseded slot's r_start holds the frozen presence count. *)
  let readers = 4 in
  let reg = Arc.create ~readers ~capacity:4 ~init:(stamped ~seq:0 ~len:4) in
  let handles = Array.init readers (Arc.reader reg) in
  Arc.write reg ~src:(stamped ~seq:1 ~len:4) ~len:4;
  let slot1 = Packed.index (Arc.Debug.current reg) in
  (* three readers subscribe to slot1 *)
  for i = 0 to 2 do
    ignore (Arc.read_with handles.(i) ~f:(fun _ _ -> ()))
  done;
  check "live count" 3 (Packed.count (Arc.Debug.current reg));
  Arc.write reg ~src:(stamped ~seq:2 ~len:4) ~len:4;
  check "frozen r_start" 3 (Arc.Debug.r_start reg slot1);
  check "r_end still zero" 0 (Arc.Debug.r_end reg slot1);
  (* readers move on: r_end catches up and the slot becomes free *)
  for i = 0 to 2 do
    ignore (Arc.read_with handles.(i) ~f:(fun _ _ -> ()))
  done;
  check "r_end caught up" 3 (Arc.Debug.r_end reg slot1)

let test_read_rmw_accounting () =
  (* The paper's central optimization: a read of an unchanged register
     performs no RMW at all; a read-miss pays exactly two (R3 + R4). *)
  let init = Array.make 4 0 in
  P_cnt.stamp init ~seq:0 ~len:4;
  let reg = Arc_cnt.create ~readers:2 ~capacity:4 ~init in
  let rd = Arc_cnt.reader reg 0 in
  let src = Array.make 4 0 in
  P_cnt.stamp src ~seq:1 ~len:4;
  Arc_cnt.write reg ~src ~len:4;
  Counting.reset ();
  ignore (Arc_cnt.read_with rd ~f:(fun _ _ -> ()));
  check "read-miss costs 2 RMW" 2 (Counting.counts ()).Intf.rmw;
  Counting.reset ();
  ignore (Arc_cnt.read_with rd ~f:(fun _ _ -> ()));
  check "read-hit costs 0 RMW" 0 (Counting.counts ()).Intf.rmw

let test_write_rmw_accounting () =
  let init = Array.make 4 0 in
  P_cnt.stamp init ~seq:0 ~len:4;
  let reg = Arc_cnt.create ~readers:2 ~capacity:4 ~init in
  let src = Array.make 4 0 in
  P_cnt.stamp src ~seq:1 ~len:4;
  Counting.reset ();
  Arc_cnt.write reg ~src ~len:4;
  check "write costs exactly 1 RMW (the exchange at W2)" 1
    (Counting.counts ()).Intf.rmw

let test_first_read_is_fast_path () =
  (* I1 pre-charges every reader on slot 0, so even the very first
     read of an unwritten register avoids RMWs. *)
  let init = Array.make 4 0 in
  P_cnt.stamp init ~seq:0 ~len:4;
  let reg = Arc_cnt.create ~readers:2 ~capacity:4 ~init in
  let rd = Arc_cnt.reader reg 0 in
  Counting.reset ();
  ignore (Arc_cnt.read_with rd ~f:(fun _ _ -> ()));
  check "first read on untouched register: 0 RMW" 0 (Counting.counts ()).Intf.rmw

let test_hint_gives_constant_probes () =
  (* E5's claim: with the §3.4 hint, write-side slot probes stay O(1)
     per write even with parked readers; without it they grow. *)
  let probes_with policy =
    let readers = 16 in
    let init = stamped ~seq:0 ~len:4 in
    let reg = Arc.create_with policy ~readers ~capacity:4 ~init in
    let handles = Array.init readers (Arc.reader reg) in
    (* Park every reader on a distinct old slot: each write is
       followed by one reader subscribing and never moving. *)
    for seq = 1 to readers do
      Arc.write reg ~src:(stamped ~seq ~len:4) ~len:4;
      ignore (Arc.read_with handles.(seq - 1) ~f:(fun _ _ -> ()))
    done;
    (* Now one active reader keeps releasing; measure write probes. *)
    let before = Arc.write_probes reg in
    for seq = readers + 1 to readers + 200 do
      ignore (Arc.read_with handles.(0) ~f:(fun _ _ -> ()));
      Arc.write reg ~src:(stamped ~seq ~len:4) ~len:4
    done;
    float_of_int (Arc.write_probes reg - before) /. 200.
  in
  let hinted = probes_with Arc_core.Arc.Fixed in
  let unhinted = probes_with Arc_core.Arc.Fixed_no_hint in
  Alcotest.(check bool)
    (Printf.sprintf "hinted probes/write %.2f below unhinted %.2f" hinted unhinted)
    true
    (hinted < unhinted);
  Alcotest.(check bool)
    (Printf.sprintf "hinted probes/write %.2f is O(1)" hinted)
    true (hinted <= 2.5)

let test_read_view_stability () =
  (* The zero-copy view must stay intact until the same reader's next
     read, no matter how many writes happen meanwhile. *)
  let readers = 2 in
  let reg = Arc.create ~readers ~capacity:8 ~init:(stamped ~seq:0 ~len:8) in
  let rd = Arc.reader reg 0 in
  Arc.write reg ~src:(stamped ~seq:1 ~len:8) ~len:8;
  let view, len = Arc.read_view rd in
  for seq = 2 to 100 do
    Arc.write reg ~src:(stamped ~seq ~len:8) ~len:8
  done;
  (match P.validate view ~len with
  | Ok seq -> check "view still holds write 1" 1 seq
  | Error msg -> Alcotest.failf "view corrupted by later writes: %s" msg);
  check "next read sees the newest value" 100
    (Arc.read_with rd ~f:(fun buffer len ->
         match P.validate buffer ~len with
         | Ok seq -> seq
         | Error msg -> Alcotest.fail msg))

let test_max_readers_capacity () =
  match Arc.caps.Arc_core.Register_intf.max_readers ~capacity_words:1 with
  | Some bound ->
    check "2^32 - 2 readers as in the paper" ((1 lsl 32) - 2) bound
  | None -> Alcotest.fail "ARC advertises a bound"

let test_writes_counter () =
  let reg = Arc.create ~readers:1 ~capacity:4 ~init:(stamped ~seq:0 ~len:4) in
  for seq = 1 to 17 do
    Arc.write reg ~src:(stamped ~seq ~len:4) ~len:4
  done;
  check "write counter" 17 (Arc.writes reg)

let prop_sequential_ledger =
  QCheck.Test.make ~name:"presence ledger holds for arbitrary op strings" ~count:60
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 80) (int_bound 5)))
    (fun (seed, ops) ->
      let rng = Arc_util.Splitmix.of_int seed in
      let readers = 3 in
      let reg = Arc.create ~readers ~capacity:4 ~init:(stamped ~seq:0 ~len:4) in
      let handles = Array.init readers (Arc.reader reg) in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          (if op <= 2 then begin
             incr seq;
             Arc.write reg ~src:(stamped ~seq:!seq ~len:4) ~len:4
           end
           else
             ignore
               (Arc.read_with handles.(Arc_util.Splitmix.int rng readers)
                  ~f:(fun _ _ -> ())));
          Arc.Debug.presence_bound_holds reg && Arc.Debug.free_slot_exists reg)
        ops)

let suite =
  [
    Alcotest.test_case "N+2 slots" `Quick test_slot_count;
    Alcotest.test_case "initial current (I1)" `Quick test_initial_current;
    Alcotest.test_case "current tracks published slot" `Quick
      test_current_tracks_published_slot;
    Alcotest.test_case "presence ledger (Lemma 4.1)" `Quick
      test_presence_ledger_invariant;
    Alcotest.test_case "counter freeze (W3)" `Quick test_counter_freeze;
    Alcotest.test_case "read RMW accounting" `Quick test_read_rmw_accounting;
    Alcotest.test_case "write RMW accounting" `Quick test_write_rmw_accounting;
    Alcotest.test_case "first read fast path" `Quick test_first_read_is_fast_path;
    Alcotest.test_case "hint keeps probes O(1) (§3.4)" `Quick
      test_hint_gives_constant_probes;
    Alcotest.test_case "read_view stability" `Quick test_read_view_stability;
    Alcotest.test_case "max readers" `Quick test_max_readers_capacity;
    Alcotest.test_case "writes counter" `Quick test_writes_counter;
    QCheck_alcotest.to_alcotest prop_sequential_ledger;
  ]
