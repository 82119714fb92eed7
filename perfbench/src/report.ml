(* Metrics from measured phases, the printed report and the result
   line.  The name and unit tables are the ones BENCHMARK.json lists. *)

open Common

let end_to_end =
  [
    ("setup_s", "s");
    ("visible_p50_us", "us");
    ("publish_p50_us", "us");
    ("reader_kops", "kop/s");
  ]

let per_layer =
  [
    ("arc.read_hit_ns", "ns");
    ("arc.read_plain_ns", "ns");
    ("arc.read_miss_ns", "ns");
    ("arc.write_ns", "ns");
    ("arc.write_probes_per_write", "count");
    ("arc.plain_fallback_share", "ratio");
    ("mem.copy_ns_per_word", "ns");
    ("mem.rmw_per_read", "count");
    ("mem.rmw_per_write", "count");
    ("mem.rmw_mismatches", "count");
    ("admission.admit_ns", "ns");
    ("admission.depart_ns", "ns");
    ("admission.backpressured", "count");
    ("fabric.snapshot_ns_per_shard", "ns");
    ("fabric.retries_per_snapshot", "count");
    ("fabric.borrowed_share", "ratio");
    ("fabric.write_ns", "ns");
    ("fabric.deposits_per_write", "count");
    ("payload.validate_ns_per_word", "ns");
    ("bench.gen_late_p90_us", "us");
    ("trace.overhead_pct", "%");
    ("trace.unexplained_pct", "%");
  ]

(* Linear-interpolated percentile of a sorted array. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  pct a 50.0

(* Rates (count per ns) between consecutive window samples that end by
   [stop]; the whole span when no window fits. *)
let window_rates (w : windows) ~stop =
  let n = Vec.length w.wt in
  let rate i j =
    float_of_int (Vec.get w.wc j - Vec.get w.wc i)
    /. float_of_int (max 1 (Vec.get w.wt j - Vec.get w.wt i))
  in
  let full = List.filter (fun i -> Vec.get w.wt (i + 1) <= stop) (List.init (max 0 (n - 1)) Fun.id) in
  match full with
  | [] -> if n >= 2 then [| rate 0 (n - 1) |] else [| 0.0 |]
  | l -> Array.of_list (List.map (fun i -> rate i (i + 1)) l)

(* Interference from other tenants of a shared host comes in phases
   from milliseconds to minutes: spells in which cross-core traffic is
   slower or faster, or the closed-loop reader runs at two thirds of
   its speed.  So each metric is taken per 10 ms window, and the run
   reports the median across its windows of the latencies (the
   window's p50 or p90), which a spell shorter than half the run does
   not move.  The rate of a closed loop is taken at its 95th percentile
   across windows, the speed it reaches whenever the host lets it; the
   rate of an open or paced loop at its median, since a better-side
   quantile would pick the bursts in which it catches up after a
   stall. *)
let across_lat = 50.0
let across_closed_rate = 95.0

type e2e = {
  visible : float array;  (** all measured writes, sorted, us *)
  publish : float array;
  late : float array;
  vis_w : float array * float array;  (** per-window p50 and p90, us *)
  pub_w : float array * float array;
  publish_mbps : float;
  reader_kops : float;
  reader_w : float array;  (** per-window reader rates, kop/s *)
}

let sorted_range a off len =
  let b = Array.sub a off len in
  Array.sort Float.compare b;
  b

let across_rates closed r =
  let r = sorted_range r 0 (Array.length r) in
  pct r (if closed then across_closed_rate else 50.0)

let e2e (ph : phase) =
  let n = writes ph.log in
  let vis = Array.make n 0.0 and pub = Array.make n 0.0 and late = Array.make n 0.0 in
  let nv = ref 0 and np = ref 0 in
  let wwin = windows ph.t0 in
  let us x = float_of_int x /. 1e3 in
  (* per-window percentiles, windows by due time *)
  let wv50 = ref [] and wv90 = ref [] and wp50 = ref [] and wp90 = ref [] in
  let v0 = ref 0 and p0 = ref 0 and wend = ref (ph.t0 + window_ns) in
  let flush () =
    if !np > !p0 then begin
      let v = sorted_range vis !v0 (!nv - !v0) and p = sorted_range pub !p0 (!np - !p0) in
      wv50 := pct v 50.0 :: !wv50;
      wv90 := pct v 90.0 :: !wv90;
      wp50 := pct p 50.0 :: !wp50;
      wp90 := pct p 90.0 :: !wp90
    end;
    v0 := !nv;
    p0 := !np
  in
  for k = 1 to n do
    let due = Vec.get ph.log.due k in
    if due >= ph.t0 then begin
      if due >= !wend then begin
        flush ();
        while due >= !wend do
          wend := !wend + window_ns
        done
      end;
      pub.(!np) <- us (Vec.get ph.log.ret k - due);
      late.(!np) <- us (Vec.get ph.log.inv k - due);
      incr np;
      if k < Vec.length ph.seen then begin
        vis.(!nv) <- us (Vec.get ph.seen k - due);
        incr nv
      end;
      tick wwin (Vec.get ph.log.ret k) k
    end
  done;
  if n > 0 then close_windows wwin (Vec.get ph.log.ret n) n;
  (* the last, partial window only when it is the only one *)
  if !wp50 = [] then flush ();
  let arr l = Array.of_list l in
  let reader_w = Array.map (fun r -> r *. 1e6) (window_rates ph.rwin ~stop:ph.stop) in
  {
    visible = sorted_range vis 0 !nv;
    publish = sorted_range pub 0 !np;
    late = sorted_range late 0 !np;
    vis_w = (arr !wv50, arr !wv90);
    pub_w = (arr !wp50, arr !wp90);
    publish_mbps = median (window_rates wwin ~stop:ph.stop) *. float_of_int ph.bytes_per_write *. 1e3;
    reader_kops = across_rates ph.closed_reader reader_w;
    reader_w;
  }

let across a = pct (sorted_range a 0 (Array.length a)) across_lat

let e2e_metrics ~setup_s e =
  [
    ("setup_s", setup_s);
    ("visible_p50_us", across (fst e.vis_w));
    ("publish_p50_us", across (fst e.pub_w));
    ("reader_kops", e.reader_kops);
  ]

let print_e2e label e =
  let line name a =
    Printf.printf "%s %s: p50 %.3f us, p90 %.3f us, p99 %.3f us, mean %.3f us (n=%d)\n"
      label name (pct a 50.0) (pct a 90.0) (pct a 99.0) (mean a) (Array.length a)
  in
  line "visible" e.visible;
  line "publish" e.publish;
  line "gen late" e.late;
  Printf.printf
    "%s windows (%d): p%g across windows of visible p50 %.3f, p90 %.3f; publish p50 \
     %.3f, p90 %.3f us\n"
    label (Array.length (fst e.pub_w)) across_lat (across (fst e.vis_w)) (across (snd e.vis_w))
    (across (fst e.pub_w)) (across (snd e.pub_w));
  let spread name a =
    let a = sorted_range a 0 (Array.length a) in
    Printf.printf "%s %s across windows: p5 %.3f, p25 %.3f, p50 %.3f, p75 %.3f, p95 %.3f\n"
      label name (pct a 5.0) (pct a 25.0) (pct a 50.0) (pct a 75.0) (pct a 95.0)
  in
  spread "visible p50" (fst e.vis_w);
  spread "publish p50" (fst e.pub_w);
  spread "reader kop/s" e.reader_w;
  Printf.printf "%s throughput: publish %.3f MB/s, reader %.3f kop/s\n" label
    e.publish_mbps e.reader_kops

(* The traced phase's per-layer metrics, completed with the harness
   metrics that compare it with the untraced phase.  Layers a workload
   does not exercise read 0.  The reconciliation sets the traced p50s
   against the blocking layers on the write-to-visible path: the
   generator's lateness, the publish call (its span, children
   included) and the reader's blocking time per new value (mean span
   times, host stalls excluded). *)
let ledger ~untraced ~traced (pt : phase) =
  let late = pct traced.late 50.0 in
  let write = pt.write_chain_ns /. 1e3 and read = pt.read_chain_ns /. 1e3 in
  let pub = pct traced.publish 50.0 and vis = pct traced.visible 50.0 in
  let share part whole = if whole = 0.0 then 0.0 else 100.0 *. part /. whole in
  let unexplained = share (vis -. (late +. write +. read)) vis in
  Printf.printf
    "layer sum, publish: untraced p50 %.3f us | traced p50 %.3f us = gen late %.3f + \
     publish call %.3f + unexplained %.3f us (%.1f%%)\n"
    (pct untraced.publish 50.0) pub late write (pub -. late -. write)
    (share (pub -. late -. write) pub);
  Printf.printf
    "layer sum, visible: untraced p50 %.3f us | traced p50 %.3f us = gen late %.3f + \
     publish call %.3f + reader %.3f + unexplained %.3f us (%.1f%%)\n"
    (pct untraced.visible 50.0) vis late write read (vis -. late -. write -. read) unexplained;
  let overhead =
    share (pct traced.visible 50.0 -. pct untraced.visible 50.0) (pct untraced.visible 50.0)
  in
  Printf.printf "trace overhead: visible p50 %+.1f%%, reader throughput %+.1f%%\n" overhead
    (share (untraced.reader_kops -. traced.reader_kops) traced.reader_kops);
  let measured =
    pt.ledger
    @ [
        ("bench.gen_late_p90_us", pct untraced.late 90.0);
        ("trace.overhead_pct", overhead);
        ("trace.unexplained_pct", unexplained);
      ]
  in
  List.map
    (fun (name, _) ->
      (name, match List.assoc_opt name measured with Some v -> v | None -> 0.0))
    per_layer

let finite v = if Float.is_finite v then v else 0.0

let json_line ~correct ~attempted ~failed metrics units =
  let m =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (finite v)
          (List.assoc name units))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
