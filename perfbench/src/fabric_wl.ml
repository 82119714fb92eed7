(* The fabric-64 workload: a reign-attached fabric of 64 heap ARC
   registers of 64 words.  The main domain writes in an open loop over
   a seeded shard order; one spawned domain takes certified snapshots,
   also in an open loop, and validates every new shard value.

   The scanner is paced rather than closed-loop: a closed-loop scanner
   keeps a scan announced at every instant, so every write pays a full
   helping scan and the publish latency becomes a second snapshot
   latency, which on a shared host drifts by a third between runs.  At
   [scan_rate] about one write in seven helps, so the publish p50 lies
   well inside the non-helping mode instead of near its edge, where it
   would swing with the helping share. *)

open Common

let shards = 64
let words = 64
let rate = 10_000
let scan_rate = 5_000

(* One snapshot in this many is kept for the consistent-cut check. *)
let sample_every = 16

(* [samples] holds [shards] seqs per sampled snapshot.  A snapshot is a
   consistent cut iff, for P its largest seq, every shard holds the
   seq of the last write to it among writes 1..P (0 if none). *)
let cut_violations (log : wlog) samples =
  let n = Vec.length samples / shards in
  let get i s = Vec.get samples ((i * shards) + s) in
  let top =
    Array.init n (fun i ->
        let m = ref 0 in
        for s = 0 to shards - 1 do
          m := max !m (get i s)
        done;
        !m)
  in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare top.(a) top.(b)) order;
  let last = Array.make shards 0 in
  let applied = ref 0 and bad = ref 0 in
  Array.iter
    (fun i ->
      let p = top.(i) in
      if p > writes log then incr bad
      else begin
        while !applied < p do
          incr applied;
          last.(Vec.get log.shard !applied) <- !applied
        done;
        let ok = ref true in
        for s = 0 to shards - 1 do
          if get i s <> last.(s) then ok := false
        done;
        if not !ok then incr bad
      end)
    order;
  !bad

module Make (R : Arc_core.Arc.S) = struct
  module F = Arc_fabric.Fabric.Make (R)
  module P = Arc_workload.Payload.Make (R.Mem)

  type state = { regs : R.t array; fab : F.t; src : int array; base : int }

  (* Identity 0 is the scanner's, identity 1 the writer's helping
     collects'. *)
  let build ~traced ~base =
    let init = Array.make words 0 in
    P.stamp init ~seq:base ~len:words;
    let regs =
      Array.init shards (fun _ ->
          let r = R.create ~readers:2 ~capacity:words ~init in
          if traced then R.set_telemetry r (Some (R.make_telemetry ~readers:2 ()));
          r)
    in
    let fab = F.of_registers regs ~writers:1 ~readers:1 ~capacity:words in
    F.attach_reign fab ~config:(R.Mem.atomic 1);
    { regs; fab; src = Array.make words 0; base }

  let probe st =
    P.stamp st.src ~seq:(st.base + 1) ~len:words;
    F.write (F.writer st.fab 0) ~shard:0 ~src:st.src ~len:words;
    match F.snapshot_certified (F.scanner st.fab 0) with
    | Ok _ -> ()
    | Error _ -> failwith "fabric-64: set-up snapshot refused"

  type scan_result = {
    snaps : int;
    borrowed : int;
    lat : Vec.t;  (** snapshot latency, ns, measured phase *)
    samples : Vec.t;
    win : windows;
    ssp : Span.t;
  }

  let scanner st ~traced ~rng ~start ~t0 ~raw_from ~fin (o : obs) () =
    let sp = Span.local () in
    Span.reset sp;
    if traced then begin
      Span.calibrate sp;
      Span.record_raw_from sp raw_from
    end;
    let sc = F.scanner st.fab 0 in
    let stamps = Array.make shards min_int and seqs = Array.make shards 0 in
    let scratch = Array.make words 0 in
    let samples = Vec.create 65_536 and lat = Vec.create 65_536 in
    let snaps = ref 0 and borrowed = ref 0 in
    let win = windows t0 in
    let deadline = ref 0 in
    let view s = seqs.(s) in
    let mean_gap = 1e9 /. float_of_int scan_rate in
    let due = ref start in
    let go = ref true in
    while !go do
      due := !due + int_of_float (-.mean_gap *. log (1.0 -. Arc_util.Splitmix.float rng));
      while Span.now () < !due do
        Domain.cpu_relax ()
      done;
      let ta = Span.now () in
      if traced then Span.enter sp ~seq:o.last;
      let res = F.snapshot_certified sc in
      if traced then Span.leave sp Span.fabric_snapshot;
      let tb = Span.now () in
      incr snaps;
      (match res with
      | Error _ -> o.f.snapshot_errors <- o.f.snapshot_errors + 1
      | Ok snap ->
          if ta >= t0 then Vec.push lat (tb - ta);
          if F.borrowed snap then incr borrowed;
          let top = ref 0 in
          for s = 0 to shards - 1 do
            let stamp = F.shard_stamp snap s in
            if stamp <> stamps.(s) then begin
              stamps.(s) <- stamp;
              let len = F.shard_copy snap s ~dst:scratch in
              let seq = max 0 (P.decode_words scratch - st.base) in
              if traced then Span.enter sp ~seq;
              let valid = Result.is_ok (P.validate_words scratch ~len) in
              if traced then Span.leave sp Span.payload_validate;
              if not valid then o.f.torn <- o.f.torn + 1;
              if seq < seqs.(s) then o.f.backwards <- o.f.backwards + 1;
              seqs.(s) <- seq
            end;
            top := max !top seqs.(s)
          done;
          if !top < o.last then o.last <- !top else advance o !top tb;
          if !snaps mod sample_every = 0 then Array.iter (Vec.push samples) seqs);
      tick win tb !snaps;
      if final_reached fin deadline o.f ~view ~t:tb then go := false
    done;
    close_windows win (Span.now ()) !snaps;
    { snaps = !snaps; borrowed = !borrowed; lat; samples; win; ssp = sp }

  let run (cfg : cfg) =
    let traced = cfg.traced in
    let rng = Arc_util.Splitmix.of_int cfg.seed in
    let base = Arc_util.Splitmix.int rng (1 lsl 40) in
    let st = build ~traced ~base in
    let o = obs () and fin = final () and log = wlog () in
    let wsp = Span.local () in
    Span.reset wsp;
    if traced then Span.calibrate wsp;
    let changed0 = Atomic.get Arc_fabric.Fabric.Reign_tel.changed in
    let start = Span.now () + 1_000_000 in
    let t0 = start + warmup_ns in
    let stop = t0 + ns_of_seconds cfg.seconds in
    let raw_from = t0 + ((stop - t0) / 2) in
    if traced then Span.record_raw_from wsp raw_from;
    let srng = Arc_util.Splitmix.split rng in
    let sdom = spawn_pinned (scanner st ~traced ~rng:srng ~start ~t0 ~raw_from ~fin o) in
    let w = F.writer st.fab 0 in
    let shard = ref 0 in
    let publish k =
      if traced then Span.enter wsp ~seq:k;
      F.write w ~shard:!shard ~src:st.src ~len:words;
      if traced then Span.leave wsp Span.fabric_write
    in
    let stamp k = P.stamp st.src ~seq:(base + k) ~len:words in
    let prepare k =
      shard := Arc_util.Splitmix.int rng shards;
      stamp k;
      !shard
    in
    let last = drive_writer ~rate ~rng ~start ~stop log ~prepare ~publish in
    let final_seq, injected =
      match cfg.inject with
      | No_inject -> (last, 0)
      | Torn ->
          stamp (last + 1);
          st.src.(words / 2) <- st.src.(words / 2) lxor 1;
          publish (last + 1);
          (last + 1, 1)
      | Backwards ->
          (* Republish an older seq on the shard that holds [last]. *)
          await_observed o last;
          stamp (last - 1);
          publish (last - 1);
          (last - 1, 1)
    in
    announce fin ~shard:!shard ~seq:final_seq;
    let sr = join_pinned sdom in
    let f = o.f in
    f.cut_violations <- cut_violations log sr.samples;
    let nwrites = last + injected in
    let attempted = nwrites + sr.snaps in
    let deposits = F.deposits_made st.fab in
    let lat = Vec.to_array sr.lat in
    Array.sort Int.compare lat;
    let pct p =
      if Array.length lat = 0 then 0.0
      else float_of_int lat.(min (Array.length lat - 1) (p * Array.length lat / 100)) /. 1e3
    in
    let info =
      [
        Printf.sprintf
          "snapshots: %d (%d borrowed), certified snapshot p50 %.2f us, p90 %.2f us, \
           p99 %.2f us over %d"
          sr.snaps sr.borrowed (pct 50) (pct 90) (pct 99) (Array.length lat);
      ]
    in
    let ledger, write_chain_ns, read_chain_ns =
      if not traced then ([], 0.0, 0.0)
      else begin
        let ssp = sr.ssp in
        let sum = Span.merge wsp ssp in
        let sum_regs g = Array.fold_left (fun a r -> a + g r) 0 st.regs in
        let slow =
          sum_regs (fun r -> R.slow_reads (Option.get (R.telemetry r)))
        in
        (* Scans announce with one RMW and retire with one; a helping
           scan whose certification failed is followed by a plain one. *)
        let helping =
          deposits + (Atomic.get Arc_fabric.Fabric.Reign_tel.changed - changed0)
          - f.snapshot_errors
        in
        let expected = sum_regs R.writes + (2 * slow) + (2 * (sr.snaps + helping)) in
        let mismatches = abs (sum.Span.rmw - expected) in
        ( [
            ("arc.write_probes_per_write", ratio (sum_regs R.write_probes) (sum_regs R.writes));
            ("mem.copy_ns_per_word", ratio sum.Span.self.(Span.mem_copy) sum.Span.copied);
            ("mem.rmw_per_read", ratio ssp.Span.rmw sr.snaps);
            ("mem.rmw_per_write", ratio wsp.Span.rmw nwrites);
            ("mem.rmw_mismatches", float_of_int mismatches);
            ( "fabric.snapshot_ns_per_shard",
              Span.mean_total sum Span.fabric_snapshot /. float_of_int shards );
            ("fabric.retries_per_snapshot", ratio (F.snapshot_retries st.fab) (sr.snaps + deposits));
            ("fabric.borrowed_share", ratio sr.borrowed (sr.snaps - f.snapshot_errors));
            ("fabric.write_ns", Span.mean_self sum Span.fabric_write);
            ("fabric.deposits_per_write", ratio deposits nwrites);
            ( "payload.validate_ns_per_word",
              Span.mean_self sum Span.payload_validate /. float_of_int words );
          ],
          Span.mean_total sum Span.fabric_write,
          Span.mean_total sum Span.fabric_snapshot )
      end
    in
    {
      t0;
      stop;
      log;
      seen = o.seen;
      rwin = sr.win;
      fails = f;
      attempted;
      bytes_per_write = 8 * words;
      closed_reader = false;
      ledger;
      write_chain_ns;
      read_chain_ns;
      info;
      recorders = (if traced then [ ("writer", wsp); ("scanner", sr.ssp) ] else []);
    }
end
