(* The single-register workloads (feed-4k, bulk-32k-shm): the main
   domain writes one ARC register, one spawned domain reads it (see
   [reader]) and validates every new value. *)

open Common

type reader =
  | Hold
      (** closed loop alternating [read_with] and [read_plain] on a
          ticket departed and re-admitted through [Admission] every
          [readmit_every] reads; validates values not returned before *)
  | Processing of int
      (** [read_with] on a fixed identity at this many reads/s (Poisson
          arrivals); every read validates the whole value, the paper's
          processing workload *)

type shape = {
  words : int;
  rate : int;  (** writes/s; 0 runs the writer in a closed loop *)
  reader : reader;
}

let readmit_every = 10_000

module Make (R : Arc_core.Arc.S) = struct
  module P = Arc_workload.Payload.Make (R.Mem)
  module G = Arc_resilience.Admission.Make (R)
  module RI = Arc_core.Register_intf

  type state = { reg : R.t; gate : G.t option; src : int array; base : int }

  let gated shape = shape.reader = Hold
  let readers shape = if gated shape then 2 else 1

  (* Write k carries seq [base + k]; [base] comes from the seed. *)
  let build shape ~traced ~base =
    let init = Array.make shape.words 0 in
    P.stamp init ~seq:base ~len:shape.words;
    let readers = readers shape in
    let reg = R.create ~readers ~capacity:shape.words ~init in
    (* Telemetry must precede the handles the gate builds. *)
    if traced then R.set_telemetry reg (Some (R.make_telemetry ~readers ()));
    let gate =
      if gated shape then
        Some (G.create ~now:Span.now ~sleep:ignore ~base:0 ~capacity:readers reg)
      else None
    in
    { reg; gate; src = Array.make shape.words 0; base }

  let rec admit gate (f : fails) tries =
    match G.admit gate with
    | RI.Admitted tk -> tk
    | RI.Backpressured _ ->
        f.backpressured <- f.backpressured + 1;
        if tries > 1000 then failwith "admission refused 1000 times in a row";
        Domain.cpu_relax ();
        admit gate f (tries + 1)

  (* One write and one read, the last step of set-up. *)
  let probe shape st =
    P.stamp st.src ~seq:(st.base + 1) ~len:shape.words;
    R.write st.reg ~src:st.src ~len:shape.words;
    let read rd = ignore (R.read_with rd ~f:(fun b _ -> P.decode_seq b)) in
    match st.gate with
    | Some g ->
        let tk = admit g (no_fails ()) 0 in
        read (G.reader g tk);
        ignore (G.depart g tk)
    | None -> read (R.reader st.reg 0)

  type reader_result = { reads : int; admissions : int; win : windows; rsp : Span.t }

  let reader shape st ~traced ~rng ~start ~t0 ~raw_from ~fin (o : obs) () =
    let sp = Span.local () in
    Span.reset sp;
    if traced then begin
      Span.calibrate sp;
      Span.record_raw_from sp raw_from
    end;
    let tel = R.telemetry st.reg in
    let fallbacks () = match tel with Some t -> R.plain_fallbacks t | None -> 0 in
    let admissions = ref 0 in
    let admit_traced g =
      incr admissions;
      if traced then Span.enter sp ~seq:o.last;
      let tk = admit g o.f 0 in
      if traced then Span.leave sp Span.admission_admit;
      tk
    in
    let ticket = ref None in
    let rd =
      ref
        (match st.gate with
        | Some g ->
            let tk = admit_traced g in
            ticket := Some tk;
            G.reader g tk
        | None -> R.reader st.reg 0)
    in
    let readmit () =
      match (st.gate, !ticket) with
      | Some g, Some tk ->
          if traced then Span.enter sp ~seq:o.last;
          ignore (G.depart g tk);
          if traced then Span.leave sp Span.admission_depart;
          let tk = admit_traced g in
          ticket := Some tk;
          rd := G.reader g tk
      | _ -> ()
    in
    (* On a torn [read_plain] view the result is discarded by the
       register. *)
    let f buf len =
      let s = max 0 (P.decode_seq buf - st.base) in
      if s = o.last && shape.reader = Hold then s
      else begin
        if traced then Span.enter sp ~seq:s;
        let r = if Result.is_ok (P.validate buf ~len) then s else torn_code s in
        if traced then Span.leave sp Span.payload_validate;
        r
      end
    in
    (* Classify each read by the RMWs it performed: 0 for an R2/R' hit, 2
       for a classic miss (R3 + R4); anything else breaks the paper's
       accounting. *)
    let rmw_class r0 =
      let d = sp.Span.rmw - r0 in
      if d <> 0 && d <> 2 then sp.Span.mismatches <- sp.Span.mismatches + 1;
      d
    in
    let read plain =
      if not traced then (if plain then R.read_plain !rd ~f else R.read_with !rd ~f)
      else begin
        let r0 = sp.Span.rmw in
        Span.enter sp ~seq:o.last;
        if plain then begin
          let fb0 = fallbacks () in
          let r = R.read_plain !rd ~f in
          Span.close sp;
          ignore (rmw_class r0);
          Span.commit sp
            (if fallbacks () > fb0 then Span.arc_read_plain_fallback
             else Span.arc_read_plain);
          r
        end
        else begin
          let r = R.read_with !rd ~f in
          Span.close sp;
          Span.commit sp
            (if rmw_class r0 = 0 then Span.arc_read_hit else Span.arc_read_miss);
          r
        end
      end
    in
    (* A processing reader waits for each read's due time and checks
       for the end after every read; the hold loop checks every 128. *)
    let batch, pace =
      match shape.reader with
      | Hold -> (128, ignore)
      | Processing rate ->
          let mean_gap = 1e9 /. float_of_int rate and due = ref start in
          ( 1,
            fun () ->
              due := !due + int_of_float (-.mean_gap *. log (1.0 -. Arc_util.Splitmix.float rng));
              while Span.now () < !due do
                Domain.cpu_relax ()
              done )
    in
    let hold = shape.reader = Hold in
    let win = windows t0 in
    let reads = ref 0 and left = ref readmit_every in
    let deadline = ref 0 in
    let view _ = o.last in
    let go = ref true in
    while !go do
      for _ = 1 to batch do
        pace ();
        let r = read (hold && !reads land 1 = 1) in
        incr reads;
        if r <> o.last then note o r (Span.now ());
        decr left;
        if !left = 0 then begin
          left := readmit_every;
          readmit ()
        end
      done;
      let t = Span.now () in
      tick win t !reads;
      if final_reached fin deadline o.f ~view ~t then go := false
    done;
    close_windows win (Span.now ()) !reads;
    (match (st.gate, !ticket) with Some g, Some tk -> ignore (G.depart g tk) | _ -> ());
    { reads = !reads; admissions = !admissions; win; rsp = sp }

  let run shape (cfg : cfg) =
    let traced = cfg.traced in
    let rng = Arc_util.Splitmix.of_int cfg.seed in
    let base = Arc_util.Splitmix.int rng (1 lsl 40) in
    let st = build shape ~traced ~base in
    let words = shape.words in
    let o = obs () and fin = final () and log = wlog () in
    let wsp = Span.local () in
    Span.reset wsp;
    if traced then Span.calibrate wsp;
    let start = Span.now () + 1_000_000 in
    let t0 = start + warmup_ns in
    let stop = t0 + ns_of_seconds cfg.seconds in
    let raw_from = t0 + ((stop - t0) / 2) in
    if traced then Span.record_raw_from wsp raw_from;
    let rrng = Arc_util.Splitmix.split rng in
    let rdom = spawn_pinned (reader shape st ~traced ~rng:rrng ~start ~t0 ~raw_from ~fin o) in
    let publish k =
      if not traced then R.write st.reg ~src:st.src ~len:words
      else begin
        let r0 = wsp.Span.rmw in
        Span.enter wsp ~seq:k;
        R.write st.reg ~src:st.src ~len:words;
        Span.leave wsp Span.arc_write;
        if wsp.Span.rmw - r0 <> 1 then wsp.Span.mismatches <- wsp.Span.mismatches + 1
      end
    in
    let prepare k =
      P.stamp st.src ~seq:(base + k) ~len:words;
      0
    in
    let last = drive_writer ~rate:shape.rate ~rng ~start ~stop log ~prepare ~publish in
    let extra k =
      P.stamp st.src ~seq:(base + k) ~len:words;
      k
    in
    let final_seq, injected =
      match cfg.inject with
      | No_inject -> (last, 0)
      | Torn ->
          let k = extra (last + 1) in
          st.src.(words / 2) <- st.src.(words / 2) lxor 1;
          publish k;
          (k, 1)
      | Backwards ->
          await_observed o last;
          let k = extra (last - 1) in
          publish k;
          (k, 1)
    in
    announce fin ~shard:0 ~seq:final_seq;
    let rr = join_pinned rdom in
    let nwrites = last + injected in
    let attempted = nwrites + rr.reads + rr.admissions in
    let ledger, write_chain_ns, read_chain_ns =
      if not traced then ([], 0.0, 0.0)
      else begin
        let rsp = rr.rsp in
        let tel = Option.get (R.telemetry st.reg) in
        let sum = Span.merge wsp rsp in
        (* The paper's accounting, against the register's own read
           classification: 2 RMW per slow read, 1 per write. *)
        let mismatches =
          sum.Span.mismatches
          + abs (rsp.Span.rmw - (2 * R.slow_reads tel))
          + abs (wsp.Span.rmw - nwrites)
        in
        let plain_calls =
          Span.count sum Span.arc_read_plain + Span.count sum Span.arc_read_plain_fallback
        in
        let per_word name =
          Span.mean_self sum name /. float_of_int words
        in
        ( [
            ("arc.read_hit_ns", Span.mean_self sum Span.arc_read_hit);
            ("arc.read_plain_ns", Span.mean_self sum Span.arc_read_plain);
            ("arc.read_miss_ns", Span.mean_self sum Span.arc_read_miss);
            ("arc.write_ns", Span.mean_self sum Span.arc_write);
            ("arc.write_probes_per_write", ratio (R.write_probes st.reg) (R.writes st.reg));
            ("arc.plain_fallback_share", ratio (R.plain_fallbacks tel) plain_calls);
            ("mem.copy_ns_per_word", ratio sum.Span.self.(Span.mem_copy) sum.Span.copied);
            ("mem.rmw_per_read", ratio rsp.Span.rmw rr.reads);
            ("mem.rmw_per_write", ratio wsp.Span.rmw nwrites);
            ("mem.rmw_mismatches", float_of_int mismatches);
            ("admission.admit_ns", Span.mean_self sum Span.admission_admit);
            ("admission.depart_ns", Span.mean_self sum Span.admission_depart);
            ("admission.backpressured", float_of_int o.f.backpressured);
            ("payload.validate_ns_per_word", per_word Span.payload_validate);
          ],
          Span.mean_total sum Span.arc_write,
          Span.mean_self sum Span.arc_read_miss
          +. Span.mean_total sum Span.payload_validate )
      end
    in
    {
      t0;
      stop;
      log;
      seen = o.seen;
      rwin = rr.win;
      fails = o.f;
      attempted;
      bytes_per_write = 8 * words;
      closed_reader = shape.reader = Hold;
      ledger;
      write_chain_ns;
      read_chain_ns;
      info = [];
      recorders = (if traced then [ ("writer", wsp); ("reader", rr.rsp) ] else []);
    }
end
