(* Deadline-aware reader sessions (ISSUE 3).

   A session wraps one reader handle with the full degradation stack:
   bounded retry with jittered exponential backoff on
   {!Arc_core.Register_intf.Saturated} (the typed error [Arc] raises,
   under every storage policy, from a read path that trips a capacity
   or revocation defense guard), a per-register circuit breaker, and a
   last-known-good snapshot served — with its age — when live reads
   are unavailable.  The caller gets a typed {!outcome} instead of an
   exception through the hot path, and a degraded serve always
   discloses itself ([Stale]/[Exhausted]).

   Every successful live read refreshes the snapshot via a
   buffer-to-buffer blit inside the read callback; that copy is the
   price of the degradation contract (the session deliberately trades
   ARC's zero-copy read for the ability to answer when the register
   cannot).  The staleness the snapshot can accrue before the session
   refuses to serve it is bounded by [max_stale] (in the session's
   clock units); the translation of that clock bound into a
   writes-behind bound is the checker's job
   ({!Arc_trace.Checker.check_bounded_staleness}).

   Outcome accounting uses {!Arc_obs.Obs.Outcomes} — per-class
   single-writer cells — not {!Arc_util.Stats.Outcomes}: the soak
   engine's recorder and live summary read a session's counters from
   another thread {e while the session is still running}, which the
   plain mutable Stats record was never licensed for (it documents
   "merge after join").  Cells make any mid-run read a valid racy
   snapshot; {!Outcomes.snapshot} bridges back into the Stats world
   for post-join aggregation. *)

module Make (R : Arc_core.Register_intf.S) = struct
  module M = R.Mem
  module Outcomes = Arc_obs.Obs.Outcomes

  type 'a outcome =
    | Fresh of 'a
    | Stale of { value : 'a; age : int }
        (** Served from the snapshot captured [age] clock units ago
            (within the session's [max_stale] bound). *)
    | Exhausted of { attempts : int; last_error : string }
        (** No live read before the deadline and no admissible
            snapshot.  [attempts] counts live attempts made. *)
    | Backpressured of Arc_core.Register_intf.backpressure
        (** The session's admission guard refused service — its ticket
            was revoked by the gate's lease sweep (ISSUE 8) — and no
            admissible snapshot remained.  Unlike [Exhausted] this is
            not worth retrying on this session: re-admit through the
            gate for a fresh ticket. *)

  type t = {
    rd : R.reader;
    admission : (unit -> Arc_core.Register_intf.backpressure option) option;
        (* checked before each live attempt; [Some bp] = refused *)
    now : unit -> int;
    sleep : int -> unit;
    backoff : Backoff.t;
    breaker : Breaker.t;
    max_stale : int;
    snap : M.buffer;
    mutable snap_len : int;  (* -1 until the first successful read *)
    mutable snap_at : int;
    outcomes : Outcomes.t;
    backpressured : Arc_obs.Obs.Cell.t;
        (* admission-refused serves; single-writer like all cells *)
    latency : Arc_util.Histogram.t;
        (* per-read_with latency in the session's clock units,
           including retries/backoff — the caller-observed tail *)
  }

  let create ?admission ?backoff ?breaker ?(max_stale = max_int) ~now ~sleep
      ~capacity rd =
    if capacity < 1 then
      invalid_arg (Printf.sprintf "Session.create: capacity = %d" capacity);
    if max_stale < 0 then
      invalid_arg (Printf.sprintf "Session.create: max_stale = %d" max_stale);
    let backoff =
      match backoff with Some b -> b | None -> Backoff.create ~seed:0 ()
    in
    let breaker =
      match breaker with Some b -> b | None -> Breaker.create ~now ()
    in
    {
      rd;
      admission;
      now;
      sleep;
      backoff;
      breaker;
      max_stale;
      snap = M.alloc capacity;
      snap_len = -1;
      snap_at = 0;
      outcomes = Outcomes.create ();
      backpressured = Arc_obs.Obs.Cell.create ();
      latency = Arc_util.Histogram.create ();
    }

  let outcomes t = t.outcomes
  let breaker t = t.breaker
  let latency t = t.latency

  let snapshot_age t =
    if t.snap_len < 0 then None else Some (t.now () - t.snap_at)

  (* Safe from any thread mid-run: outcome counts come from the
     per-class cells, breaker trips from its own counter. *)
  let metrics t =
    let open Arc_obs.Obs in
    [
      counter "session_reads_fresh_total" ~help:"Live reads served fresh"
        (Outcomes.ok_count t.outcomes);
      counter "session_stale_serves_total"
        ~help:"Reads served from the degradation snapshot"
        (Outcomes.stale_count t.outcomes);
      counter "session_exhausted_total"
        ~help:"Reads that found no live value and no admissible snapshot"
        (Outcomes.exhausted_count t.outcomes);
      counter "session_errors_total" ~help:"Live read attempts that failed"
        (Outcomes.error_count t.outcomes);
      counter "session_retries_total" ~help:"Backoff retry attempts"
        (Outcomes.retry_count t.outcomes);
      counter "session_backpressured_total"
        ~help:"Reads refused by the admission guard (revoked ticket)"
        (Cell.get t.backpressured);
      counter "session_breaker_trips_total"
        ~help:"Circuit-breaker Closed->Open transitions"
        (Breaker.trips t.breaker);
      gauge "session_snapshot_age"
        ~help:"Clock units since the snapshot was refreshed (-1 if none)"
        (match snapshot_age t with None -> -1. | Some a -> float_of_int a);
    ]
    @
    if Arc_util.Histogram.count t.latency = 0 then []
    else
      List.map
        (fun (q, p) ->
          gauge "session_read_latency"
            ~labels:[ ("quantile", q) ]
            ~help:
              "read_with latency in session clock units (interpolated \
               histogram percentile)"
            (float_of_int (Arc_util.Histogram.percentile t.latency p)))
        [ ("0.5", 50.); ("0.99", 99.); ("1.0", 100.) ]

  let serve_degraded t ~attempts ~last_error ~f =
    let age = t.now () - t.snap_at in
    if t.snap_len >= 0 && age <= t.max_stale then begin
      Outcomes.stale t.outcomes;
      Stale { value = f t.snap t.snap_len; age }
    end
    else begin
      Outcomes.exhausted t.outcomes;
      Exhausted { attempts; last_error }
    end

  (* An admission refusal is not an error to retry through — the gate
     already said no and told us when to come back — so it degrades
     immediately: snapshot if admissible, else the typed verdict. *)
  let serve_refused t ~f bp =
    Arc_obs.Obs.Cell.incr t.backpressured;
    let age = t.now () - t.snap_at in
    if t.snap_len >= 0 && age <= t.max_stale then begin
      Outcomes.stale t.outcomes;
      Stale { value = f t.snap t.snap_len; age }
    end
    else Backpressured bp

  let live_read t ~f =
    R.read_with t.rd ~f:(fun buf len ->
        M.blit buf t.snap ~len;
        t.snap_len <- len;
        t.snap_at <- t.now ();
        f buf len)

  (* [deadline] is absolute, on the session's clock.  The retry loop is
     bounded three ways: the deadline, the breaker (a trip mid-retry
     short-circuits the next attempt), and backoff growth. *)
  let read_with ?(deadline = max_int) t ~f =
    let started = t.now () in
    let finish outcome =
      Arc_util.Histogram.record t.latency (t.now () - started);
      outcome
    in
    let rec attempt n last_error =
      match match t.admission with Some g -> g () | None -> None with
      | Some bp -> finish (serve_refused t ~f bp)
      | None ->
      if not (Breaker.allow t.breaker) then
        finish (serve_degraded t ~attempts:(n - 1) ~last_error ~f)
      else
        match live_read t ~f with
        | v ->
          Breaker.record_success t.breaker;
          Backoff.reset t.backoff;
          Outcomes.ok t.outcomes;
          finish (Fresh v)
        | exception Arc_core.Register_intf.Saturated msg ->
          Outcomes.error t.outcomes;
          Breaker.record_failure t.breaker;
          let delay = Backoff.next t.backoff in
          if t.now () + delay > deadline then
            finish (serve_degraded t ~attempts:n ~last_error:msg ~f)
          else begin
            Outcomes.retry t.outcomes;
            t.sleep delay;
            attempt (n + 1) msg
          end
    in
    attempt 1 "circuit breaker open"
end
