(* What every workload shares: the run configuration, the writer's
   open- or closed-loop generator and its log, the reader-side correctness
   checks, the final-write handshake and throughput windows. *)

type inject =
  | No_inject
  | Torn  (** the final write publishes a payload with one flipped word *)
  | Backwards  (** the final write republishes an older seq *)

type cfg = {
  seconds : float;  (** measured time, after [warmup] *)
  seed : int;
  traced : bool;
  inject : inject;
}

let warmup_ns = 200_000_000
let window_ns = 10_000_000

(* Generous: only a lost or stuck final write can take this long. *)
let final_timeout_ns = 10_000_000_000

(* Failure counts; each one is a failed operation in [failed_share]. *)
type fails = {
  mutable torn : int;  (** observed values that fail [Payload.validate] *)
  mutable backwards : int;  (** a reader's seq went backwards *)
  mutable final_missed : int;  (** the final write was not observed *)
  mutable backpressured : int;  (** admissions refused *)
  mutable snapshot_errors : int;  (** certified snapshots refused *)
  mutable cut_violations : int;  (** sampled snapshots that are no cut *)
}

let no_fails () =
  {
    torn = 0;
    backwards = 0;
    final_missed = 0;
    backpressured = 0;
    snapshot_errors = 0;
    cut_violations = 0;
  }

let total_fails f =
  f.torn + f.backwards + f.final_missed + f.backpressured + f.snapshot_errors
  + f.cut_violations

(* Writer log, one entry per write k = 1, 2, ... (index 0 unused).  In
   an open loop [due] is the schedule; in a closed loop it is the
   invocation time. *)
type wlog = {
  due : Vec.t;
  inv : Vec.t;
  ret : Vec.t;
  shard : Vec.t;
}

let wlog () =
  let v () =
    let v = Vec.create 65_536 in
    Vec.push v 0;
    v
  in
  { due = v (); inv = v (); ret = v (); shard = v () }

let writes w = Vec.length w.due - 1

(* Reader-side state.  [last] is the seq the reader last returned;
   [seen] records, for every write k, when the reader first returned a
   seq >= k.  [observed] lets the writer wait for the reader. *)
type obs = {
  mutable last : int;
  seen : Vec.t;
  observed : int Atomic.t;
  f : fails;
}

let obs () =
  { last = 0; seen = Vec.create 65_536; observed = Atomic.make 0; f = no_fails () }

(* A payload check result packed in an int so the read path does not
   allocate: [s >= 0] is a valid value of seq [s], [-s - 1] a torn one
   claiming seq [s]. *)
let torn_code s = -s - 1

let advance o seq t =
  if seq > o.last then begin
    for k = o.last + 1 to seq do
      Vec.set o.seen k t
    done;
    o.last <- seq;
    Atomic.set o.observed seq
  end

(* Record a new return value [r] (different from [o.last]). *)
let note o r t =
  let s = if r < 0 then -r - 1 else r in
  if r < 0 then o.f.torn <- o.f.torn + 1;
  if s < o.last then begin
    o.f.backwards <- o.f.backwards + 1;
    o.last <- s;
    Atomic.set o.observed s
  end
  else advance o s t

(* The final write: the writer announces its shard and seq once it has
   returned; the reader stops when it has returned that value, or
   counts a failure after [final_timeout_ns]. *)
type final = { fshard : int Atomic.t; fseq : int Atomic.t }

let final () = { fshard = Atomic.make 0; fseq = Atomic.make (-1) }

let announce fin ~shard ~seq =
  Atomic.set fin.fshard shard;
  Atomic.set fin.fseq seq

(* Reader-side poll.  [view shard] is the seq the reader currently
   holds for [shard]; [deadline] is reader-local state. *)
let final_reached fin (deadline : int ref) f ~view ~t =
  let fs = Atomic.get fin.fseq in
  if fs < 0 then false
  else if view (Atomic.get fin.fshard) = fs then true
  else begin
    if !deadline = 0 then deadline := t + final_timeout_ns;
    if t > !deadline then begin
      f.final_missed <- f.final_missed + 1;
      true
    end
    else false
  end

(* The writer waits (bounded) until the reader has returned [seq]. *)
let await_observed o seq =
  let limit = Span.now () + final_timeout_ns in
  while Atomic.get o.observed < seq && Span.now () < limit do
    Domain.cpu_relax ()
  done

(* Throughput windows: (time, cumulative count) samples, the first
   one at or after the measurement start. *)
type windows = { wt : Vec.t; wc : Vec.t; mutable next : int }

let windows t0 = { wt = Vec.create 1024; wc = Vec.create 1024; next = t0 }

let tick w t count =
  if t >= w.next then begin
    Vec.push w.wt t;
    Vec.push w.wc count;
    w.next <- t + window_ns
  end

(* The last sample, so that a run shorter than a window still has a
   rate. *)
let close_windows w t count =
  let n = Vec.length w.wt in
  if n > 0 && t > Vec.get w.wt (n - 1) then begin
    Vec.push w.wt t;
    Vec.push w.wc count
  end

(* Open loop at [rate] writes/s with Poisson arrivals drawn from [rng]
   (closed loop when [rate = 0]) from [start] until [stop]: [prepare k]
   builds write k's payload (seq k) before its due time and returns
   its shard, [publish k] performs it.  Returns the last k.  Random gaps
   keep the writer from phase-locking with the reader's loop, which
   with a fixed period makes latencies drift between modes for seconds
   at a time. *)
let drive_writer ~rate ~rng ~start ~stop (w : wlog) ~prepare ~publish =
  let mean_gap = if rate > 0 then 1e9 /. float_of_int rate else 0.0 in
  let due = ref start in
  let k = ref 0 in
  let go = ref true in
  while !go do
    incr k;
    let k = !k in
    let shard = prepare k in
    if rate > 0 then begin
      let u = Arc_util.Splitmix.float rng in
      due := !due + int_of_float (-.mean_gap *. log (1.0 -. u));
      while Span.now () < !due do
        Domain.cpu_relax ()
      done
    end;
    let inv = Span.now () in
    publish k;
    let ret = Span.now () in
    Vec.push w.due (if rate > 0 then !due else inv);
    Vec.push w.inv inv;
    Vec.push w.ret ret;
    Vec.push w.shard shard;
    if ret >= stop then go := false
  done;
  !k

let ns_of_seconds s = int_of_float (s *. 1e9)

(* What one measured phase of a workload yields.  The traced fields are
   empty or 0 on an untraced phase. *)
type phase = {
  t0 : int;  (** measurement start, after the warm-up *)
  stop : int;  (** the writer's last write returned at or after this *)
  log : wlog;
  seen : Vec.t;
  rwin : windows;  (** reader operations over time *)
  fails : fails;
  attempted : int;
  bytes_per_write : int;
  closed_reader : bool;  (** the reader runs in a closed loop *)
  ledger : (string * float) list;  (** per-layer metrics (traced) *)
  write_chain_ns : float;
      (** mean duration of the publish call, children included (traced) *)
  read_chain_ns : float;
      (** the reader's blocking time per newly observed value (traced) *)
  info : string list;  (** extra report lines *)
  recorders : (string * Span.t) list;  (** per domain, for the span dump *)
}

external pin : int -> bool = "perfbench_pin"

(* The hold-model reader allocates on every read, and each minor
   collection stops both domains together, so its cost follows the
   other CPU's availability.  A 32 MB minor heap per measuring domain
   makes those stops rare.  Set-up is measured before, with the
   default. *)
let minor_heap_words = 4 lsl 20

let big_minor_heap () =
  let g = Gc.get () in
  if g.minor_heap_size < minor_heap_words then
    Gc.set { g with minor_heap_size = minor_heap_words }

(* Run [f] on a new domain beside the calling one, each pinned to a CPU
   of its own when the host has two, so that the kernel never stacks
   the two spinning domains on one CPU or moves them between CPUs
   mid-run; both get the large minor heap.  [join_pinned] waits for [f]
   and unpins the calling domain. *)
let spawn_pinned f =
  let two = Domain.recommended_domain_count () >= 2 in
  let d =
    Domain.spawn (fun () ->
        if two then ignore (pin 1);
        big_minor_heap ();
        f ())
  in
  if two then ignore (pin 0);
  big_minor_heap ();
  d

let join_pinned d =
  let r = Domain.join d in
  ignore (pin (-1));
  r

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
