(* Clock and the in-memory span recorder of the traced run.

   Each domain owns one recorder (domain-local storage), so recording
   never synchronizes.  A span is opened before a call into a layer and
   closed after it; its self time is its duration minus the part of it
   that child spans cover.  Both are corrected by the calibrated cost of
   an empty span ([floor]), so that a 10 ns read is not reported as the
   clock's 20 ns.  Aggregates cover every span; the raw spans of one
   window in the middle of the phase are kept for the dump. *)

external now : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

let arc_write = 0
let arc_read_hit = 1
let arc_read_miss = 2
let arc_read_plain = 3
let arc_read_plain_fallback = 4
let mem_copy = 5
let payload_validate = 6
let admission_admit = 7
let admission_depart = 8
let fabric_write = 9
let fabric_snapshot = 10

let names =
  [| "arc.write"; "arc.read_hit"; "arc.read_miss"; "arc.read_plain";
     "arc.read_plain_fallback"; "mem.copy"; "payload.validate";
     "admission.admit"; "admission.depart"; "fabric.write";
     "fabric.snapshot" |]

let raw_cap = 16_384
let max_depth = 8

(* A span this long was descheduled by the host (no call here takes
   more than tens of microseconds); it is counted, not averaged. *)
let stall_ns = 1_000_000

type t = {
  count : int array;
  total : int array;  (** floor-corrected durations, ns *)
  self : int array;
  st_start : int array;
  st_child : int array;
  st_seq : int array;
  mutable depth : int;
  mutable floor : int;
  (* the span just closed, waiting for [commit] to name it *)
  mutable c_dur : int;
  mutable c_self : int;
  mutable c_start : int;
  mutable c_end : int;
  mutable c_seq : int;
  mutable c_depth : int;
  (* raw spans, in close (post-) order *)
  raw_name : int array;
  raw_start : int array;
  raw_end : int array;
  raw_depth : int array;
  raw_seq : int array;
  mutable raw_n : int;
  mutable raw_from : int;
  (* substrate counts made at the same boundaries (see Tmem) *)
  mutable rmw : int;
  mutable copied : int;
  mutable mismatches : int;
  mutable stalled : int;
}

let create () =
  let n = Array.length names in
  {
    count = Array.make n 0;
    total = Array.make n 0;
    self = Array.make n 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_seq = Array.make max_depth 0;
    depth = 0;
    floor = 0;
    c_dur = 0;
    c_self = 0;
    c_start = 0;
    c_end = 0;
    c_seq = 0;
    c_depth = 0;
    raw_name = Array.make raw_cap 0;
    raw_start = Array.make raw_cap 0;
    raw_end = Array.make raw_cap 0;
    raw_depth = Array.make raw_cap 0;
    raw_seq = Array.make raw_cap 0;
    raw_n = 0;
    raw_from = max_int;
    rmw = 0;
    copied = 0;
    mismatches = 0;
    stalled = 0;
  }

let key = Domain.DLS.new_key create
let local () = Domain.DLS.get key

let enter t ~seq =
  let d = t.depth in
  t.depth <- d + 1;
  t.st_seq.(d) <- seq;
  t.st_child.(d) <- 0;
  t.st_start.(d) <- now ()

(* A child span that carries its parent's shared id. *)
let enter_child t =
  let seq = if t.depth > 0 then t.st_seq.(t.depth - 1) else 0 in
  enter t ~seq

let close t =
  let e = now () in
  let d = t.depth - 1 in
  t.depth <- d;
  let s = t.st_start.(d) in
  let raw = e - s in
  let dur = raw - t.floor in
  t.c_dur <- dur;
  t.c_self <- dur - t.st_child.(d);
  t.c_start <- s;
  t.c_end <- e;
  t.c_seq <- t.st_seq.(d);
  t.c_depth <- d;
  (* The child's two clock calls fall inside the parent, so it covers
     its raw interval plus one floor of the parent's time. *)
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + raw + t.floor

let commit t name =
  if t.c_dur > stall_ns then t.stalled <- t.stalled + 1
  else begin
    t.count.(name) <- t.count.(name) + 1;
    t.total.(name) <- t.total.(name) + t.c_dur;
    t.self.(name) <- t.self.(name) + t.c_self
  end;
  if t.raw_n < raw_cap && t.c_start >= t.raw_from then begin
    let i = t.raw_n in
    t.raw_name.(i) <- name;
    t.raw_start.(i) <- t.c_start;
    t.raw_end.(i) <- t.c_end;
    t.raw_depth.(i) <- t.c_depth;
    t.raw_seq.(i) <- t.c_seq;
    t.raw_n <- i + 1
  end

let leave t name =
  close t;
  commit t name

let reset t =
  Array.fill t.count 0 (Array.length t.count) 0;
  Array.fill t.total 0 (Array.length t.total) 0;
  Array.fill t.self 0 (Array.length t.self) 0;
  t.depth <- 0;
  t.raw_n <- 0;
  t.raw_from <- max_int;
  t.rmw <- 0;
  t.copied <- 0;
  t.mismatches <- 0;
  t.stalled <- 0

(* Median raw duration of an empty span on this domain; becomes the
   floor subtracted from every later span. *)
let calibrate t =
  t.floor <- 0;
  let n = 2001 in
  let d = Array.make n 0 in
  for i = 0 to n - 1 do
    enter t ~seq:0;
    close t;
    d.(i) <- t.c_dur
  done;
  Array.sort compare d;
  reset t;
  t.floor <- d.(n / 2)

(* Keep raw spans that start at or after [from] (until the buffer is
   full). *)
let record_raw_from t from = t.raw_from <- from

let merge a b =
  let t = create () in
  Array.iteri (fun i _ -> t.count.(i) <- a.count.(i) + b.count.(i)) t.count;
  Array.iteri (fun i _ -> t.total.(i) <- a.total.(i) + b.total.(i)) t.total;
  Array.iteri (fun i _ -> t.self.(i) <- a.self.(i) + b.self.(i)) t.self;
  t.rmw <- a.rmw + b.rmw;
  t.copied <- a.copied + b.copied;
  t.mismatches <- a.mismatches + b.mismatches;
  t.stalled <- a.stalled + b.stalled;
  t

let count t name = t.count.(name)

let mean_self t name =
  if t.count.(name) = 0 then 0.0
  else float_of_int t.self.(name) /. float_of_int t.count.(name)

let mean_total t name =
  if t.count.(name) = 0 then 0.0
  else float_of_int t.total.(name) /. float_of_int t.count.(name)

(* Raw spans as tab-separated lines: domain, id, name, start and end
   (ns since [origin]), parent id (-1 if outside the window) and the
   shared write seq.  Spans are stored in close order, so a span's
   parent is the first later span one level up. *)
let dump oc ~domain ~origin t =
  let n = t.raw_n in
  let parent = Array.make n (-1) in
  let open_at = Array.make (max_depth + 1) [] in
  for i = 0 to n - 1 do
    let d = t.raw_depth.(i) in
    List.iter (fun c -> parent.(c) <- i) open_at.(d + 1);
    open_at.(d + 1) <- [];
    open_at.(d) <- i :: open_at.(d)
  done;
  for i = 0 to n - 1 do
    Printf.fprintf oc "%s\t%d\t%s\t%d\t%d\t%d\t%d\n" domain i
      names.(t.raw_name.(i))
      (t.raw_start.(i) - origin)
      (t.raw_end.(i) - origin)
      parent.(i) t.raw_seq.(i)
  done
