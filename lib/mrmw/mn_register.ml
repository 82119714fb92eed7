module Make (A : Arc_core.Register_intf.ALGORITHM) (M : Arc_mem.Mem_intf.S) = struct
  module R = A.Make (M)

  (* Snapshot layout in each sub-register: word 0 = timestamp, word 1
     = writer id, words 2.. = the value. *)
  let header = 2

  type t = {
    subs : R.t array;  (* one (1, writers-1+readers) register per writer *)
    writers : int;
    readers : int;
    capacity : int;
  }

  type writer = {
    reg : t;
    id : int;
    peers : R.reader array;  (* handle into every other writer's sub-register *)
    buf : int array;  (* staging: header + value *)
    mutable own_ts : int;
  }

  type reader = {
    handles : R.reader array;  (* one handle per sub-register *)
    scratch : int array;
    mutable scratch_len : int;  (* value words currently in scratch *)
    mutable last_ts : int;
    mutable last_wid : int;
  }

  (* Handle-identity layout inside sub-register w: other writers take
     identities 0..writers-2 (writer v compressed by skipping w),
     readers take writers-1..writers-2+readers. *)
  let writer_handle_id ~owner ~peer = if peer < owner then peer else peer - 1
  let reader_handle_id t r = t.writers - 1 + r

  let create ~writers ~readers ~capacity ~init =
    if writers < 1 then invalid_arg "Mn_register.create: need at least one writer";
    if readers < 1 then invalid_arg "Mn_register.create: need at least one reader";
    if capacity < 1 then invalid_arg "Mn_register.create: capacity must be positive";
    if Array.length init > capacity then invalid_arg "Mn_register.create: init too long";
    let sub_readers = writers - 1 + readers in
    (match R.caps.Arc_core.Register_intf.max_readers ~capacity_words:(capacity + header) with
    | Some bound when sub_readers > bound ->
      invalid_arg
        (Printf.sprintf
           "Mn_register.create: %d subscribers exceed %s's bound of %d" sub_readers
           R.algorithm bound)
    | _ -> ());
    let sub_init = Array.make (header + Array.length init) 0 in
    (* ts = 0, writer id 0: everyone agrees on the initial value. *)
    Arc_mem.Words.blit init 0 sub_init header (Array.length init);
    let subs =
      Array.init writers (fun _ ->
          R.create ~readers:sub_readers ~capacity:(capacity + header) ~init:sub_init)
    in
    { subs; writers; readers; capacity }

  let writer t id =
    if id < 0 || id >= t.writers then
      invalid_arg "Mn_register.writer: identity out of range";
    let peer_ids = List.filter (( <> ) id) (List.init t.writers Fun.id) in
    let peers =
      Array.of_list
        (List.map
           (fun peer -> R.reader t.subs.(peer) (writer_handle_id ~owner:peer ~peer:id))
           peer_ids)
    in
    { reg = t; id; peers; buf = Array.make (header + t.capacity) 0; own_ts = 0 }

  let reader t id =
    if id < 0 || id >= t.readers then
      invalid_arg "Mn_register.reader: identity out of range";
    {
      handles = Array.map (fun sub -> R.reader sub (reader_handle_id t id)) t.subs;
      scratch = Array.make t.capacity 0;
      scratch_len = 0;
      last_ts = 0;
      last_wid = 0;
    }

  let timestamp_of buffer = M.read_word buffer 0

  let write w ~src ~len =
    if len < 0 || len > Array.length src then invalid_arg "Mn_register.write: bad length";
    if len > w.reg.capacity then invalid_arg "Mn_register.write: exceeds capacity";
    let max_ts = ref w.own_ts in
    Array.iter
      (fun peer ->
        let ts = R.read_with peer ~f:(fun buffer _len -> timestamp_of buffer) in
        if ts > !max_ts then max_ts := ts)
      w.peers;
    let ts = !max_ts + 1 in
    w.buf.(0) <- ts;
    w.buf.(1) <- w.id;
    Arc_mem.Words.blit src 0 w.buf header len;
    R.write w.reg.subs.(w.id) ~src:w.buf ~len:(header + len);
    w.own_ts <- ts

  (* Two writers can legitimately publish {e equal} timestamps (both
     collect before either publishes, picking the same [1 + max]), so
     ⟨ts, writer-id⟩ is the register's logical clock: the writer id is
     the tie-break that makes the winner schedule-independent.  A
     timestamp-alone comparison leaves equal-ts writes unordered and
     readers may disagree on the winner — the conviction target of the
     [read_into_ts_only] negative control below. *)
  let beats ~ts ~wid ~best_ts ~best_wid =
    ts > best_ts || (ts = best_ts && wid > best_wid)

  let collect rd ~keep =
    let best_ts = ref (-1) and best_wid = ref (-1) in
    rd.scratch_len <- 0;
    Array.iter
      (fun handle ->
        R.read_with handle ~f:(fun buffer len ->
            let ts = M.read_word buffer 0 in
            let wid = M.read_word buffer 1 in
            if keep ~ts ~wid ~best_ts:!best_ts ~best_wid:!best_wid then begin
              best_ts := ts;
              best_wid := wid;
              let value_len = len - header in
              for i = 0 to value_len - 1 do
                rd.scratch.(i) <- M.read_word buffer (header + i)
              done;
              rd.scratch_len <- value_len
            end))
      rd.handles;
    rd.last_ts <- !best_ts;
    rd.last_wid <- !best_wid

  let finish rd ~dst =
    if Array.length dst < rd.scratch_len then
      invalid_arg "Mn_register.read_into: dst too short";
    Arc_mem.Words.blit rd.scratch 0 dst 0 rd.scratch_len;
    rd.scratch_len

  let read_into rd ~dst =
    (* Collect all sub-registers, keeping the snapshot with the
       lexicographically largest ⟨ts, writer-id⟩; the copy happens
       inside read_with, the only window in which the snapshot is
       guaranteed stable. *)
    collect rd ~keep:beats;
    finish rd ~dst

  (* Negative control: the broken comparison the tie-break exists to
     rule out.  Keeps the {e first} maximal timestamp scanned, so the
     winner among equal-ts writes depends on sub-register order and
     publish timing — the vsched regression convicts it by finding a
     schedule where a reader's ⟨ts, wid⟩ sequence goes backwards. *)
  let read_into_ts_only rd ~dst =
    collect rd ~keep:(fun ~ts ~wid:_ ~best_ts ~best_wid:_ -> ts > best_ts);
    finish rd ~dst

  let last_timestamp rd = rd.last_ts
  let last_writer rd = rd.last_wid
end
