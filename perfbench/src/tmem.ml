(* The traced run's memory substrate: any [Mem_intf.S] instance with
   its RMW instructions counted and its bulk copies timed, in the style
   of [Arc_mem.Counting].  Counts and copy spans go to the calling
   domain's {!Span} recorder.  Plain loads, stores and single-word
   reads pass straight through, so validating a payload in place costs
   the same as on the untraced substrate.  The fetch-or/and emulations
   are charged one RMW per call, not per CAS retry. *)

module Make (M : Arc_mem.Mem_intf.S) :
  Arc_mem.Mem_intf.S with type atomic = M.atomic and type buffer = M.buffer =
struct
  include M

  let name = "traced(" ^ M.name ^ ")"

  let rmw () =
    let sp = Span.local () in
    sp.Span.rmw <- sp.Span.rmw + 1

  let exchange a v =
    rmw ();
    M.exchange a v

  let add_and_fetch a k =
    rmw ();
    M.add_and_fetch a k

  let fetch_and_add a k =
    rmw ();
    M.fetch_and_add a k

  let incr a =
    rmw ();
    M.incr a

  let compare_and_set a old v =
    rmw ();
    M.compare_and_set a old v

  let fetch_and_or a mask =
    rmw ();
    M.fetch_and_or a mask

  let fetch_and_and a mask =
    rmw ();
    M.fetch_and_and a mask

  let copy len f =
    let sp = Span.local () in
    Span.enter_child sp;
    f ();
    Span.leave sp Span.mem_copy;
    sp.Span.copied <- sp.Span.copied + len

  let write_words buf ~src ~len = copy len (fun () -> M.write_words buf ~src ~len)
  let read_words buf ~dst ~len = copy len (fun () -> M.read_words buf ~dst ~len)
  let blit src dst ~len = copy len (fun () -> M.blit src dst ~len)
end
