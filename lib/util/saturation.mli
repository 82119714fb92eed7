(** The one typed saturation error of the repository (ISSUE 8).

    Every layer that detects synchronization state at a documented
    capacity bound — {!Packed.succ_count}'s packed-count overflow
    guard, the registers' post-increment presence checks, the
    admission gate's terminal backpressure — raises this exception
    with a message built by {!message}, so callers match one
    exception and operators read one diagnostic shape.

    Defined here (below every other library) so [Arc_util.Packed] can
    raise it without depending on the core library;
    [Arc_core.Register_intf] re-exports it as [Saturated] by exception
    rebinding, which is where almost all handlers refer to it. *)

exception Saturated of string

val message : who:string -> count:int -> bound:int -> string
(** ["<who>: presence count saturated (count = <count>, bound =
    <bound>)"] — the unified diagnostic shape. *)

val error : who:string -> count:int -> bound:int -> exn
val raise_saturated : who:string -> count:int -> bound:int -> 'a

val guard_count : who:string -> bound:int -> int -> unit
(** [guard_count ~who ~bound c] raises {!Saturated} when [c = 0] (a
    wrap that already happened: the increment carried out of the count
    field) or [c > bound] (this increment consumed the head-room unit
    above the documented capacity); otherwise returns unit.  The exact
    post-increment check [Arc] runs after R4. *)
