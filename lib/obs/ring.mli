(** Bounded trace ring of slot-state transitions, for post-mortem
    dumps.

    Recording costs one RMW (cursor claim) plus one atomic store of an
    immutable entry record — transitions are slow-path events (slot
    claims, freezes, reclaims, recoveries), never the §3.3 read fast
    path.  The ring retains the most recent [capacity] entries,
    overwriting older ones; a concurrent {!dump} returns only
    internally consistent entries (an entry is published with a single
    atomic store, so it can never be observed half-written). *)

type entry = { seq : int; at : int; code : int; a : int; b : int; c : int }

type t

val create : int -> t
(** [create capacity] — capacity is rounded up to a power of two. *)

val capacity : t -> int

val recorded : t -> int
(** Total entries ever recorded (may exceed capacity). *)

val record : t -> ?at:int -> code:int -> int -> int -> int -> unit
(** [record t ~at ~code a b c] claims the next ring slot and publishes
    the entry.  [at] is a caller-supplied timestamp (substrate clock,
    vsched step, or wall nanoseconds — the ring does not read clocks
    itself, so recording is deterministic under the virtual
    scheduler). *)

val dump : t -> entry list
(** Surviving entries, oldest first. *)

val clear : t -> unit

(** {1 Transition codes} — shared vocabulary across [Arc] (every
    storage policy) and the resilience layer.  The [a]/[b]/[c]
    operands per code are documented in [ring.ml]. *)

val code_slot_claim : int
val code_publish : int
val code_freeze : int
val code_reclaim : int
val code_realloc : int
val code_recover : int
val code_quarantine : int
val code_breaker_trip : int
val code_promote : int
val code_conviction : int

val code_name : int -> string
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
