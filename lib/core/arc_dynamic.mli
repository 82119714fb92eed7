(** ARC with exactly-sized, reclaimable slot buffers — the §3.3
    implementation note: {!Arc.Make} created with {!Arc.Sized}.
    Identical synchronization to {!Arc}; see {!Arc.policy} for the
    buffer management, and {!Arc.S.reclaim_stale} / {!Arc.S.set_lease}
    for the crash-tolerant storage reclaim. *)

val algorithm : string

module Make (M : Arc_mem.Mem_intf.S) : Arc.S with module Mem = M
