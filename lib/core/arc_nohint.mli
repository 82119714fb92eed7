(** ARC with the §3.4 free-slot hint disabled — the ablation arm of
    experiment E5: {!Arc.Make} created with {!Arc.Fixed_no_hint}.
    Reads never post proposals and every write free-slot search is a
    linear scan (O(N) worst case, as the paper notes writes would be
    without the optimization). *)

val algorithm : string

module Make (M : Arc_mem.Mem_intf.S) : Arc.S with module Mem = M
