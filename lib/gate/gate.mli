(** Perf-gate decision logic (ISSUE 10 satellite: the gate against an
    empty trajectory used to pass silently).

    Pure string-level evaluation: the caller reads the bench files and
    the trajectory's last line, {!evaluate} returns the entry to append
    and the verdicts, and the caller does the IO and picks the exit
    code.  Keeping the decision pure is what makes the empty-trajectory
    regression testable from the tier-1 suite — the previous
    implementation buried it in [bin/perf_gate.ml] where nothing could
    assert on it.

    The JSON handling is deliberately string-level: every input is
    written by this repository's own emitters with known key spelling,
    and the toolchain has no JSON library to depend on. *)

val field_of : key:string -> string -> float option
(** Number following the quoted key and its colon — first occurrence,
    [None] if absent. *)

val keys_with_prefix : prefix:string -> string -> string list
(** All distinct JSON keys starting with [prefix], in order of first
    occurrence — how the gate discovers which core counts a scaling
    bench measured ([read_hit_ns@2], [read_hit_ns@4], ...). *)

val copy_ceiling : float
(** 1.0 ns per word: the absolute bound on the 4KB heap payload copy
    ([copy_ns_per_word] of the heap [copy] row in BENCH_shm.json).  A
    memmove copy measures about 0.1 ns/word and the GC-barrier
    [Array.blit] path 2–6, so the bound judges the code, not the
    runner. *)

type verdict =
  | Within of { metric : string; value : float; baseline : float; limit : float }
      (** Compared against the trajectory and inside the budget. *)
  | Regression of { metric : string; value : float; baseline : float; limit : float }
  | Baseline_recorded of { metric : string; value : float }
      (** No prior value for this metric in the trajectory — nothing
          compared, the appended entry seeds it. *)
  | Ceiling_ok of { metric : string; value : float; ceiling : float }
  | Ceiling_exceeded of { metric : string; value : float; ceiling : float }
      (** Absolute-bound checks (trajectory-independent): the R2'
          plain-load read must stay below the pre-R2' classic-path
          cost it exists to beat, and the heap payload copy below
          {!copy_ceiling}. *)

val pp_verdict : Format.formatter -> verdict -> unit

type report = {
  entry : string;
      (** The JSON object (one line, no trailing newline) to append to
          the trajectory. *)
  verdicts : verdict list;
  compared : int;  (** Trajectory-baseline comparisons actually made. *)
  failures : int;  (** Regressions plus ceiling violations. *)
  seeded : bool;
      (** No usable prior entry: this run seeds the baseline.  The
          caller must say so and exit non-zero — a gate that compared
          nothing must never report green (the ISSUE 10 bugfix). *)
}

val evaluate :
  bench:string ->
  ?fabric:string ->
  ?scaling:string ->
  ?shm:string ->
  ?prior:string ->
  threshold:float ->
  ?ceiling:float ->
  label:string ->
  date:string ->
  unit ->
  (report, string) result
(** [evaluate ~bench ?fabric ?scaling ?shm ?prior ~threshold ?ceiling
    ~label ~date ()] judges one gate invocation.

    [bench] is the full BENCH_arc.json text (must carry
    [read_hit_ns_off], [read_hit_ns_on], [overhead_pct]; optionally
    [read_plain_ns] and [reader_join_p99_ns]).  [fabric] is
    BENCH_fabric.json when present ([snapshot_ns_per_shard] required
    in it).  [scaling] is BENCH_scaling.json when present; every
    [read_hit_ns@N] / [read_plain_ns@N] key found is tracked and
    gated per core count.  [shm] is BENCH_shm.json when present; its
    4KB heap copy row is required and held under {!copy_ceiling}.
    [prior] is the last non-empty trajectory line, if any.
    [threshold] is the allowed regression in percent; [ceiling] the
    absolute bound on [read_plain_ns].

    [Error msg] means malformed input (missing required field). *)
