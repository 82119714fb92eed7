(** Anonymous Readers Counting — the paper's contribution (§3).

    A wait-free multi-word atomic (1,N) register using N+2 slots and a
    single packed synchronization word
    [current = ⟨index, count⟩] (see {!Arc_util.Packed}):

    - {b read} (Algorithm 2): load [current] (R1); if the slot index
      equals the reader's private [last_index], return the already
      subscribed slot with {e no RMW at all} (R2) — the fast path that
      differentiates ARC from RF.  Otherwise release the old slot with
      an atomic increment of its [r_end] (R3), subscribe to the
      current slot with [AtomicAddAndFetch (current, 1)] (R4), and
      remember it (R5).
    - {b write} (Algorithm 3): find a free slot — one that is not
      [last_slot] and has [r_start = r_end] (W1) — copy the new value
      into it, reset its counters, publish it with
      [AtomicExchange (current, ⟨slot, 0⟩)] (W2), and freeze the old
      slot's readers-presence count into its [r_start] (W3).
    - {b free-slot hint} (§3.4): a reader that observes
      [r_start = r_end] right after its R3 release posts the slot
      index as a proposal; the writer validates and consumes it,
      making the free-slot search O(1) amortized instead of O(N).

    Reads are O(1); a read performs 0 RMW on the fast path and 2 RMW
    (R3 + R4) otherwise.  Writes perform exactly 1 RMW (W2).

    Capacity: up to [2^32 - 2] concurrent readers (the packed count
    field keeps the paper's full 32 bits) and [2^31 - 1] slots.

    This is the only ARC implementation.  [arc-nohint]
    ({!Arc_nohint}) and [arc-dynamic] ({!Arc_dynamic}) are the same
    core created with a different {!policy}. *)

val algorithm : string

(** Storage and §3.4-hint policy, fixed at {!S.create_with}.  The
    synchronization protocol is identical under all three; only
    buffer sizing and the free-slot hint differ.

    - [Fixed] — the paper's register: N+2 buffers of [capacity] words
      allocated by [create], the §3.4 hint on.  No write ever calls
      [Mem.alloc], so a fixed register fits a pre-sized arena such as
      a shared-memory mapping.
    - [Fixed_no_hint] — [Fixed] with the hint disabled: readers never
      post proposals and every write's free-slot search is a linear
      scan (O(N) worst case).  The ablation arm of experiment E5.
    - [Sized] — the §3.3 implementation note: "in any real
      implementation of our register algorithm, dynamic buffer
      allocation/release, with each buffer made up by the amount of
      bytes fitting the size of the register value to be stored upon
      write operations could be employed."  A write replaces the free
      target slot's buffer with an exactly-sized one when the new
      length exceeds it or is under half of it (grow always, shrink
      with hysteresis); readers still holding a view of the previous
      buffer keep it alive through the GC.  Empty slots start with
      zero-word buffers, so N+2 buffers of the {e maximum} size become
      N+2 buffers near their actual sizes.  Sized storage also
      supports crash-tolerant storage reclaim ({!S.reclaim_stale}):
      the storage (never the presence accounting) of a slot
      superseded more than a lease of writes ago yet still pinned is
      revoked — its [size] marked [-1], its buffer replaced by an
      empty one.  Readers validate [size] on both sides of reading the
      buffer when they subscribe, so a reader racing a revocation
      releases and re-subscribes instead of returning reclaimed
      storage.  That retry is the one departure from strict
      per-operation wait-freedom, and it can only trigger when a
      reader rests between subscription and validation for an entire
      lease of writes. *)
type policy = Fixed | Fixed_no_hint | Sized

(** The full ARC register module — {!Register_intf.ZERO_COPY} and
    {!Register_intf.FENCEABLE} plus the white-box surface.  Named so
    that consumers holding a register built over a {e runtime}-chosen
    substrate (e.g. a first-class [Mem_intf.S] over an mmap'd file,
    {!Arc_shm.Shm_mem.mem}) can still package the functor result:
    [(module Arc.S with type Mem.atomic = ...)]. *)
module type S = sig
  include Register_intf.ZERO_COPY
  (** [read_view] is the pinned zero-copy read: the view stays stable
      until this same reader's {e next} read (the slot cannot be
      recycled while this reader's presence is accounted on it). *)

  val read_stamped : reader -> f:(Mem.buffer -> int -> 'a) -> int * 'a
  (** {!Register_intf.STAMPED}: [read_with] returning additionally the
      publish stamp of the snapshot — one extra plain load of the
      pinned slot's stamp word. *)

  val probe_stamp : t -> int
  (** {!Register_intf.STAMPED}: the stamp of the currently published
      value in two plain loads (synchronization word, then that slot's
      stamp), no RMW, callable from any thread.  Stamps are strictly
      increasing over the writer role (resynced across failover by
      {!recover_crash}), so equality with a previously collected stamp
      certifies the register still publishes the collected value; a
      probe racing a recycle can read a {e newer} stamp — a spurious
      mismatch — but never an older one. *)

  val read_plain : reader -> f:(Mem.buffer -> int -> 'a) -> 'a
  (** R2' (ROADMAP item 2a): the validated copy-free plain-load read.
      Runs [f] directly on the {e currently published} slot bracketed
      by the slot's begin/end publish stamps (stored by the writer
      around the content copy, seqlock-style), skipping even the
      [last_index] comparison and the presence machinery.  On a stamp
      mismatch — a write overlapped the scan — it falls back to
      {!S.read_with} exactly once (never a retry loop), so
      wait-freedom is preserved: worst case one wasted scan plus one
      classic read.

      When the packed synchronization word still equals the one this
      handle cached at its last subscription, the scan and validation
      are skipped entirely and the pinned cached view is returned (the
      subscribed slot is presence-pinned, hence immutable) — one load
      per read at steady state in a mixed hold loop.

      The subscription pin of [rd] is untouched by a validated R2'
      read; mixing {!read_plain} and {!S.read_with} on one handle
      stays atomic (a validated plain value is always at least as new
      as the pinned one, and a later classic read resubscribes past
      it).

      [f] may run on a torn view whose result is then discarded: it
      must be pure and total on arbitrary word contents, exactly like
      a seqlock read section, and must not retain the buffer. *)

  val create_with : policy -> readers:int -> capacity:int -> init:int array -> t
  (** Like {!create} (which is [create_with Fixed]) but choosing the
      storage and hint {!policy}. *)

  val write_guarded : t -> guard:(unit -> unit) -> src:int array -> len:int -> unit
  (** {!Register_intf.FENCEABLE}: [write] with [guard ()] run between
      the content copy and the W2 publish exchange.  A raising guard
      aborts the write with nothing published (the prepared slot stays
      free with counters 0/0) — the epoch-fence hook of
      [Arc_resilience.Fenced]. *)

  val recover_crash : t -> int
  (** {!Register_intf.FENCEABLE}: successor-writer recovery after a
      failover.  A writer that crashed between its W2 publish and the
      W3 supersede-freeze leaves the superseded slot's subscriber
      count recorded nowhere (it lived in the synchronization word the
      exchange replaced), so the slot can look free while readers are
      still on it.  Every write journals that slot index before
      publishing; [recover_crash] quarantines the journaled slot
      (returning 1) or is a no-op on a clean journal (returning 0),
      and re-establishes the writer-local [last_slot] invariant.  A
      quarantined slot is a permanent but bounded leak — at most one
      per writer crash — paid for by over-provisioning reader
      identities (each unused identity is a net spare slot, keeping
      Lemma 4.1 strict).  Writer-role only, to be called once when
      taking over the role. *)

  val quarantine : t -> int -> unit
  (** {!Register_intf.FENCEABLE}: retire a slot convicted by evidence
      {e outside} the register's own journal — an integrity layer
      (checksum scan of a crash-recovered mapping) finding a torn
      content copy.  Idempotent; writer-role only; same bounded-leak
      accounting as {!recover_crash}.
      @raise Invalid_argument if the slot index is out of range. *)

  val write_probes : t -> int
  (** Total slots examined by all {!write} free-slot searches so far
      (writer-thread view).  With the hint enabled this grows as
      O(1) per write; without it as O(N) in adverse cases — the
      measured quantity of experiment E5. *)

  val writes : t -> int
  (** Number of completed writes (writer-thread view). *)

  val write_coalesced :
    t -> max_pending:int -> max_staleness:int -> src:int array -> len:int -> unit
  (** Write coalescing (ROADMAP item 2b): absorb the write into a
      writer-private staging buffer (latest value wins) and publish
      the batch with {e one} W2 exchange and one slot copy once
      [max_pending] writes are pending.  Readers observe the
      bounded-staleness contract ({!Arc_trace.Checker}'s
      [check_bounded_staleness] / [check_coalesced]): a published
      value lags the newest absorbed write by fewer than [max_pending]
      writes, and [max_pending <= max_staleness] is enforced here so
      every batch respects the declared staleness bound.  The final
      write of a burst is pending until {!flush_coalesced} (or a
      direct {!S.write}, which absorbs and supersedes the staged
      batch) — callers must flush at burst end or the tail write is
      never published.  Writer-thread only.
      @raise Invalid_argument if [max_pending < 1],
      [max_staleness < max_pending], or the length is invalid. *)

  val flush_coalesced : t -> unit
  (** Publish the staged batch now, if any — one classic write.
      Writer-thread only; a no-op with nothing pending. *)

  val pending_writes : t -> int
  (** Writes currently absorbed but not yet published. *)

  val coalesced_batches : t -> int
  (** Batches published so far (by flush, threshold, or a superseding
      direct write). *)

  val coalesced_absorbed : t -> int
  (** Total writes absorbed by {!write_coalesced} so far. *)

  val max_coalesced_batch : t -> int
  (** Largest batch published so far — the property-test bound:
      must never exceed the [max_staleness] passed to the absorbing
      writes. *)

  val footprint_words : t -> int
  (** Total words currently allocated across all slot buffers:
      [(N+2)·capacity] for fixed storage. *)

  val live_buffers : t -> int
  (** Slots currently holding non-empty storage.  With reclaim active
      this stays within N + 2 for the {e admitted} reader population
      N, however many readers have come and gone; the churn soak
      tracks it against the admission gate's capacity. *)

  val reallocations : t -> int
  (** Buffer replacements performed by writes so far (always 0 for
      fixed storage). *)

  val reclaim_stale : t -> lease:int -> int
  (** [reclaim_stale t ~lease] revokes the storage of every slot that
      was superseded more than [lease] writes ago and is still pinned
      by reader presence — the signature of a crashed or stalled
      reader.  Returns the number of slots revoked by this call.
      Writer-thread only.
      @raise Invalid_argument if [lease < 0] or the storage is not
      [Sized]. *)

  val set_lease : t -> int option -> unit
  (** [set_lease t (Some l)] makes every [l]-th write run
      [reclaim_stale ~lease:l] automatically; [None] (the default)
      disables auto-reclaim.  Writer-thread only.
      @raise Invalid_argument if [l < 1] or the storage is not
      [Sized]. *)

  val reclaimed : t -> int
  (** Total slots whose storage has been revoked so far. *)

  (** {2 Telemetry (ISSUE 5)}

      Always-on wait-free observability.  All counters are host-heap
      {!Arc_obs.Obs.Cell}s — plain single-writer words outside the
      memory substrate — so recording adds {e no} substrate
      operations: nothing for {!Arc_mem.Counting} to charge to the
      algorithm, no scheduling points under the virtual scheduler
      (attaching telemetry changes no checker-visible history), and no
      RMW or fence on the R2 read fast path (the fast-path hit marker
      is a plain increment of the reader's private cache-line-isolated
      cell).  With no telemetry attached, every hook is a single
      [None] branch. *)

  type telemetry

  val make_telemetry :
    ?ring:int -> ?clock:(unit -> int) -> readers:int -> unit -> telemetry
  (** [ring] bounds the slot-transition trace (default 256 entries,
      rounded up to a power of two); [clock] supplies ring timestamps
      (default constant 0 — pass the substrate clock or a wall-time
      reader as appropriate; it must itself be observation-free). *)

  val set_telemetry : t -> telemetry option -> unit
  (** Attach {e before} creating reader handles: a handle resolves its
      per-identity counter cells once, at {!reader} time; handles
      created earlier never record. *)

  val telemetry : t -> telemetry option

  val fast_reads : telemetry -> int
  (** Total reads served on the RMW-free R2 fast path (racy sum over
      per-reader cells; exact once readers are joined). *)

  val slow_reads : telemetry -> int
  (** Total reads that paid the R3+R4 RMW pair.  [fast_reads +
      slow_reads] = total reads by telemetry-carrying handles. *)

  val hint_hits : telemetry -> int
  (** §3.4 free-slot proposals accepted by W1 searches. *)

  val plain_reads : telemetry -> int
  (** Reads served by a validated R2' plain load ({!read_plain}). *)

  val plain_fallbacks : telemetry -> int
  (** R2' attempts that failed validation and fell back to the classic
      path (those reads are additionally counted fast or slow by the
      fallback itself). *)

  val metrics : t -> Arc_obs.Obs.metric list
  (** Register counters (writes, probes, quarantined, storage
      reallocations, reclaims and footprint, coalescing) plus — when
      telemetry is attached — per-reader fast/slow read counters, hint
      hits and trace-ring depth, ready for
      {!Arc_obs.Obs.prometheus}/{!Arc_obs.Obs.json}. *)

  val trace : t -> Arc_obs.Ring.entry list
  (** Surviving slot-state transitions, oldest first ([] when no
      telemetry is attached). *)

  (** White-box access for tests: the §4 lemmas as executable
      checks. *)
  module Debug : sig
    val slots : t -> int
    val current : t -> int
    (** Packed ⟨index, count⟩ word; decode with {!Arc_util.Packed}. *)

    val r_start : t -> int -> int
    val r_end : t -> int -> int
    val slot_size : t -> int -> int

    val slot_seq : t -> int -> int
    val slot_seq_end : t -> int -> int
    (** The R2' begin/end publish stamps of a slot; equal exactly when
        the slot's content is a complete write. *)

    val presence_slack : t -> int
    (** [readers - (Σ_j (r_start(j) - r_end(j)) + count(current))] —
        the presence units missing from Lemma 4.1's ledger.  0 in any
        quiescent live state.  Under crash-stop readers, each crash
        can leak at most one unit (a reader that died between its R3
        release and R4 subscribe), so a valid quiescent state has
        slack in [0, crashed readers]; negative slack means presence
        was double-counted (e.g. a lost release increment).
        Quiescent-state check (call while no operation is in
        flight). *)

    val presence_bound_holds : t -> bool
    (** [presence_slack t = 0] — Lemma 4.1's ledger balanced exactly,
        the crash-free quiescent invariant. *)

    val free_slot_exists : t -> bool
    (** Lemma 4.1: at least one slot other than the published one has
        [r_start = r_end].  Quiescent-state check; must keep holding
        under any number of crash-stop readers (N readers pin at most
        N of the N+2 slots). *)

    val force_current : t -> int -> unit
    (** Test-only: overwrite the packed synchronization word, e.g. to
        place the count at the saturation boundary and exercise the
        {!Register_intf.Saturated} guard. *)

    val unvalidated_plain : reader -> f:(Mem.buffer -> int -> 'a) -> 'a
    (** Negative control for the R2' tests: the plain scan with the
        stamp validation deliberately skipped.  Under a schedule that
        overlaps a write it returns torn views — the payload checker
        must convict it, proving the validation in {!read_plain} is
        load-bearing.  Never use outside tests. *)
  end
end

module Make (M : Arc_mem.Mem_intf.S) : S with module Mem = M
