(** The payload-copy primitive: a barrier-free word copy between
    [int array]s.

    [Array.blit] on a major-heap array cannot know that its elements
    are immediates, so OCaml 5's runtime copies it one [caml_modify]
    at a time — the GC write barrier paid on every word of a register
    snapshot.  An [int array] holds no pointers: no value it holds or
    overwrites needs darkening or a remembered-set entry, which is why
    compiled stores to an [int array] are plain stores too.  {!blit}
    therefore copies with one [memmove]. *)

val blit : int array -> int -> int array -> int -> int -> unit
(** [blit src src_pos dst dst_pos len] copies [len] words from [src]
    starting at [src_pos] into [dst] starting at [dst_pos], with
    [Array.blit]'s semantics: [src] and [dst] may be the same array
    and the ranges may overlap.  The copy is not atomic, and neither
    is any single word of it against a concurrent writer; a racing
    reader must validate what it copied.
    @raise Invalid_argument if [len] or either position is negative,
    or a range runs past its array.  Nothing is copied then. *)
