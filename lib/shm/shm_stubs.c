/* Atomic word operations on an mmap'd Bigarray — the machine-level
 * substrate of Shm_mem.
 *
 * OCaml 5's [Atomic] only covers heap cells, so a register shared
 * between OS processes through a mapped file needs its
 * synchronization words accessed with real hardware atomics on the
 * mapping itself.  These stubs apply the GCC/Clang __atomic builtins
 * to naturally aligned machine words inside a Bigarray of kind
 * [Bigarray.int] (one untagged word per element, so OCaml ints
 * round-trip exactly).
 *
 * Memory orders: RMW operations are SEQ_CST — they are the
 * synchronization instructions of the paper's algorithms (W2
 * exchange, R3/R4 presence counters) and their cost asymmetry versus
 * plain accesses is the point being measured.  Plain load/store are
 * ACQUIRE/RELEASE: on x86-TSO they compile to bare MOVs, which is
 * exactly the "plain load/store" cost model of the paper (§3.3),
 * while still providing the publish/subscribe ordering the
 * correctness argument needs (writer's payload stores happen-before
 * the RELEASE/RMW publish; a reader's ACQUIRE/RMW subscribe
 * happens-before its payload loads).
 *
 * None of these allocate, raise, or call back into the runtime, so
 * they are declared [@@noalloc] on the OCaml side.  The mapping is
 * page-aligned (mmap) and cells are word-indexed, so every access is
 * naturally aligned.
 */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

static inline intnat *cell(value ba, value idx)
{
  return ((intnat *) Caml_ba_data_val(ba)) + Long_val(idx);
}

CAMLprim value arc_shm_load(value ba, value idx)
{
  return Val_long(__atomic_load_n(cell(ba, idx), __ATOMIC_ACQUIRE));
}

CAMLprim value arc_shm_store(value ba, value idx, value v)
{
  __atomic_store_n(cell(ba, idx), Long_val(v), __ATOMIC_RELEASE);
  return Val_unit;
}

CAMLprim value arc_shm_exchange(value ba, value idx, value v)
{
  return Val_long(
      __atomic_exchange_n(cell(ba, idx), Long_val(v), __ATOMIC_SEQ_CST));
}

CAMLprim value arc_shm_fetch_add(value ba, value idx, value v)
{
  return Val_long(
      __atomic_fetch_add(cell(ba, idx), Long_val(v), __ATOMIC_SEQ_CST));
}

CAMLprim value arc_shm_cas(value ba, value idx, value expected, value desired)
{
  intnat exp = Long_val(expected);
  return Val_bool(__atomic_compare_exchange_n(
      cell(ba, idx), &exp, Long_val(desired), 0 /* strong */,
      __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST));
}

CAMLprim value arc_shm_fetch_or(value ba, value idx, value v)
{
  return Val_long(
      __atomic_fetch_or(cell(ba, idx), Long_val(v), __ATOMIC_SEQ_CST));
}

CAMLprim value arc_shm_fetch_and(value ba, value idx, value v)
{
  return Val_long(
      __atomic_fetch_and(cell(ba, idx), Long_val(v), __ATOMIC_SEQ_CST));
}

/* Bulk word copies between OCaml [int array]s (tagged words) and the
 * mapping (untagged words).  A register write's single content copy
 * runs as one C loop — memcpy cannot be used directly because the
 * representations differ by the tag bit, but the loop touches each
 * destination cache line once, preserving Real_mem's bulk-operation
 * cost model.  Plain (non-atomic) accesses: buffer words are the
 * paper's multi-word data, ordered by the RELEASE/RMW publication
 * protocol, not individually synchronized.  Offsets and lengths are
 * checked on the OCaml side (Shm_mem.mem). */

/* Shm_layout.cksum_prime. */
#define ARC_CKSUM_PRIME ((uintnat) 0x100000001b3)

/* The write copy also runs the checksum chain Shm_layout.cksum_mix
 * ([acc] = (acc lxor w) * prime) over the words it copies, starting
 * from [acc], so the payload is scanned once.  Unsigned arithmetic
 * wraps without undefined behaviour, and its low 63 bits — all that
 * Val_long keeps — are exactly OCaml's 63-bit result. */
CAMLprim value arc_shm_write_words(value ba, value off, value src, value len,
                                   value acc)
{
  intnat *dst = cell(ba, off);
  intnat n = Long_val(len);
  uintnat c = (uintnat) Long_val(acc);
  for (intnat i = 0; i < n; i++) {
    intnat w = Long_val(Field(src, i));
    dst[i] = w;
    c = (c ^ (uintnat) w) * ARC_CKSUM_PRIME;
  }
  return Val_long((intnat) c);
}

CAMLprim value arc_shm_read_words(value ba, value off, value dst, value len)
{
  intnat *src = cell(ba, off);
  intnat n = Long_val(len);
  /* dst is an [int array]: immediate fields, no write barrier needed. */
  for (intnat i = 0; i < n; i++) Field(dst, i) = Val_long(src[i]);
  return Val_unit;
}

CAMLprim value arc_shm_blit(value ba, value src_off, value dst_off, value len)
{
  intnat *base = (intnat *) Caml_ba_data_val(ba);
  memmove(base + Long_val(dst_off), base + Long_val(src_off),
          Long_val(len) * sizeof(intnat));
  return Val_unit;
}
