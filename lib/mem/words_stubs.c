/* The body of Words.blit: one memmove between two [int array]s.
 *
 * Every element is an immediate, so no stored or overwritten value is
 * a pointer the GC must hear about (no darkening, no remembered-set
 * entry) and plain stores are what compiled OCaml code emits for an
 * [int array] too.  Bounds are checked on the OCaml side; the stub
 * neither allocates nor raises, hence [@@noalloc].  [Field] yields a
 * volatile lvalue, so its address is cast back to a plain pointer. */

#include <string.h>
#include <caml/mlvalues.h>

CAMLprim value arc_words_blit(value src, value src_pos, value dst,
                              value dst_pos, value len)
{
  memmove((value *) &Field(dst, Long_val(dst_pos)),
          (value *) &Field(src, Long_val(src_pos)),
          Long_val(len) * sizeof(value));
  return Val_unit;
}
