(* Growable int array owned by one domain.  The storage is a bigarray,
   outside the OCaml heap: a run logs millions of ints, and as an
   ordinary array the major collector would mark every one of them,
   work that lands on the measuring domains and grows with the run. *)

open Bigarray

type buf = (int, int_elt, c_layout) Array1.t
type t = { mutable a : buf; mutable n : int }

let make n : buf =
  let a = Array1.create Int C_layout n in
  Array1.fill a 0;
  a

let create cap = { a = make (max 16 cap); n = 0 }
let length t = t.n

let reserve t i =
  if i >= Array1.dim t.a then begin
    let b = make (max (i + 1) (2 * Array1.dim t.a)) in
    Array1.blit (Array1.sub t.a 0 t.n) (Array1.sub b 0 t.n);
    t.a <- b
  end

let push t v =
  reserve t t.n;
  Array1.unsafe_set t.a t.n v;
  t.n <- t.n + 1

(* [set t i v] writes index [i], growing the vector to cover it. *)
let set t i v =
  reserve t i;
  Array1.unsafe_set t.a i v;
  if i >= t.n then t.n <- i + 1

let get t i = Array1.get t.a i

let to_array t = Array.init t.n (fun i -> Array1.unsafe_get t.a i)
