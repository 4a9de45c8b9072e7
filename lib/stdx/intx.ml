let ilog2 n =
  if n <= 0 then invalid_arg "Intx.ilog2: non-positive argument";
  let rec loop acc n = if n <= 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

let ceil_log2 n =
  if n <= 0 then invalid_arg "Intx.ceil_log2: non-positive argument";
  let l = ilog2 n in
  if 1 lsl l = n then l else l + 1

let isqrt n =
  if n < 0 then invalid_arg "Intx.isqrt: negative argument";
  if n < 2 then n
  else begin
    (* Newton iteration on integers; converges in a few steps. *)
    let x = ref n in
    let y = ref ((!x + 1) / 2) in
    while !y < !x do
      x := !y;
      y := (!x + (n / !x)) / 2
    done;
    !x
  end

let pow base e =
  if e < 0 then invalid_arg "Intx.pow: negative exponent";
  let rec loop acc base e =
    if e = 0 then acc
    else if e land 1 = 1 then loop (acc * base) (base * base) (e asr 1)
    else loop acc (base * base) (e asr 1)
  in
  loop 1 base e

let cdiv a b =
  if b <= 0 then invalid_arg "Intx.cdiv: non-positive divisor";
  (a + b - 1) / b

(* The annotation is what makes the comparisons integer ones: the .mli
   type alone leaves the compiled body polymorphic (caml_lessthan). *)
let clamp ~lo ~hi (x : int) = if x < lo then lo else if x > hi then hi else x

(* The stdlib's hash of an int (runtime/hash.c: one MurmurHash3 mix of
   the tagged value with seed 0, the final avalanche, then the low 30
   bits), written out on unboxed ints so a hot path can bucket like a
   [Hashtbl] without the polymorphic caml_hash C call. On 64-bit the
   runtime first folds the tagged word d = 2v + 1 to 32 bits as
   (d asr 32) lxor (d asr 63) lxor d; bits 32..63 of d are bits 31..62
   of v. *)
let hash_int (v : int) =
  let m32 = 0xFFFF_FFFF in
  let rotl x r = ((x lsl r) lor (x lsr (32 - r))) land m32 in
  let d = ((v asr 31) lxor (v asr 62) lxor ((v lsl 1) lor 1)) land m32 in
  let d = rotl (d * 0xcc9e2d51 land m32) 15 * 0x1b873593 land m32 in
  let h = rotl d 13 in
  let h = ((h * 5) + 0xe6546b64) land m32 in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land m32 in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land m32 in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF
