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
