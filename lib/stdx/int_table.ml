(* Open-addressing int -> int table, the immediate-key twin of
   I64_table. Keys are non-negative packed identifiers (sid, (x, s)
   pairs, (s, x, w) triples), so -1 works as the empty-slot marker and
   the whole table is two unboxed int arrays — no Bytes occupancy plane,
   no boxing, no per-entry allocation. Used as the protocol's set and
   counter representation, where Hashtbl's per-probe hashing and
   per-add bucket cons dominate the delivery path. *)

type t = {
  mutable keys : int array;  (* -1 = empty slot *)
  mutable vals : int array;
  mutable mask : int;  (* capacity - 1 *)
  mutable count : int;
}

let initial_capacity = 16

let create ?(capacity = initial_capacity) () =
  let cap =
    let rec up c = if c >= capacity then c else up (2 * c) in
    up initial_capacity
  in
  { keys = Array.make cap (-1); vals = Array.make cap 0; mask = cap - 1; count = 0 }

let length t = t.count

(* Fibonacci multiplicative hashing: packed keys are field
   concatenations ((g lsl 13) lor w, (x lsl 13) lor sid), so a slot
   taken from the key's low bits would cluster on the low field. The
   product's bits 30 and up mix every key bit; the parentheses matter,
   since [lsr] binds tighter than [*]. *)
let slot_of key mask = (key * 0x9E3779B97F4A7C1) lsr 30 land mask

let rec probe keys key mask i =
  let k = Array.unsafe_get keys i in
  if k = key then i else if k = -1 then -1 - i else probe keys key mask ((i + 1) land mask)

let find_slot t key = probe t.keys key t.mask (slot_of key t.mask)

let mem t key = find_slot t key >= 0

let probe_length t key =
  let rec go i n =
    let k = Array.unsafe_get t.keys i in
    if k = key || k = -1 then n else go ((i + 1) land t.mask) (n + 1)
  in
  go (slot_of key t.mask) 1

let get_or t key ~default =
  let i = find_slot t key in
  if i >= 0 then Array.unsafe_get t.vals i else default

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  for i = 0 to Array.length old_keys - 1 do
    let key = old_keys.(i) in
    if key >= 0 then begin
      (* Keys are distinct, so the probe ends on a free slot; it is
         top-level, so rehashing allocates nothing but the two arrays. *)
      let j = -1 - find_slot t key in
      t.keys.(j) <- key;
      t.vals.(j) <- old_vals.(i)
    end
  done

let set t key v =
  if key < 0 then invalid_arg "Int_table.set: negative key";
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  let i = find_slot t key in
  if i >= 0 then t.vals.(i) <- v
  else begin
    let i = -1 - i in
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.count <- t.count + 1
  end

(* Set-flavoured entry points: [add] is first-insertion detection (the
   value plane is unused), [incr] is an in-place counter bump returning
   the new count. Both are single-probe on the hit path. *)

let add t key =
  if key < 0 then invalid_arg "Int_table.add: negative key";
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  let i = find_slot t key in
  if i >= 0 then false
  else begin
    let i = -1 - i in
    t.keys.(i) <- key;
    t.vals.(i) <- 0;
    t.count <- t.count + 1;
    true
  end

let incr t key =
  if key < 0 then invalid_arg "Int_table.incr: negative key";
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  let i = find_slot t key in
  if i >= 0 then begin
    let v = t.vals.(i) + 1 in
    t.vals.(i) <- v;
    v
  end
  else begin
    let i = -1 - i in
    t.keys.(i) <- key;
    t.vals.(i) <- 1;
    t.count <- t.count + 1;
    1
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  t.count <- 0

let reset t =
  t.keys <- Array.make initial_capacity (-1);
  t.vals <- Array.make initial_capacity 0;
  t.mask <- initial_capacity - 1;
  t.count <- 0

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    let key = Array.unsafe_get t.keys i in
    if key >= 0 then f key t.vals.(i)
  done
