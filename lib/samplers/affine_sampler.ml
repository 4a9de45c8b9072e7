open Fba_stdx

type t = { n : int; d : int; stride : int }

let create ~n ~d ~stride =
  if d < 1 || d > n then invalid_arg "Affine_sampler.create: need 1 <= d <= n";
  if stride < 1 || stride >= n then invalid_arg "Affine_sampler.create: need 1 <= stride < n";
  { n; d; stride }

let quorum_sx t ~s ~x =
  let base = Hash64.to_range (Hash64.hash_string ~seed:0x1234L s) t.n in
  (* The progression may revisit residues when gcd(stride, n) is large;
     collect distinct members by walking until d are found (always
     terminates within n steps since consecutive offsets differ). *)
  let out = Array.make t.d (-1) in
  let filled = ref 0 in
  let k = ref 0 in
  while !filled < t.d do
    let v = (base + x + (!k * t.stride) + !k) mod t.n in
    incr k;
    if not (Sampler.mem_range out v 0 !filled) then begin
      out.(!filled) <- v;
      incr filled
    end
  done;
  out

let count_seized t quorums corrupted =
  let majority = Sampler.majority_threshold t.d in
  let seized = ref 0 in
  Array.iter (fun q -> if Bitset.count_in corrupted q >= majority then incr seized) quorums;
  float_of_int !seized /. float_of_int t.n

(* Corrupt the most quorum-covering nodes. Ineffective against this
   construction (coverage is uniform) but kept as the generic
   baseline strategy. *)
let greedy_attack t quorums ~budget =
  let coverage = Array.make t.n 0 in
  Array.iter (Array.iter (fun y -> coverage.(y) <- coverage.(y) + 1)) quorums;
  let order = Array.init t.n (fun i -> i) in
  Array.sort (fun a b -> compare coverage.(b) coverage.(a)) order;
  let corrupted = Bitset.create t.n in
  for i = 0 to budget - 1 do
    Bitset.add corrupted order.(i)
  done;
  count_seized t quorums corrupted

(* The structural attack the construction invites: quorums are windows
   of one arithmetic progression, so corrupting ⌈d/2⌉-blocks of
   progression-consecutive nodes seizes every quorum whose window
   covers a block — the adversary knows the quorums exactly, which is
   Section 2.2's point about deterministic choices. *)
let block_attack t quorums ~budget =
  let step = (t.stride + 1) mod t.n in
  let majority = Sampler.majority_threshold t.d in
  let corrupted = Bitset.create t.n in
  let used = ref 0 in
  let pos = ref 0 in
  (* Blocks of [majority] consecutive progression elements, separated by
     (d - majority) untouched ones. *)
  while !used < budget do
    for j = 0 to majority - 1 do
      if !used < budget then begin
        let node = (!pos + (j * step)) mod t.n in
        if not (Bitset.mem corrupted node) then begin
          Bitset.add corrupted node;
          incr used
        end
      end
    done;
    pos := (!pos + (t.d * step)) mod t.n;
    if !pos = 0 then pos := 1 (* avoid cycling forever on degenerate strides *)
  done;
  count_seized t quorums corrupted

let seizable_fraction t ~budget =
  if budget < 0 || budget > t.n then invalid_arg "Affine_sampler.seizable_fraction";
  if budget = 0 then 0.0
  else begin
    let quorums = Array.init t.n (fun x -> quorum_sx t ~s:"s" ~x) in
    max (greedy_attack t quorums ~budget) (block_attack t quorums ~budget)
  end
