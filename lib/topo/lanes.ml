(* Lane vectors: one machine word per index, one lane (bit) per parallel
   analysis.  The structural engine batches up to [width] fault classes
   and sweeps them through a single fixpoint traversal; each dataflow
   vertex then carries a word whose bit L answers the query for lane L.
   Word-level AND/OR/ANDN replace per-class boolean evaluation. *)

let width = Sys.int_size

type t = { n : int; w : int array }

let create n =
  if n < 0 then invalid_arg "Lanes.create: negative capacity";
  { n; w = Array.make n 0 }

let length v = v.n

let check v i =
  if i < 0 || i >= v.n then invalid_arg "Lanes: index out of range"

let get v i =
  check v i;
  v.w.(i)

let or_in v i x =
  check v i;
  let old = v.w.(i) in
  let nw = old lor x in
  v.w.(i) <- nw;
  nw lxor old

let same_capacity a b op =
  if a.n <> b.n then invalid_arg ("Lanes." ^ op ^ ": capacity mismatch")

let and_into dst src =
  same_capacity dst src "and_into";
  for i = 0 to dst.n - 1 do
    dst.w.(i) <- dst.w.(i) land src.w.(i)
  done

let or_into dst src =
  same_capacity dst src "or_into";
  for i = 0 to dst.n - 1 do
    dst.w.(i) <- dst.w.(i) lor src.w.(i)
  done

let andn_into dst src =
  same_capacity dst src "andn_into";
  for i = 0 to dst.n - 1 do
    dst.w.(i) <- dst.w.(i) land lnot src.w.(i)
  done

let fill v x = Array.fill v.w 0 v.n x
let clear v = fill v 0
let copy v = { n = v.n; w = Array.copy v.w }

let equal a b = a.n = b.n && Array.for_all2 ( = ) a.w b.w

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal v = Array.fold_left (fun acc x -> acc + popcount x) 0 v.w

(* All-ones over the low [k] lanes.  [k >= width] must yield the full
   word WITHOUT shifting by the word size (unspecified in OCaml). *)
let lane_mask k =
  if k < 0 then invalid_arg "Lanes.lane_mask: negative count"
  else if k >= width then -1
  else (1 lsl k) - 1

(* Ascending set-lane indices of one word.  The word is an OCaml int, so
   the sign bit is lane [width - 1]; strip each visited bit with x&(x-1)
   to stay total on negative words. *)
let iter_lanes f x =
  let x = ref x in
  while !x <> 0 do
    let low = !x land - !x in
    let rec lane_of b acc = if b = 1 then acc else lane_of (b lsr 1) (acc + 1) in
    (* [low] may be min_int (sign bit): [lane_of] walks it down safely
       with a logical shift. *)
    f (lane_of low 0);
    x := !x land (!x - 1)
  done
