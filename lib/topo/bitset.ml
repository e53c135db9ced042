type t = { n : int; words : int array }

let bits_per_word = Sys.int_size

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0 }

let check s i =
  if i < 0 || i >= s.n then invalid_arg "Bitset: index out of range"

let mem s i =
  check s i;
  s.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add s i =
  check s i;
  s.words.(i / bits_per_word) <-
    s.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let remove s i =
  check s i;
  s.words.(i / bits_per_word) <-
    s.words.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words
let is_empty s = Array.for_all (fun w -> w = 0) s.words
let clear s = Array.fill s.words 0 (Array.length s.words) 0

let fill s =
  for i = 0 to s.n - 1 do
    s.words.(i / bits_per_word) <-
      s.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))
  done

let copy s = { n = s.n; words = Array.copy s.words }

let equal a b =
  a.n = b.n && Array.for_all2 (fun x y -> x = y) a.words b.words

let same_capacity a b op =
  if a.n <> b.n then invalid_arg ("Bitset." ^ op ^ ": capacity mismatch")

let disjoint a b =
  same_capacity a b "disjoint";
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land b.words.(i) = 0 && go (i + 1)) in
  go 0

let inter_into dst src =
  same_capacity dst src "inter_into";
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) land w) src.words

let union_into dst src =
  same_capacity dst src "union_into";
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) lor w) src.words

let andn_into dst src =
  same_capacity dst src "andn_into";
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) land lnot w) src.words

let iter f s =
  Array.iteri
    (fun wi w ->
      let w = ref w and i = ref (wi * bits_per_word) in
      while !w <> 0 do
        if !w land 1 <> 0 then f !i;
        w := !w lsr 1;
        incr i
      done)
    s.words

let elements s =
  let acc = ref [] in
  for i = s.n - 1 downto 0 do
    if mem s i then acc := i :: !acc
  done;
  !acc

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s
