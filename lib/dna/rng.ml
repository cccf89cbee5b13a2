(** Deterministic, splittable pseudo-random number generator.

    Implements xoshiro256** seeded through splitmix64. Every stochastic
    component of the toolkit takes an explicit [t] so that all experiments
    are reproducible from a single integer seed. [split] derives an
    independent stream, which lets parallel stages draw without sharing
    mutable state. *)

(* The four 64-bit state words s0..s3 sit unboxed at byte offsets 0, 8,
   16 and 24 of one 32-byte buffer, read and written through the
   unchecked 64-bit bytes primitives. Mutable [int64] record fields would
   box a fresh value on every store, so every draw would allocate. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64 step: used for seeding and for splitting. *)
let splitmix64 state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed64 seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    set64 t (8 * w) (splitmix64 state)
  done;
  t

let create seed = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

(* Inlined into every drawing function below, so the 64-bit values stay
   unboxed end to end. *)
let[@inline] next t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set64 t 0 (Int64.logxor s0 s3);
  set64 t 8 (Int64.logxor s1 s2);
  set64 t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let next_int64 t = next t

let split t = of_seed64 (next t)

let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Rejection sampling over the 62 uniform bits (Random.int's trick):
   redraw when the value lands in the incomplete top bucket, so every
   residue class is equally likely. A plain [mod] would bias low
   residues for bounds that do not divide 2^62. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = ref (bits62 t) in
  while !v - (!v mod bound) > 0x3FFFFFFFFFFFFFFF - bound + 1 do
    v := bits62 t
  done;
  !v mod bound

let float t =
  (* 53 uniform bits mapped to [0, 1). *)
  let x = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int x *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

(* Geometric distribution on {1, 2, ...}: number of Bernoulli(p) trials up
   to and including the first success. *)
let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0, 1]";
  if p = 1.0 then 1
  else
    let u = float t in
    1 + int_of_float (Float.of_int 0 +. floor (log1p (-.u) /. log1p (-.p)))

(* One uniform, then a linear scan of the cumulative mass; the last
   index takes whatever mass rounding leaves over. *)
let categorical t (dist : float array) =
  let u = float t in
  let rec pick i acc =
    if i >= Array.length dist - 1 then i
    else if acc +. dist.(i) >= u then i
    else pick (i + 1) (acc +. dist.(i))
  in
  pick 0 0.0

(* Knuth's method; adequate for the small means used as sequencing coverage. *)
let poisson t lambda =
  if lambda <= 0.0 then invalid_arg "Rng.poisson: lambda must be positive";
  let limit = exp (-.lambda) in
  let rec loop k p =
    let p = p *. float t in
    if p <= limit then k else loop (k + 1) p
  in
  loop 0 1.0

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

(* Sample [k] distinct indices out of [n] (reservoir when k << n). *)
let sample_indices t ~n ~k =
  if k > n then invalid_arg "Rng.sample_indices: k > n";
  let chosen = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = chosen.(i) in
    chosen.(i) <- chosen.(j);
    chosen.(j) <- tmp
  done;
  Array.sub chosen 0 k
