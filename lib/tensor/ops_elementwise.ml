(** Elementwise tensor operations with numpy-style broadcasting.

    Elementwise primitives are the first of the paper's four primitive
    categories (§3): the output element at position [x] depends only on the
    input elements at position [x] (after broadcasting).

    Every operation is defined by a named scalar function in {!Scalar} and
    lifted with {!map} / {!map2}. The destination-passing variants
    {!map_into} / {!map2_into} reuse the very same scalar functions, which
    makes the executor's buffer-recycling mode bit-identical to the
    allocating path by construction. *)

(** The scalar kernels. Single source of truth shared by the allocating
    and the destination-passing evaluation paths. *)
module Scalar = struct
  let neg x = -.x
  let exp = Stdlib.exp
  let log = Stdlib.log
  let sqrt = Stdlib.sqrt
  let abs = Float.abs
  let square x = x *. x
  let reciprocal x = 1.0 /. x
  let tanh = Stdlib.tanh

  (** Approximates the Gauss error function with the Abramowitz & Stegun
      7.1.26 polynomial (max abs error 1.5e-7), which is ample for checking
      functional equivalence of GELU decompositions. *)
  let erf (x : float) : float =
    let sign = if x < 0.0 then -1.0 else 1.0 in
    let x = Float.abs x in
    let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
    let a1 = 0.254829592 and a2 = -0.284496736 and a3 = 1.421413741 in
    let a4 = -1.453152027 and a5 = 1.061405429 in
    let poly = ((((a5 *. t) +. a4) *. t +. a3) *. t +. a2) *. t +. a1 in
    sign *. (1.0 -. (poly *. t *. Stdlib.exp (-.x *. x)))

  let relu x = Float.max 0.0 x
  let leaky_relu alpha x = if x >= 0.0 then x else alpha *. x
  let sigmoid x = 1.0 /. (1.0 +. Stdlib.exp (-.x))

  (** SiLU / swish: [x * sigmoid x]. *)
  let silu x = x /. (1.0 +. Stdlib.exp (-.x))

  (** Mish activation used by YOLOv4: [x * tanh (softplus x)]. *)
  let mish x = x *. Stdlib.tanh (Stdlib.log (1.0 +. Stdlib.exp x))

  (** Exact GELU via erf. *)
  let gelu x = 0.5 *. x *. (1.0 +. erf (x /. Stdlib.sqrt 2.0))

  let add_const c x = x +. c
  let mul_const c x = x *. c
  let pow_const c x = x ** c
  let clip lo hi x = Float.min hi (Float.max lo x)
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let pow = ( ** )
  let maximum = Float.max
  let minimum = Float.min
end

(** [map f t] applies [f] to every element. *)
let map (f : float -> float) (t : Nd.t) : Nd.t =
  Nd.of_array (Nd.shape t) (Array.map f t.Nd.data)

(** [map_into f t ~dst] is [map f t] evaluated into the caller-supplied
    buffer [dst] (length must equal [Nd.numel t]); [dst] becomes the
    result's storage. Element-for-element identical to {!map}. *)
let map_into (f : float -> float) (t : Nd.t) ~(dst : float array) : Nd.t =
  let n = Nd.numel t in
  if Array.length dst <> n then invalid_arg "Ops_elementwise.map_into: length mismatch";
  for i = 0 to n - 1 do
    dst.(i) <- f t.Nd.data.(i)
  done;
  Nd.of_array (Nd.shape t) dst

(* Fold a broadcast index of the output into the linear offset of an input
   whose shape was right-aligned against the output shape. *)
let broadcast_offset ~(out_shape : Shape.t) ~(in_shape : Shape.t) (out_idx : int array) : int =
  let ro = Shape.rank out_shape and ri = Shape.rank in_shape in
  let st = Shape.strides in_shape in
  let off = ref 0 in
  for i = 0 to ri - 1 do
    let oi = out_idx.(i + (ro - ri)) in
    let d = in_shape.(i) in
    let pos = if d = 1 then 0 else oi in
    off := !off + (pos * st.(i))
  done;
  !off

(** [map2 f a b] applies [f] pointwise after broadcasting [a] and [b] to a
    common shape. *)
let map2 (f : float -> float -> float) (a : Nd.t) (b : Nd.t) : Nd.t =
  let sa = Nd.shape a and sb = Nd.shape b in
  if Shape.equal sa sb then
    Nd.of_array sa (Array.init (Nd.numel a) (fun i -> f a.Nd.data.(i) b.Nd.data.(i)))
  else begin
    let out_shape = Shape.broadcast sa sb in
    let out = Nd.zeros out_shape in
    let n = Shape.numel out_shape in
    for k = 0 to n - 1 do
      let idx = Shape.unravel out_shape k in
      let va = a.Nd.data.(broadcast_offset ~out_shape ~in_shape:sa idx) in
      let vb = b.Nd.data.(broadcast_offset ~out_shape ~in_shape:sb idx) in
      Nd.set_linear out k (f va vb)
    done;
    out
  end

(** [map2_into f a b ~dst] is the same-shape fast path of {!map2}
    evaluated into [dst]. The shapes of [a] and [b] must be equal (no
    broadcasting) and [dst]'s length must match. *)
let map2_into (f : float -> float -> float) (a : Nd.t) (b : Nd.t) ~(dst : float array) : Nd.t =
  let sa = Nd.shape a in
  if not (Shape.equal sa (Nd.shape b)) then
    invalid_arg "Ops_elementwise.map2_into: shapes differ (broadcast unsupported)";
  let n = Nd.numel a in
  if Array.length dst <> n then invalid_arg "Ops_elementwise.map2_into: length mismatch";
  for i = 0 to n - 1 do
    dst.(i) <- f a.Nd.data.(i) b.Nd.data.(i)
  done;
  Nd.of_array sa dst

let add = map2 Scalar.add
let sub = map2 Scalar.sub
let mul = map2 Scalar.mul
let div = map2 Scalar.div
let pow = map2 Scalar.pow
let maximum = map2 Scalar.maximum
let minimum = map2 Scalar.minimum

let neg = map Scalar.neg
let exp = map Scalar.exp
let log = map Scalar.log
let sqrt = map Scalar.sqrt
let abs = map Scalar.abs
let square = map Scalar.square
let reciprocal = map Scalar.reciprocal
let tanh = map Scalar.tanh

let erf = map Scalar.erf
let relu = map Scalar.relu
let leaky_relu ~alpha = map (Scalar.leaky_relu alpha)
let sigmoid = map Scalar.sigmoid
let silu = map Scalar.silu
let mish = map Scalar.mish
let gelu = map Scalar.gelu
let add_scalar c = map (Scalar.add_const c)
let mul_scalar c = map (Scalar.mul_const c)

(** [clip ~lo ~hi t] clamps every element into [[lo, hi]]. *)
let clip ~lo ~hi = map (Scalar.clip lo hi)

(** [select c a b] is elementwise [if c <> 0 then a else b] with
    broadcasting applied pairwise. *)
let select (c : Nd.t) (a : Nd.t) (b : Nd.t) : Nd.t =
  let ca = map2 (fun c a -> if c <> 0.0 then a else Float.nan) c a in
  map2 (fun x b -> if Float.is_nan x then b else x) ca b
