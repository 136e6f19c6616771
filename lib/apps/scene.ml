(* A small but real ray tracer (the POV-Ray stand-in's rendering kernel):
   spheres and a checkered ground plane, one point light, Phong shading,
   hard shadows, one level of reflection.  Pixels are really traced; the
   simulation charges virtual CPU time per pixel on top.

   The per-pixel work allocates nothing: rays and hits live in flat
   all-float records made once per block (one ray and one hit per
   recursion depth), and every vector is three scalar floats.  The
   arithmetic is that of the straightforward vector formulation, operation
   for operation: a unit vector is [v] times [1.0 /. |v|] ([v] itself when
   [|v| = 0.0]), dot products sum x, y, z left to right, the plane is
   tested before the spheres in list order, a candidate replaces the best
   hit only when strictly nearer, and the shadow test stops at the first
   sphere nearer than the light.  The pixels are therefore bit-identical to
   that formulation's. *)

type vec = { x : float; y : float; z : float }

let v3 x y z = { x; y; z }

type sphere = { center : vec; radius : float; albedo : float; reflect : float }

type t = {
  spheres : sphere list;
  light : vec;
  eye : vec;
  plane_y : float;
}

let default =
  {
    spheres =
      [ { center = v3 0.0 0.6 3.0; radius = 1.0; albedo = 0.9; reflect = 0.35 };
        { center = v3 (-1.6) 0.2 4.2; radius = 0.7; albedo = 0.7; reflect = 0.1 };
        { center = v3 1.7 0.0 2.2; radius = 0.5; albedo = 0.8; reflect = 0.5 } ];
    light = v3 (-4.0) 6.0 (-2.0);
    eye = v3 0.0 1.0 (-2.5);
    plane_y = -0.6;
  }

type ray = {
  mutable ox : float; mutable oy : float; mutable oz : float;
  mutable dx : float; mutable dy : float; mutable dz : float;
}

(* The closest hit of one depth's ray, and the luminance shaded there
   ([lum]: [shade] returns it through this field, so no float is boxed). *)
type hit = {
  mutable px : float; mutable py : float; mutable pz : float;
  mutable nx : float; mutable ny : float; mutable nz : float;
  mutable albedo : float;
  mutable reflect : float;
  mutable lum : float;
}

(* What one block's pixels share: the sphere list as an array, and the
   per-depth rays and hits. *)
type ctx = {
  scene : t;
  spheres : sphere array;
  rays : ray array;  (* the ray shaded at depth d is rays.(d) *)
  hits : hit array;
  shadow : ray;
}

let new_ray () = { ox = 0.0; oy = 0.0; oz = 0.0; dx = 0.0; dy = 0.0; dz = 0.0 }

let new_hit () =
  { px = 0.0; py = 0.0; pz = 0.0; nx = 0.0; ny = 0.0; nz = 0.0; albedo = 0.0;
    reflect = 0.0; lum = 0.0 }

(* [Float.max 0.0 d] and [Float.min 1.0 d] for these operand orders, NaN
   and signed zeros included, without the call. *)
let[@inline] max0 d = if d <= 0.0 then 0.0 else d
let[@inline] min1 d = if d >= 1.0 then 1.0 else d

(* Start [r] at (x, y, z) and point it along the unit vector of
   (vx, vy, vz): the vector times [1.0 /. n], or the vector itself when its
   norm [n] is 0.0. *)
let[@inline] set_ray (r : ray) x y z vx vy vz =
  let n = sqrt ((vx *. vx) +. (vy *. vy) +. (vz *. vz)) in
  let k = 1.0 /. n in
  r.ox <- x;
  r.oy <- y;
  r.oz <- z;
  r.dx <- (if n = 0.0 then vx else k *. vx);
  r.dy <- (if n = 0.0 then vy else k *. vy);
  r.dz <- (if n = 0.0 then vz else k *. vz)

(* Distance along [r] to sphere [s]: the nearer root when it lies beyond
   1e-4, else the farther one.  A miss is any value below 1e-4 (-1.0 when
   the ray passes the sphere by). *)
let[@inline] sphere_t (s : sphere) (r : ray) =
  let c = s.center in
  let ocx = r.ox -. c.x and ocy = r.oy -. c.y and ocz = r.oz -. c.z in
  let b = (ocx *. r.dx) +. (ocy *. r.dy) +. (ocz *. r.dz) in
  let cc = ((ocx *. ocx) +. (ocy *. ocy) +. (ocz *. ocz)) -. (s.radius *. s.radius) in
  let disc = (b *. b) -. cc in
  if disc < 0.0 then -1.0
  else
    let sq = sqrt disc in
    if -.b -. sq > 1e-4 then -.b -. sq else -.b +. sq

(* Fill [h] with the closest hit along [r]; false when there is none. *)
let closest_hit ctx (r : ray) (h : hit) =
  let found = ref false and best = ref (-1) and best_t = ref 0.0 in
  if not (Float.abs r.dy < 1e-9) then begin
    let t = (ctx.scene.plane_y -. r.oy) /. r.dy in
    if not (t < 1e-4) then begin
      found := true;
      best_t := t
    end
  end;
  for i = 0 to Array.length ctx.spheres - 1 do
    let t = sphere_t ctx.spheres.(i) r in
    if (not (t < 1e-4)) && ((not !found) || t < !best_t) then begin
      found := true;
      best := i;
      best_t := t
    end
  done;
  if !found then begin
    let t = !best_t in
    let px = r.ox +. (t *. r.dx) and py = r.oy +. (t *. r.dy) and pz = r.oz +. (t *. r.dz) in
    h.px <- px;
    h.py <- py;
    h.pz <- pz;
    if !best < 0 then begin
      let u = int_of_float (Float.round (px *. 2.0)) in
      let w = int_of_float (Float.round (pz *. 2.0)) in
      h.nx <- 0.0;
      h.ny <- 1.0;
      h.nz <- 0.0;
      h.albedo <- (if (u + w) land 1 = 0 then 0.85 else 0.25);
      h.reflect <- 0.05
    end
    else begin
      let s = ctx.spheres.(!best) in
      let vx = px -. s.center.x and vy = py -. s.center.y and vz = pz -. s.center.z in
      let n = sqrt ((vx *. vx) +. (vy *. vy) +. (vz *. vz)) in
      let k = 1.0 /. n in
      h.nx <- (if n = 0.0 then vx else k *. vx);
      h.ny <- (if n = 0.0 then vy else k *. vy);
      h.nz <- (if n = 0.0 then vz else k *. vz);
      h.albedo <- s.albedo;
      h.reflect <- s.reflect
    end
  end;
  !found

(* Whether some sphere lies along [r] nearer than [dist]. *)
let[@inline] in_shadow spheres (r : ray) dist =
  let shadowed = ref false and i = ref 0 in
  while (not !shadowed) && !i < Array.length spheres do
    let t = sphere_t (Array.unsafe_get spheres !i) r in
    if t >= 1e-4 && t < dist then shadowed := true;
    incr i
  done;
  !shadowed

(* Shade rays.(depth) into hits.(depth).lum, reflecting while depth > 0. *)
let rec shade ctx depth =
  let r = ctx.rays.(depth) and h = ctx.hits.(depth) in
  if not (closest_hit ctx r h) then h.lum <- 0.08 +. (0.12 *. Float.abs r.dy) (* sky *)
  else begin
    let light = ctx.scene.light in
    let tx = light.x -. h.px and ty = light.y -. h.py and tz = light.z -. h.pz in
    let dist = sqrt ((tx *. tx) +. (ty *. ty) +. (tz *. tz)) in
    let k = 1.0 /. dist in
    let lx = if dist = 0.0 then tx else k *. tx in
    let ly = if dist = 0.0 then ty else k *. ty in
    let lz = if dist = 0.0 then tz else k *. tz in
    let sr = ctx.shadow in
    sr.ox <- h.px;
    sr.oy <- h.py;
    sr.oz <- h.pz;
    sr.dx <- lx;
    sr.dy <- ly;
    sr.dz <- lz;
    let shadowed = in_shadow ctx.spheres sr dist in
    let ndl = (h.nx *. lx) +. (h.ny *. ly) +. (h.nz *. lz) in
    let diffuse = if shadowed then 0.0 else max0 ndl in
    let spec =
      if shadowed then 0.0
      else begin
        let k2 = 2.0 *. ndl in
        let rx = (k2 *. h.nx) -. lx and ry = (k2 *. h.ny) -. ly and rz = (k2 *. h.nz) -. lz in
        let vx = r.ox -. h.px and vy = r.oy -. h.py and vz = r.oz -. h.pz in
        let n = sqrt ((vx *. vx) +. (vy *. vy) +. (vz *. vz)) in
        let kv = 1.0 /. n in
        let ux = if n = 0.0 then vx else kv *. vx in
        let uy = if n = 0.0 then vy else kv *. vy in
        let uz = if n = 0.0 then vz else kv *. vz in
        let base = max0 ((rx *. ux) +. (ry *. uy) +. (rz *. uz)) in
        (* pow 0.0 24.0 is exactly 0.0: most shaded points face away *)
        if base = 0.0 then 0.0 else base ** 24.0
      end
    in
    let base = h.albedo *. ((0.15 +. (0.75 *. diffuse)) +. (0.4 *. spec)) in
    if depth > 0 && h.reflect > 0.01 then begin
      let k3 = 2.0 *. ((r.dx *. h.nx) +. (r.dy *. h.ny) +. (r.dz *. h.nz)) in
      set_ray ctx.rays.(depth - 1) h.px h.py h.pz
        (r.dx -. (k3 *. h.nx)) (r.dy -. (k3 *. h.ny)) (r.dz -. (k3 *. h.nz));
      shade ctx (depth - 1);
      h.lum <- ((1.0 -. h.reflect) *. base) +. (h.reflect *. ctx.hits.(depth - 1).lum)
    end
    else h.lum <- base
  end

(* Primary rays reflect once. *)
let depth = 1

let make_ctx scene =
  { scene; spheres = Array.of_list scene.spheres;
    rays = Array.init (depth + 1) (fun _ -> new_ray ());
    hits = Array.init (depth + 1) (fun _ -> new_hit ()); shadow = new_ray () }

(* Aim rays.(depth) from the eye through pixel (px, py). *)
let aim ctx ~width ~height px py =
  let fw = float_of_int width and fh = float_of_int height in
  let u = ((float_of_int px +. 0.5) /. fw *. 2.0) -. 1.0 in
  let v = 1.0 -. (2.0 *. (float_of_int py +. 0.5) /. fh) in
  let aspect = fw /. fh in
  let eye = ctx.scene.eye in
  set_ray ctx.rays.(depth) eye.x eye.y eye.z (u *. aspect) v 1.4

let trace_pixel ctx ~width ~height px py : int =
  aim ctx ~width ~height px py;
  shade ctx depth;
  int_of_float (255.0 *. min1 (max0 ctx.hits.(depth).lum))

(* Render rows [y0, y0+rows) into a byte string of width*rows pixels. *)
let render_block scene ~width ~height ~y0 ~rows : string =
  let ctx = make_ctx scene in
  let b = Bytes.create (width * rows) in
  for dy = 0 to rows - 1 do
    for x = 0 to width - 1 do
      Bytes.unsafe_set b ((dy * width) + x)
        (Char.chr (trace_pixel ctx ~width ~height x (y0 + dy)))
    done
  done;
  Bytes.unsafe_to_string b
