type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | F64s of float array
  | List of t list
  | Assoc of (string * t) list
  | Tag of string * t

exception Decode_error of string

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

let unit = Unit
let bool b = Bool b
let int n = Int n
let float f = Float f
let str s = Str s
let f64s a = F64s a
let list f xs = List (List.map f xs)
let assoc kvs = Assoc kvs
let tag name v = Tag (name, v)

let option f = function None -> Tag ("none", Unit) | Some x -> Tag ("some", f x)
let pair fa fb (a, b) = List [ fa a; fb b ]

let kind = function
  | Unit -> "unit"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "str"
  | F64s _ -> "f64s"
  | List _ -> "list"
  | Assoc _ -> "assoc"
  | Tag _ -> "tag"

let to_bool = function Bool b -> b | v -> decode_error "expected bool, got %s" (kind v)
let to_int = function Int n -> n | v -> decode_error "expected int, got %s" (kind v)

let to_float = function
  | Float f -> f
  | Int n -> float_of_int n
  | v -> decode_error "expected float, got %s" (kind v)

let to_str = function Str s -> s | v -> decode_error "expected str, got %s" (kind v)
let to_f64s = function F64s a -> a | v -> decode_error "expected f64s, got %s" (kind v)

let to_list f = function
  | List xs -> List.map f xs
  | v -> decode_error "expected list, got %s" (kind v)

let to_assoc = function
  | Assoc kvs -> kvs
  | v -> decode_error "expected assoc, got %s" (kind v)

let to_tag = function
  | Tag (name, v) -> (name, v)
  | v -> decode_error "expected tag, got %s" (kind v)

let to_option f v =
  match to_tag v with
  | "none", Unit -> None
  | "some", x -> Some (f x)
  | name, _ -> decode_error "expected option, got tag %s" name

let to_pair fa fb = function
  | List [ a; b ] -> (fa a, fb b)
  | v -> decode_error "expected pair, got %s" (kind v)

let field_opt k v =
  match v with
  | Assoc kvs -> List.assoc_opt k kvs
  | _ -> decode_error "expected assoc for field %s, got %s" k (kind v)

let field k v =
  match field_opt k v with
  | Some x -> x
  | None -> decode_error "missing field %s" k

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | F64s x, F64s y ->
    Array.length x = Array.length y
    && (let ok = ref true in
        Array.iteri (fun i v -> if not (Float.equal v y.(i)) then ok := false) x;
        !ok)
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Assoc x, Assoc y ->
    List.length x = List.length y
    && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | Tag (n1, v1), Tag (n2, v2) -> String.equal n1 n2 && equal v1 v2
  | (Unit | Bool _ | Int _ | Float _ | Str _ | F64s _ | List _ | Assoc _ | Tag _), _ ->
    false

let rec pp ppf = function
  | Unit -> Format.fprintf ppf "()"
  | Bool b -> Format.fprintf ppf "%b" b
  | Int n -> Format.fprintf ppf "%d" n
  | Float f -> Format.fprintf ppf "%g" f
  | Str s ->
    if String.length s > 32 then Format.fprintf ppf "%S..(%d)" (String.sub s 0 32) (String.length s)
    else Format.fprintf ppf "%S" s
  | F64s a -> Format.fprintf ppf "<f64s:%d>" (Array.length a)
  | List xs ->
    Format.fprintf ppf "[@[%a@]]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp) xs
  | Assoc kvs ->
    let pp_kv ppf (k, v) = Format.fprintf ppf "%s=%a" k pp v in
    Format.fprintf ppf "{@[%a@]}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_kv) kvs
  | Tag (name, v) -> Format.fprintf ppf "%s(%a)" name pp v
