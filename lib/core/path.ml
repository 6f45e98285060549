(* Leaf first, one 3-word block per segment (the size of a cons cell);
   see path.mli. *)
type t =
  | Root
  | Sub of { up : t; last : string }

let root = Root

let check_segment segment =
  if String.length segment = 0 then invalid_arg "Path: empty segment";
  if String.contains segment '/' then invalid_arg "Path: segment contains '/'"

let child path segment =
  check_segment segment;
  Sub { up = path; last = segment }

let of_segments segments = List.fold_left child Root segments

let of_string text =
  List.fold_left
    (fun path segment -> if segment = "" then path else Sub { up = path; last = segment })
    Root (String.split_on_char '/' text)

let is_root = function
  | Root -> true
  | Sub _ -> false

let up = function
  | Root -> Root
  | Sub s -> s.up

let last = function
  | Root -> invalid_arg "Path.last: the root has no segment"
  | Sub s -> s.last

let basename = function
  | Root -> None
  | Sub s -> Some s.last

let parent = function
  | Root -> None
  | Sub s -> Some s.up

let rec depth_from n = function
  | Root -> n
  | Sub s -> depth_from (n + 1) s.up

let depth path = depth_from 0 path

(* [path] with its last [k] segments dropped. *)
let rec drop k path =
  match path with
  | Sub s when k > 0 -> drop (k - 1) s.up
  | Root | Sub _ -> path

let rec segments_onto acc = function
  | Root -> acc
  | Sub s -> segments_onto (s.last :: acc) s.up

let segments path = segments_onto [] path

let to_string = function
  | Root -> "/"
  | path -> "/" ^ String.concat "/" (segments path)

let rec append a = function
  | Root -> a
  | Sub s -> Sub { up = append a s.up; last = s.last }

(* Physical equality first (a node's path shares its parent's, so two
   paths often meet before the root), then segment by segment from the
   leaf up, where paths that share a root differ first. *)
let rec equal a b =
  a == b
  ||
  match a, b with
  | Sub x, Sub y -> String.equal x.last y.last && equal x.up y.up
  | Root, Root -> true
  | Root, Sub _ | Sub _, Root -> false

let is_prefix a b =
  let da = depth a and db = depth b in
  da <= db && equal a (drop (db - da) b)

let rec prefixes_onto acc path =
  match path with
  | Root -> Root :: acc
  | Sub s -> prefixes_onto (path :: acc) s.up

let prefixes path = prefixes_onto [] path

(* Two paths of one depth: the sign of their root-most difference,
   found in one pass from the leaf up. *)
let rec compare_level sign a b =
  if a == b then sign
  else
    match a, b with
    | Sub x, Sub y ->
      let c = String.compare x.last y.last in
      compare_level (if c <> 0 then c else sign) x.up y.up
    | Root, _ | _, Root -> sign

(* Root-first lexicographic order, a proper prefix first. *)
let compare a b =
  let da = depth a and db = depth b in
  let c = compare_level 0 (drop (da - db) a) (drop (db - da) b) in
  if c <> 0 then c else Int.compare da db

let pp ppf path = Format.pp_print_string ppf (to_string path)
