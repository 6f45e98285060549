type universe = {
  id : int;
  category_names : string array;
}

type t = {
  owner : universe;
  bits : int;  (* bit i set iff category_names.(i) is present *)
}

let next_id = ref 0

let universe names =
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    invalid_arg "Category.universe: duplicate category names";
  if List.exists (fun name -> String.length name = 0) names then
    invalid_arg "Category.universe: empty category name";
  if List.length names > Sys.int_size - 1 then
    invalid_arg "Category.universe: too many categories";
  incr next_id;
  { id = !next_id; category_names = Array.of_list names }

let universe_names u = Array.to_list u.category_names
let universe_size u = Array.length u.category_names
let empty u = { owner = u; bits = 0 }
let full u = { owner = u; bits = (1 lsl Array.length u.category_names) - 1 }
let universe_of set = set.owner

let index_of u name =
  let count = Array.length u.category_names in
  let rec find i =
    if i >= count then None
    else if String.equal u.category_names.(i) name then Some i
    else find (i + 1)
  in
  find 0

let of_names u selected =
  let add bits name =
    match index_of u name with
    | Some i -> bits lor (1 lsl i)
    | None -> invalid_arg (Printf.sprintf "Category.of_names: unknown category %S" name)
  in
  { owner = u; bits = List.fold_left add 0 selected }

let mem set name =
  match index_of set.owner name with
  | Some i -> set.bits land (1 lsl i) <> 0
  | None -> false

let names set =
  List.filter (mem set) (universe_names set.owner)

let cardinal set =
  let rec count bits acc = if bits = 0 then acc else count (bits lsr 1) (acc + (bits land 1)) in
  count set.bits 0

let same_universe a b = a.owner.id = b.owner.id

let require_same_universe fn a b =
  if not (same_universe a b) then
    invalid_arg (Printf.sprintf "Category.%s: sets from different universes" fn)

let[@inline] subset a b =
  if a.owner != b.owner then require_same_universe "subset" a b;
  a.bits land lnot b.bits = 0

let equal a b = same_universe a b && a.bits = b.bits

let union a b =
  require_same_universe "union" a b;
  { owner = a.owner; bits = a.bits lor b.bits }

let inter a b =
  require_same_universe "inter" a b;
  { owner = a.owner; bits = a.bits land b.bits }

let pp ppf set =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_string)
    (names set)
