type hierarchy = {
  id : int;
  level_names : string array;  (* highest trust first *)
}

type t = {
  owner : hierarchy;
  rank : int;  (* 0 = lowest trust *)
}

let next_id = ref 0

let hierarchy names =
  if names = [] then invalid_arg "Level.hierarchy: empty";
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    invalid_arg "Level.hierarchy: duplicate level names";
  incr next_id;
  { id = !next_id; level_names = Array.of_list names }

let names h = Array.to_list h.level_names

let of_name h name =
  let count = Array.length h.level_names in
  let rec find i =
    if i >= count then None
    else if String.equal h.level_names.(i) name then
      Some { owner = h; rank = count - 1 - i }
    else find (i + 1)
  in
  find 0

let of_name_exn h name =
  match of_name h name with
  | Some level -> level
  | None -> invalid_arg (Printf.sprintf "Level.of_name_exn: unknown level %S" name)

let name level = level.owner.level_names.(Array.length level.owner.level_names - 1 - level.rank)
let rank level = level.rank
let top h = { owner = h; rank = Array.length h.level_names - 1 }
let bottom h = { owner = h; rank = 0 }
let hierarchy_of level = level.owner
let same_hierarchy a b = a.owner.id = b.owner.id

let compare a b =
  if not (same_hierarchy a b) then
    invalid_arg "Level.compare: levels from different hierarchies";
  Int.compare a.rank b.rank

let equal a b = same_hierarchy a b && a.rank = b.rank
(* Levels of one hierarchy share its record, so [==] settles the
   common case before the id test. *)
let[@inline] dominates a b = if a.owner == b.owner then a.rank >= b.rank else compare a b >= 0
let max a b = if dominates a b then a else b
let min a b = if dominates a b then b else a
let pp ppf level = Format.pp_print_string ppf (name level)
