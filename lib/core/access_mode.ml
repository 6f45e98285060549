type t =
  | Read
  | Write
  | Write_append
  | Administrate
  | Delete
  | List
  | Execute
  | Extend

let all = [ Read; Write; Write_append; Administrate; Delete; List; Execute; Extend ]

external index : t -> int = "%identity"

let equal a b = index a = index b
let compare a b = Int.compare (index a) (index b)

let to_string = function
  | Read -> "read"
  | Write -> "write"
  | Write_append -> "write-append"
  | Administrate -> "administrate"
  | Delete -> "delete"
  | List -> "list"
  | Execute -> "execute"
  | Extend -> "extend"

let of_string = function
  | "read" -> Some Read
  | "write" -> Some Write
  | "write-append" -> Some Write_append
  | "administrate" -> Some Administrate
  | "delete" -> Some Delete
  | "list" -> Some List
  | "execute" -> Some Execute
  | "extend" -> Some Extend
  | _ -> None

let pp ppf mode = Format.pp_print_string ppf (to_string mode)

let is_write_like = function
  | Write | Write_append | Administrate | Delete -> true
  | Read | List | Execute | Extend -> false

let is_read_like = function
  | Read | List | Execute | Extend -> true
  | Write | Write_append | Administrate | Delete -> false

module Set = struct
  type mode = t
  type t = int

  let empty = 0
  let full = 0xff
  let bit mode = 1 lsl index mode
  let singleton mode = bit mode
  let add mode set = set lor bit mode
  let remove mode set = set land lnot (bit mode)
  let mem mode set = set land bit mode <> 0
  let of_list modes = List.fold_left (fun set mode -> add mode set) empty modes
  let to_list set = List.filter (fun mode -> mem mode set) all
  let union = ( lor )
  let inter = ( land )
  let diff a b = a land lnot b
  let subset a b = a land lnot b = 0
  let is_empty set = set = 0

  let cardinal set =
    List.fold_left (fun n mode -> if mem mode set then n + 1 else n) 0 all

  let equal = Int.equal
  let compare = Int.compare
  let to_int set = set

  let pp ppf set =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp)
      (to_list set)

  let read_write = of_list [ Read; Write ]
  let call_only = singleton Execute
end
