type t = {
  level : Level.t;
  categories : Category.t;
}

let make level categories = { level; categories }
let level cls = cls.level
let categories cls = cls.categories

let[@inline] dominates a b =
  Level.dominates a.level b.level && Category.subset b.categories a.categories

let equal a b = Level.equal a.level b.level && Category.equal a.categories b.categories
let comparable a b = dominates a b || dominates b a

let join a b =
  { level = Level.max a.level b.level; categories = Category.union a.categories b.categories }

(* Two comparable classes meet at the lower one, returned as it is:
   entering a ceiling below (or above) a subject's class allocates no
   class. *)
let meet a b =
  if dominates b a then a
  else if dominates a b then b
  else { level = Level.min a.level b.level; categories = Category.inter a.categories b.categories }

let top hierarchy universe =
  { level = Level.top hierarchy; categories = Category.full universe }

let bottom hierarchy universe =
  { level = Level.bottom hierarchy; categories = Category.empty universe }

let bottom_of cls = bottom (Level.hierarchy_of cls.level) (Category.universe_of cls.categories)

let pp ppf cls =
  Format.fprintf ppf "%a/%a" Level.pp cls.level Category.pp cls.categories
