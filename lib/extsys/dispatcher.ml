open Exsec_core

type handler = {
  owner : string;
  klass : Security_class.t;
  guard : (Value.t list -> bool) option;
  impl : Service.impl;
}

(* One event's handlers in dispatch order.  The array is never mutated:
   every change builds a new one and swaps it in whole, so a raise on
   another domain sees either the old set or the new one. *)
type t = { mutable handlers : handler array }

let create () = { handlers = [||] }

(* [a] goes before [b]: higher level first, then more categories.
   Strict dominance raises the level or adds a category, so this order
   extends it, and it compares two handlers by their own classes alone. *)
let precedes a b =
  let la = Level.rank a.klass.Security_class.level
  and lb = Level.rank b.klass.Security_class.level in
  la > lb
  || la = lb
     && Category.cardinal a.klass.Security_class.categories
        > Category.cardinal b.klass.Security_class.categories

(* After every handler it does not precede: equals keep registration
   order. *)
let register d handler =
  let old = d.handlers in
  let n = Array.length old in
  let rec slot i = if i < n && not (precedes handler old.(i)) then slot (i + 1) else i in
  let at = slot 0 in
  d.handlers <-
    Array.init (n + 1) (fun i ->
        if i < at then old.(i) else if i = at then handler else old.(i - 1))

let unregister_owner d owner =
  d.handlers <-
    Array.of_list
      (List.filter (fun h -> not (String.equal h.owner owner)) (Array.to_list d.handlers))

let handlers d = Array.to_list d.handlers

let eligible ~caller_class ~args h =
  Security_class.dominates caller_class h.klass
  &&
  match h.guard with
  | None -> true
  | Some guard -> guard args

(* Top-level, not a local closure, so a raise allocates nothing.  The
   first eligible handler is maximal among the eligible ones: any that
   strictly dominated it would come earlier in the order. *)
let rec first_eligible handlers ~caller_class ~args i =
  if i >= Array.length handlers then raise_notrace Not_found
  else
    let h = Array.unsafe_get handlers i in
    if eligible ~caller_class ~args h then h
    else first_eligible handlers ~caller_class ~args (i + 1)

let select d ~caller_class ~args = first_eligible d.handlers ~caller_class ~args 0

let select_all d ~caller_class ~args =
  Array.fold_right
    (fun h rest -> if eligible ~caller_class ~args h then h :: rest else rest)
    d.handlers []
