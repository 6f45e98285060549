(* The principal's id in the last interning it was looked up in.
   Every snapshot sharing that interning gives the same id, so
   membership churn keeps the memo.  One immutable pair behind one
   mutable field: a racing reader sees either the old pair or the new
   one, never an interning with another interning's id. *)
type interned =
  | Not_interned
  | Interned of {
      interning : Principal.Db.Snapshot.interning;
      id : int;
    }

type t = {
  principal : Principal.individual;
  clearance : Security_class.t;
  ceiling : Security_class.t option;
  trusted : bool;
  integrity : Security_class.t option;
  mutable interned : interned;
}

let make ?ceiling ?(trusted = false) ?integrity principal clearance =
  { principal; clearance; ceiling; trusted; integrity; interned = Not_interned }

let is_trusted subject = subject.trusted
let integrity subject = subject.integrity
let principal subject = subject.principal
let clearance subject = subject.clearance
let ceiling subject = subject.ceiling

let individual_id subject snapshot =
  let interning = Principal.Db.Snapshot.interning snapshot in
  match subject.interned with
  | Interned memo when memo.interning == interning -> memo.id
  | Interned _ | Not_interned ->
    let id = Principal.Db.Snapshot.individual_id snapshot subject.principal in
    subject.interned <- Interned { interning; id };
    id

let effective_class subject =
  match subject.ceiling with
  | None -> subject.clearance
  | Some cap -> Security_class.meet subject.clearance cap

let with_ceiling subject cap =
  let cap =
    match subject.ceiling with
    | None -> cap
    | Some existing -> Security_class.meet existing cap
  in
  { subject with ceiling = Some cap }

let without_ceiling subject = { subject with ceiling = None }

let pp ppf subject =
  Format.fprintf ppf "%a@%a" Principal.pp_individual subject.principal
    Security_class.pp (effective_class subject)
