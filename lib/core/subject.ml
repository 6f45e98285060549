type t = {
  principal : Principal.individual;
  clearance : Security_class.t;
  ceiling : Security_class.t option;
  trusted : bool;
  integrity : Security_class.t option;
  mutable id : int;
      (* the principal's id once registered, [-1] before: ids never
         change, so the first lookup that finds one is the last.  One
         word, so racing writers store the same value whole. *)
}

let make ?ceiling ?(trusted = false) ?integrity principal clearance =
  { principal; clearance; ceiling; trusted; integrity; id = -1 }

let is_trusted subject = subject.trusted
let integrity subject = subject.integrity
let principal subject = subject.principal
let clearance subject = subject.clearance
let ceiling subject = subject.ceiling

let individual_id subject snapshot =
  if subject.id >= 0 then subject.id
  else begin
    let id = Principal.Db.Snapshot.individual_id snapshot subject.principal in
    subject.id <- id;
    id
  end

let membership_unmoved subject db ~generation row =
  Principal.Db.generation db = generation
  ||
  let snapshot = Principal.Db.snapshot db in
  Principal.Db.Snapshot.row snapshot ~individual_id:(individual_id subject snapshot) == row

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
