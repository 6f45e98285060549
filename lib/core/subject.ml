type t = {
  principal : Principal.individual;
  clearance : Security_class.t;
  effective : Security_class.t;
      (* the clearance met with every ceiling entered since the last
         [without_ceiling]: computed when a ceiling is set, so a
         decision reads it without allocating *)
  trusted : bool;
  integrity : Security_class.t option;
  mutable id : int;
      (* the principal's id once registered, [-1] before: ids never
         change, so the first lookup that finds one is the last.  One
         word, so racing writers store the same value whole. *)
}

let make ?ceiling ?(trusted = false) ?integrity principal clearance =
  let effective =
    match ceiling with
    | None -> clearance
    | Some cap -> Security_class.meet clearance cap
  in
  { principal; clearance; effective; trusted; integrity; id = -1 }

let is_trusted subject = subject.trusted
let integrity subject = subject.integrity
let principal subject = subject.principal
let clearance subject = subject.clearance

(* The first lookup, out of line so the memo read inlines. *)
let lookup_id subject snapshot =
  let id = Principal.Db.Snapshot.individual_id snapshot subject.principal in
  subject.id <- id;
  id

let[@inline] individual_id subject snapshot =
  if subject.id >= 0 then subject.id else lookup_id subject snapshot

let membership_unmoved subject db ~generation row =
  let snapshot = Principal.Db.snapshot db in
  Principal.Db.Snapshot.generation snapshot = generation
  || Principal.Db.Snapshot.row snapshot ~individual_id:(individual_id subject snapshot) == row

let effective_class subject = subject.effective

(* Meet is associative, so meeting the effective class with the new
   cap is the clearance met with every ceiling entered. *)
let with_ceiling subject cap =
  { subject with effective = Security_class.meet subject.effective cap }

let without_ceiling subject = { subject with effective = subject.clearance }

let pp ppf subject =
  Format.fprintf ppf "%a@%a" Principal.pp_individual subject.principal
    Security_class.pp (effective_class subject)
