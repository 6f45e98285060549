(* The generators' own copy of the policy.  Each workload builds its
   world from these records and predicts every operation's outcome
   from them, with the documented semantics and none of the program's
   compiled, cached, certified or handle paths:

   - DAC: individual tier over group tier over everyone; the most
     specific tier with an entry for the mode decides; a deny there
     wins; no entry denies (DESIGN.md, Acl).  Worlds here use only
     group and everyone entries.
   - MAC over three levels, no categories: read-like modes need the
     subject's level at or above the object's; plain Write (strict
     overwrite, the default policy) needs equal levels. *)

open Exsec_core

let hierarchy () = Level.hierarchy [ "high"; "mid"; "low" ]
let universe () = Category.universe []
let level_names = [| "low"; "mid"; "high" |]

let klass hierarchy universe level =
  Security_class.make (Level.of_name_exn hierarchy level_names.(level)) (Category.empty universe)

type who =
  | Grp of int
  | All

type entry = {
  who : who;
  allow : bool;
  modes : Access_mode.t list;
}

let allow who modes = { who; allow = true; modes }
let deny who modes = { who; allow = false; modes }

let dac ~in_group entries mode =
  let decide tier =
    match List.filter (fun e -> tier e.who && List.mem mode e.modes) entries with
    | [] -> None
    | matching -> Some (List.for_all (fun e -> e.allow) matching)
  in
  match decide (function Grp g -> in_group g | All -> false) with
  | Some verdict -> verdict
  | None -> Option.value ~default:false (decide (function All -> true | Grp _ -> false))

let mac ~subject ~object_ mode =
  match mode with
  | Access_mode.Write | Access_mode.Delete -> subject = object_
  | m when Access_mode.is_write_like m -> object_ >= subject
  | _ -> subject >= object_

let to_acl group_of entries =
  Acl.of_entries
    (List.map
       (fun e ->
         let who =
           match e.who with
           | Grp g -> Acl.Group (group_of g)
           | All -> Acl.Everyone
         in
         if e.allow then Acl.allow who e.modes else Acl.deny who e.modes)
       entries)

type outcome =
  | Granted
  | Dac_denied
  | Mac_denied

(* DAC is evaluated first, as the monitor does; an access both layers
   refuse counts as a DAC denial. *)
let outcome ~in_group ~entries ~subject_level ~object_level mode =
  if not (dac ~in_group entries mode) then Dac_denied
  else if not (mac ~subject:subject_level ~object_:object_level mode) then Mac_denied
  else Granted
