open Exsec_core

type op =
  | Check of { subject : int; object_ : int; mode : Access_mode.t }
  | Set_acl of { object_ : int; acl : Acl.t }
  | Set_class of { object_ : int; klass : Security_class.t }
  | Set_integrity of { object_ : int; integrity : Security_class.t option }
  | Set_policy of Policy.t
  | Join_group of { group : Principal.group; ind : Principal.individual }
  | Leave_group of { group : Principal.group; ind : Principal.individual }

type env = {
  db : Principal.Db.t;
  individuals : Principal.individual list;
  groups : Principal.group list;
  hierarchy : Level.hierarchy;
  universe : Category.universe;
  subjects : Subject.t array;
  metas : Meta.t array;
}

let environment ?(max_acl_length = 8) rng ~individuals ~groups ~subjects ~objects
    ~levels ~categories =
  let db, inds, grps = Gen.principal_db rng ~individuals ~groups ~density:0.3 in
  let hierarchy, universe = Gen.lattice ~levels ~categories in
  let inds_arr = Array.of_list inds in
  let subjects =
    Array.init subjects (fun i ->
        let ind = inds_arr.(i mod Array.length inds_arr) in
        let clearance = Gen.security_class rng hierarchy universe in
        let integrity =
          if Prng.bool rng then Some (Gen.security_class rng hierarchy universe) else None
        in
        let ceiling =
          if Prng.int rng 4 = 0 then Some (Gen.security_class rng hierarchy universe)
          else None
        in
        Subject.make ?ceiling ~trusted:(Prng.int rng 8 = 0) ?integrity ind clearance)
  in
  let metas =
    Array.init objects (fun _ ->
        let integrity =
          if Prng.bool rng then Some (Gen.security_class rng hierarchy universe) else None
        in
        Meta.make
          ~owner:(Prng.choose rng inds_arr)
          ~acl:
            (Gen.acl rng ~individuals:inds ~groups:grps
               ~length:(1 + Prng.int rng max_acl_length)
               ~deny_fraction:0.25)
          ?integrity
          (Gen.security_class rng hierarchy universe))
  in
  { db; individuals = inds; groups = grps; hierarchy; universe; subjects; metas }

let policies =
  [
    Policy.default;
    Policy.dac_only;
    Policy.mac_only;
    Policy.no_integrity;
    Policy.unchecked;
    { Policy.default with Policy.overwrite = Mac.Liberal };
  ]

(* Weighted mix: per-object mutations dominate; the expensive global
   revocations (policy swaps bump the policy epoch, membership churn
   bumps the database generation) are rarer, as in a real deployment —
   though every kind still occurs in any long stream. *)
let random_mutation rng env =
  let object_ () = Prng.int rng (Array.length env.metas) in
  match Prng.int rng 20 with
  | 0 | 1 | 2 | 3 | 4 | 5 ->
    Set_acl
      {
        object_ = object_ ();
        acl =
          Gen.acl rng ~individuals:env.individuals ~groups:env.groups
            ~length:(1 + Prng.int rng 8)
            ~deny_fraction:0.25;
      }
  | 6 | 7 | 8 | 9 ->
    Set_class
      { object_ = object_ (); klass = Gen.security_class rng env.hierarchy env.universe }
  | 10 | 11 ->
    Set_integrity
      {
        object_ = object_ ();
        integrity =
          (if Prng.bool rng then Some (Gen.security_class rng env.hierarchy env.universe)
           else None);
      }
  | 12 -> Set_policy (Prng.choose_list rng policies)
  | 13 | 14 | 15 | 16 ->
    Join_group
      {
        group = Prng.choose_list rng env.groups;
        ind = Prng.choose_list rng env.individuals;
      }
  | _ ->
    Leave_group
      {
        group = Prng.choose_list rng env.groups;
        ind = Prng.choose_list rng env.individuals;
      }

let generate rng env ~steps ~mutation_fraction =
  List.init steps (fun _ ->
      if Prng.float rng < mutation_fraction then random_mutation rng env
      else
        Check
          {
            subject = Prng.int rng (Array.length env.subjects);
            object_ = Prng.int rng (Array.length env.metas);
            mode = Prng.choose_list rng Access_mode.all;
          })
