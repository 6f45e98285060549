(* Observability never changes a decision.  Each hot layer tests
   "metrics or tracing on" once and then runs either its bare logic or
   the same logic inside its counters, timers and span; these
   properties hold the two paths to one answer.  A monitor decision
   must equal the interpreted reference ([Oracle.decide]: the ACL walk,
   the lattice rule and Biba, with the TCB's write exemption), at an
   effective class the test computes itself, with metrics off, with
   metrics on and under an active span; the decision counters move by
   exactly the decisions and denials when metrics are on and not at
   all otherwise; and the span carries the MAC layer's verdict and the
   decision in that order.  Twin kernels then run one op script, one
   with metrics off and one with metrics or tracing on, and must answer
   and audit alike. *)

open Exsec_core
open Exsec_extsys
module Metrics = Exsec_obs.Metrics
module Trace = Exsec_obs.Trace

(* Collection and tracing are process-global: every case restores the
   boot state so the other suites run against noop instruments. *)
let restoring f =
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Trace.set_enabled false;
      Trace.clear ())
    f

(* {1 One decision against the interpreted reference} *)

let hierarchy = Level.hierarchy [ "high"; "mid"; "low" ]
let universe = Category.universe [ "a"; "b" ]

(* Integrity labels come from a lattice of their own. *)
let integrity_hierarchy = Level.hierarchy [ "vetted"; "unvetted" ]
let integrity_universe = Category.universe []

let klass (level, cats) =
  Security_class.make
    (Level.of_name_exn hierarchy (List.nth [ "high"; "mid"; "low" ] (level mod 3)))
    (Category.of_names universe
       (List.filteri (fun i _ -> cats land (1 lsl i) <> 0) [ "a"; "b" ]))

let integrity_class level =
  Security_class.make
    (Level.of_name_exn integrity_hierarchy (if level land 1 = 0 then "vetted" else "unvetted"))
    (Category.empty integrity_universe)

let ind_names = [| "alice"; "bob"; "carol"; "dave" |]
let grp_names = [| "staff"; "eng"; "ops" |]

(* Four registered individuals, one never registered ("ghost"), three
   groups nested as the memberships say (cycles are skipped). *)
let world memberships =
  let db = Principal.Db.create () in
  let inds = Array.map Principal.individual ind_names in
  let grps = Array.map Principal.group grp_names in
  Array.iter (Principal.Db.add_individual db) inds;
  Array.iter (Principal.Db.add_group db) grps;
  List.iter
    (fun (g, m) ->
      let member =
        let n = m mod (Array.length inds + Array.length grps) in
        if n < Array.length inds then Principal.Ind inds.(n)
        else Principal.Grp grps.(n - Array.length inds)
      in
      try Principal.Db.add_member db grps.(g mod Array.length grps) member
      with Invalid_argument _ -> ())
    memberships;
  db, inds, grps

let principal_of inds i =
  let i = i mod (Array.length inds + 1) in
  if i < Array.length inds then inds.(i) else Principal.individual "ghost"

let who_of inds grps w =
  match w mod 9 with
  | 0 -> Acl.Everyone
  | (1 | 2 | 3 | 4 | 5) as i -> Acl.Individual (principal_of inds (i - 1))
  | g -> Acl.Group grps.(g - 6)

let subject_of inds (principal, trusted, clearance, ceilings, integrity) =
  let base =
    Subject.make ~trusted
      ?integrity:(Option.map integrity_class integrity)
      (principal_of inds principal) (klass clearance)
  in
  (* Ceilings nest by meet; an empty list leaves the subject uncapped. *)
  List.fold_left (fun subject cap -> Subject.with_ceiling subject (klass cap)) base ceilings

let meta_of inds grps (object_class, integrity, entries) =
  let acl =
    Acl.of_entries
      (List.map
         (fun (w, positive, modes) ->
           (if positive then Acl.allow else Acl.deny) (who_of inds grps w) modes)
         entries)
  in
  Meta.make ~owner:inds.(0) ~acl ?integrity:(Option.map integrity_class integrity)
    (klass object_class)

let policy_of (dac, mac, integrity, strict) =
  { Policy.dac; mac; integrity; overwrite = (if strict then Mac.Strict else Mac.Liberal) }

let m_decisions = Metrics.counter "monitor.decisions"
let m_denied = Metrics.counter "monitor.denied"
let m_mac_denied = Metrics.counter "monitor.mac_denied"

let counts () = Metrics.value m_decisions, Metrics.value m_denied, Metrics.value m_mac_denied

let verdict = function
  | Decision.Granted -> "granted"
  | Decision.Denied _ -> "denied"

let arb_class = QCheck.(pair small_nat small_nat)
let arb_mode = QCheck.oneofl Access_mode.all

let arb_subject =
  QCheck.(
    pair
      (triple small_nat bool arb_class)
      (pair (small_list arb_class) (option small_nat)))

let arb_object =
  QCheck.(
    triple arb_class (option small_nat)
      (small_list (triple small_nat bool (small_list arb_mode))))

let arb_policy = QCheck.(quad bool bool bool bool)

let prop_decide_agrees =
  QCheck.Test.make ~name:"decide = reference, observed or not" ~count:500
    QCheck.(
      triple
        (pair arb_subject arb_object)
        (pair arb_mode arb_policy)
        (small_list (pair small_nat small_nat)))
    (fun ((((who, trusted, clearance), (ceilings, integrity)), object_spec), (mode, flags), memberships) ->
      restoring (fun () ->
          let db, inds, grps = world memberships in
          let subject = subject_of inds (who, trusted, clearance, ceilings, integrity) in
          let meta = meta_of inds grps object_spec in
          let policy = policy_of flags in
          let monitor = Reference_monitor.create ~policy db in
          let effective =
            List.fold_left
              (fun cls cap -> Security_class.meet cls (klass cap))
              (klass clearance) ceilings
          in
          (* The test meets the clearance with every ceiling itself. *)
          let expected, mac_layer = Oracle.decide ~effective policy ~db subject meta mode in
          let decide ?span () = Reference_monitor.decide ?span monitor ~subject ~meta ~mode in
          let denied = if Decision.is_granted expected then 0 else 1 in
          let mac_denied =
            match expected with
            | Decision.Denied (Decision.Mac_denied _) -> 1
            | Decision.Granted | Decision.Denied _ -> 0
          in
          (* Metrics off: the bare path, and no counter moves. *)
          let before = counts () in
          let off = decide () in
          let moved_off = counts () <> before in
          (* Metrics on: the same answer, counted exactly once. *)
          Metrics.set_enabled true;
          let d0, n0, m0 = counts () in
          let on = decide () in
          let d1, n1, m1 = counts () in
          Metrics.set_enabled false;
          (* Tracing alone, under an active span: the same answer, the
             layer annotations in order, and still no count. *)
          Trace.set_enabled true;
          let before_traced = counts () in
          let span = Trace.start "agreement" in
          let traced = decide ~span () in
          Trace.finish span;
          let moved_traced = counts () <> before_traced in
          let fields =
            match Trace.tail ~count:1 () with
            | [ finished ] -> Trace.span_fields finished
            | _ -> []
          in
          let expected_fields =
            (match mac_layer with
            | Some granted -> [ "mac", if granted then "granted" else "denied" ]
            | None -> [])
            @ [ "decision", verdict expected ]
          in
          let same d = Decision.equal d expected in
          if not (same off && same on && same traced) then
            QCheck.Test.fail_reportf "decide %a / %a / %a, reference %a" Decision.pp off
              Decision.pp on Decision.pp traced Decision.pp expected;
          if moved_off || moved_traced then
            QCheck.Test.fail_report "a counter moved with metrics off";
          if (d1 - d0, n1 - n0, m1 - m0) <> (1, denied, mac_denied) then
            QCheck.Test.fail_reportf "counted (%d, %d, %d), expected (1, %d, %d)" (d1 - d0)
              (n1 - n0) (m1 - m0) denied mac_denied;
          if fields <> expected_fields then
            QCheck.Test.fail_reportf "span fields [%s]"
              (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) fields));
          true))

(* {1 Twin kernels: one op script, observed and not} *)

(* A small published tree: a world-listable directory with a
   world-callable proc and a staff-only one, a directory classified
   "hi", and a directory nobody but admin may list.  Every twin is built
   by the same steps, so the audit sequence numbers line up. *)
let paths =
  Array.map Path.of_string
    [| "/svc/pub/echo"; "/svc/pub/staff"; "/svc/hi/secret"; "/svc/closed/x"; "/svc/pub/missing" |]

let twin () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let people = Array.map Principal.individual [| "alice"; "bob"; "eve" |] in
  let staff = Principal.group "staff" in
  Principal.Db.add_individual db admin;
  Array.iter (Principal.Db.add_individual db) people;
  Principal.Db.add_group db staff;
  Principal.Db.add_member db staff (Principal.Ind people.(0));
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [ "a" ] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  let lo = Security_class.bottom hierarchy universe in
  let hi = Security_class.top hierarchy universe in
  let meta ?(klass = lo) entries =
    Meta.make ~owner:admin ~acl:(Acl.of_entries (Acl.allow_all (Acl.Individual admin) :: entries)) klass
  in
  let must = function
    | Ok () -> ()
    | Error e -> Alcotest.failf "twin setup: %s" (Service.error_to_string e)
  in
  let proc name = Service.proc name 0 (fun _ctx _args -> Ok (Value.str name)) in
  let world_modes = [ Access_mode.List; Access_mode.Execute ] in
  let dir path entries ?klass () =
    must (Kernel.add_dir kernel ~subject:admin_sub (Path.of_string path) ~meta:(meta ?klass entries))
  in
  let leaf path entries ?klass () =
    must
      (Kernel.install_proc kernel ~subject:admin_sub (Path.of_string path)
         ~meta:(meta ?klass entries) (proc path))
  in
  dir "/svc/pub" [ Acl.allow Acl.Everyone [ Access_mode.List ] ] ();
  leaf "/svc/pub/echo" [ Acl.allow Acl.Everyone world_modes ] ();
  leaf "/svc/pub/staff" [ Acl.allow (Acl.Group staff) world_modes ] ();
  dir "/svc/hi" [ Acl.allow Acl.Everyone [ Access_mode.List ] ] ~klass:hi ();
  leaf "/svc/hi/secret" [ Acl.allow Acl.Everyone world_modes ] ~klass:hi ();
  dir "/svc/closed" [] ();
  leaf "/svc/closed/x" [ Acl.allow Acl.Everyone world_modes ] ();
  let subjects =
    [|
      Subject.make people.(0) lo;
      Subject.make people.(1) hi;
      Subject.make ~trusted:true people.(2) hi;
      Subject.with_ceiling (Subject.make people.(1) hi) lo;
    |]
  in
  kernel, db, staff, people, subjects

(* One op of the script, rendered: a checked call, a resolve, a call
   through a handle opened on first use, or an edit of bob's staff
   membership (which moves bob's row and makes bob's handles stale). *)
let run_script (kernel, db, staff, people, subjects) script =
  let handles = Hashtbl.create 8 in
  let render = function
    | Ok value -> "ok " ^ Format.asprintf "%a" Value.pp value
    | Error e -> "error " ^ Service.error_to_string e
  in
  let step (kind, s, p) =
    let subject = subjects.(s mod Array.length subjects) in
    let path = paths.(p mod Array.length paths) in
    match kind mod 4 with
    | 0 -> render (Kernel.call kernel ~subject ~caller:"twin" path [])
    | 1 -> (
      match Resolver.resolve (Kernel.resolver kernel) ~subject ~mode:Access_mode.Execute path with
      | Ok node -> "node " ^ Path.to_string (Namespace.path node)
      | Error denial -> "denied " ^ Format.asprintf "%a" Resolver.pp_denial denial)
    | 2 -> (
      let key = s mod Array.length subjects, p mod Array.length paths in
      let opened =
        match Hashtbl.find_opt handles key with
        | Some h -> Ok h
        | None ->
          Result.map
            (fun h ->
              Hashtbl.replace handles key h;
              h)
            (Kernel.open_handle kernel ~subject ~caller:"twin" path)
      in
      match opened with
      | Ok h -> render (Kernel.call_handle kernel h [])
      | Error e -> "open " ^ Service.error_to_string e)
    | _ ->
      let bob = Principal.Ind people.(1) in
      if Principal.Db.is_member db people.(1) staff then Principal.Db.remove_member db staff bob
      else Principal.Db.add_member db staff bob;
      "edit"
  in
  let answers = List.map step script in
  let audit = Reference_monitor.audit (Kernel.monitor kernel) in
  answers, List.map (Format.asprintf "%a" Audit.pp_event) (Audit.events audit)

let prop_twins_agree =
  QCheck.Test.make ~name:"twin kernels answer and audit alike, observed or not" ~count:100
    QCheck.(small_list (triple small_nat small_nat small_nat))
    (fun script ->
      restoring (fun () ->
          let bare = run_script (twin ()) script in
          Metrics.set_enabled true;
          let counted = run_script (twin ()) script in
          Metrics.set_enabled false;
          Trace.set_enabled true;
          let traced = run_script (twin ()) script in
          Trace.set_enabled false;
          if counted <> bare then QCheck.Test.fail_report "metrics on changed an answer or an event";
          if traced <> bare then QCheck.Test.fail_report "tracing changed an answer or an event";
          true))

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_decide_agrees; prop_twins_agree ]
