open Exsec_core

let check = Alcotest.(check bool)

let hierarchy = Level.hierarchy [ "hi"; "lo" ]
let universe = Category.universe [ "c" ]
let bottom = Security_class.bottom hierarchy universe
let high = Security_class.top hierarchy universe
let admin = Principal.individual "admin"
let alice = Principal.individual "alice"
let bob = Principal.individual "bob"

let world_listable owner klass =
  Meta.make ~owner
    ~acl:
      (Acl.of_entries
         [
           Acl.allow_all (Acl.Individual owner);
           Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read; Access_mode.Write ];
         ])
    klass

let setup () =
  let db = Principal.Db.create () in
  List.iter (Principal.Db.add_individual db) [ admin; alice; bob ];
  let monitor = Reference_monitor.create db in
  let ns = Namespace.create ~root_meta:(world_listable admin bottom) () in
  let r = Resolver.create monitor ns in
  db, monitor, ns, r

let alice_low () = Subject.make alice bottom
let alice_high () = Subject.make alice high

let ok label = function
  | Ok value -> value
  | Error e -> Alcotest.failf "%s: %s" label (Format.asprintf "%a" Resolver.pp_denial e)

let test_create_and_resolve () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let _ =
    ok "dir" (Resolver.create_dir r ~subject (Path.of_string "/a") ~meta:(world_listable alice bottom))
  in
  let _ =
    ok "leaf"
      (Resolver.create_leaf r ~subject (Path.of_string "/a/x")
         ~meta:(world_listable alice bottom) 7)
  in
  let node = ok "resolve" (Resolver.resolve r ~subject ~mode:Access_mode.Read (Path.of_string "/a/x")) in
  check "payload" true (Namespace.payload node = Some 7)

let test_list_required_on_path () =
  let _, _, _, r = setup () in
  let admin_subject = Subject.make ~trusted:true admin high in
  (* A directory alice cannot even look into. *)
  let hidden = Meta.make ~owner:admin bottom in
  let _ = ok "hidden dir" (Resolver.create_dir r ~subject:admin_subject (Path.of_string "/secret") ~meta:hidden) in
  let _ =
    ok "inner leaf"
      (Resolver.create_leaf r ~subject:admin_subject (Path.of_string "/secret/x")
         ~meta:(world_listable admin bottom) 1)
  in
  (* Even though the leaf itself is world-readable, the path is
     blocked at /secret. *)
  match Resolver.resolve r ~subject:(alice_low ()) ~mode:Access_mode.Read (Path.of_string "/secret/x") with
  | Error (Resolver.Denied { at; mode = Access_mode.List; _ }) ->
    Alcotest.(check string) "blocked at /secret" "/secret" (Path.to_string at)
  | Ok _ -> Alcotest.fail "hidden path traversed"
  | Error other -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Resolver.pp_denial other)

let test_target_mode_checked () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let bob_subject = Subject.make bob bottom in
  let _ =
    ok "leaf"
      (Resolver.create_leaf r ~subject (Path.of_string "/x")
         ~meta:(Meta.make ~owner:alice ~acl:(Acl.of_entries
             [ Acl.allow_all (Acl.Individual alice); Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read ] ]) bottom) 1)
  in
  let _ = ok "read ok" (Resolver.resolve r ~subject:bob_subject ~mode:Access_mode.Read (Path.of_string "/x")) in
  match Resolver.resolve r ~subject:bob_subject ~mode:Access_mode.Write (Path.of_string "/x") with
  | Error (Resolver.Denied { mode = Access_mode.Write; _ }) -> ()
  | _ -> Alcotest.fail "write should be denied"

let test_lookup_skips_target_check () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let bob_subject = Subject.make bob bottom in
  let closed = Meta.make ~owner:alice bottom in
  let _ = ok "leaf" (Resolver.create_leaf r ~subject (Path.of_string "/x") ~meta:closed 1) in
  (* bob cannot read /x but can still look it up (ancestors are
     listable). *)
  let _ = ok "lookup" (Resolver.lookup r ~subject:bob_subject (Path.of_string "/x")) in
  ()

let test_list_dir () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let _ = ok "dir" (Resolver.create_dir r ~subject (Path.of_string "/d") ~meta:(world_listable alice bottom)) in
  let _ = ok "l1" (Resolver.create_leaf r ~subject (Path.of_string "/d/one") ~meta:(world_listable alice bottom) 1) in
  let _ = ok "l2" (Resolver.create_leaf r ~subject (Path.of_string "/d/two") ~meta:(world_listable alice bottom) 2) in
  let names = ok "list" (Resolver.list_dir r ~subject (Path.of_string "/d")) in
  Alcotest.(check (list string)) "names" [ "one"; "two" ] names;
  match Resolver.list_dir r ~subject (Path.of_string "/d/one") with
  | Error (Resolver.Name_error (Namespace.Not_a_directory _)) -> ()
  | _ -> Alcotest.fail "listing a leaf should fail"

let test_create_requires_parent_write () =
  let _, _, _, r = setup () in
  let admin_subject = Subject.make ~trusted:true admin high in
  let read_only =
    Meta.make ~owner:admin
      ~acl:(Acl.of_entries [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ])
      bottom
  in
  let _ = ok "ro dir" (Resolver.create_dir r ~subject:admin_subject (Path.of_string "/ro") ~meta:read_only) in
  match
    Resolver.create_leaf r ~subject:(alice_low ()) (Path.of_string "/ro/x")
      ~meta:(world_listable alice bottom) 1
  with
  | Error (Resolver.Denied { mode = Access_mode.Write; _ }) -> ()
  | _ -> Alcotest.fail "create in read-only dir should fail"

let test_attach_mac_rule () =
  let _, _, _, r = setup () in
  (* A high subject cannot create a low-classified child (write-down),
     but can create a high one. *)
  let subject = alice_high () in
  (match
     Resolver.create_leaf r ~subject (Path.of_string "/low-child")
       ~meta:(world_listable alice bottom) 1
   with
  | Error (Resolver.Denied { denial = Decision.Mac_denied Mac.Write_down; _ }) -> ()
  | _ -> Alcotest.fail "high subject created low child");
  let _ =
    ok "high child"
      (Resolver.create_leaf r ~subject (Path.of_string "/high-child")
         ~meta:(world_listable alice high) 1)
  in
  ()

let test_remove_requires_delete () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let bob_subject = Subject.make bob bottom in
  let _ =
    ok "leaf"
      (Resolver.create_leaf r ~subject (Path.of_string "/x")
         ~meta:(Meta.make ~owner:alice ~acl:(Acl.of_entries
             [ Acl.allow_all (Acl.Individual alice); Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read ] ]) bottom) 1)
  in
  (match Resolver.remove r ~subject:bob_subject (Path.of_string "/x") with
  | Error (Resolver.Denied { mode = Access_mode.Delete; _ }) -> ()
  | _ -> Alcotest.fail "bob deleted alice's leaf");
  let () = ok "owner removes" (Resolver.remove r ~subject (Path.of_string "/x")) in
  check "gone" false (Namespace.mem (Resolver.namespace r) (Path.of_string "/x"))

let test_set_acl_via_resolver () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let bob_subject = Subject.make bob bottom in
  let _ =
    ok "leaf" (Resolver.create_leaf r ~subject (Path.of_string "/x") ~meta:(Meta.make ~owner:alice bottom) 1)
  in
  (* bob can't read yet. *)
  (match Resolver.resolve r ~subject:bob_subject ~mode:Access_mode.Read (Path.of_string "/x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bob read before grant");
  let () =
    ok "grant"
      (Resolver.set_acl r ~subject (Path.of_string "/x")
         (Acl.of_entries
            [ Acl.allow_all (Acl.Individual alice); Acl.allow (Acl.Individual bob) [ Access_mode.Read ] ]))
  in
  let _ = ok "bob reads" (Resolver.resolve r ~subject:bob_subject ~mode:Access_mode.Read (Path.of_string "/x")) in
  (* bob cannot administrate. *)
  match Resolver.set_acl r ~subject:bob_subject (Path.of_string "/x") Acl.empty with
  | Error (Resolver.Denied { mode = Access_mode.Administrate; _ }) -> ()
  | _ -> Alcotest.fail "bob administrated"

let test_denials_audited () =
  let _, monitor, _, r = setup () in
  let before = Audit.denied_total (Reference_monitor.audit monitor) in
  (match Resolver.resolve r ~subject:(Subject.make bob bottom) ~mode:Access_mode.Write (Path.of_string "/nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resolved nonsense");
  let after = Audit.denied_total (Reference_monitor.audit monitor) in
  (* /nope does not exist: only the (granted) List on the root was
     checked, so no denial — verify grants recorded instead. *)
  check "no denial for missing name" true (after = before);
  check "grants recorded" true (Audit.granted_total (Reference_monitor.audit monitor) > 0)

(* Regression for the walk-twice [remove]: deleting /a/b used to walk
   to the parent and then re-resolve the whole target from the root,
   auditing List on the root twice (5 events).  The single-walk shape
   checks each ancestor exactly once: List on the root, List on /a,
   Delete on the victim, and the attach (Write) check on the parent. *)
let test_remove_single_walk_audit () =
  let _, monitor, _, r = setup () in
  let subject = alice_low () in
  let meta = world_listable alice bottom in
  let _ = ok "dir" (Resolver.create_dir r ~subject (Path.of_string "/a") ~meta) in
  let _ = ok "leaf" (Resolver.create_leaf r ~subject (Path.of_string "/a/b") ~meta 1) in
  let audit = Reference_monitor.audit monitor in
  let before = List.length (Audit.events audit) in
  let () = ok "remove" (Resolver.remove r ~subject (Path.of_string "/a/b")) in
  let after = List.length (Audit.events audit) in
  Alcotest.(check int) "remove of /a/b audits exactly four checks" 4 (after - before)

let suite =
  [
    Alcotest.test_case "create and resolve" `Quick test_create_and_resolve;
    Alcotest.test_case "list required on path" `Quick test_list_required_on_path;
    Alcotest.test_case "target mode checked" `Quick test_target_mode_checked;
    Alcotest.test_case "lookup skips target check" `Quick test_lookup_skips_target_check;
    Alcotest.test_case "list_dir" `Quick test_list_dir;
    Alcotest.test_case "create needs parent write" `Quick test_create_requires_parent_write;
    Alcotest.test_case "attach MAC rule" `Quick test_attach_mac_rule;
    Alcotest.test_case "remove needs delete" `Quick test_remove_requires_delete;
    Alcotest.test_case "remove audits a single walk" `Quick test_remove_single_walk_audit;
    Alcotest.test_case "set_acl" `Quick test_set_acl_via_resolver;
    Alcotest.test_case "audit trail" `Quick test_denials_audited;
  ]

(* Oracle property: on a random tree with random per-node List grants
   and per-leaf Read grants, [resolve] must grant exactly when every
   strict ancestor allows List and the leaf allows Read.  Classes are
   uniform so only DAC decides. *)
let prop_resolver_matches_oracle =
  let arb =
    QCheck.make
      QCheck.Gen.(
        (* (listable per interior node choices, readable per leaf) as
           bit sources, with a fixed shape: root -> 3 dirs -> 3 leaves. *)
        pair (list_size (return 3) bool) (list_size (return 9) bool))
  in
  QCheck.Test.make ~name:"resolve agrees with the DAC oracle" ~count:200 arb
    (fun (dir_listable, leaf_readable) ->
      let db = Principal.Db.create () in
      let owner = Principal.individual "owner" in
      let user = Principal.individual "user" in
      Principal.Db.add_individual db owner;
      Principal.Db.add_individual db user;
      let monitor = Reference_monitor.create db in
      let root_meta = world_listable owner bottom in
      let ns = Namespace.create ~root_meta () in
      let r = Resolver.create monitor ns in
      let meta_with ~listable ~readable =
        let world =
          List.concat
            [
              (if listable then [ Access_mode.List ] else []);
              (if readable then [ Access_mode.Read ] else []);
            ]
        in
        Meta.make ~owner
          ~acl:(Acl.of_entries [ Acl.allow_all (Acl.Individual owner); Acl.allow Acl.Everyone world ])
          bottom
      in
      let subject = Subject.make user bottom in
      let expectations = ref [] in
      List.iteri
        (fun d listable ->
          let dir = Path.of_string (Printf.sprintf "/d%d" d) in
          (match Namespace.add_dir ns dir ~meta:(meta_with ~listable ~readable:false) with
          | Ok _ -> ()
          | Error _ -> ());
          List.iteri
            (fun l readable ->
              if l / 3 = d then begin
                let leaf = Path.child dir (Printf.sprintf "x%d" l) in
                (match Namespace.add_leaf ns leaf ~meta:(meta_with ~listable:false ~readable) 0 with
                | Ok _ -> ()
                | Error _ -> ());
                expectations := (leaf, listable && readable) :: !expectations
              end)
            leaf_readable)
        dir_listable;
      List.for_all
        (fun (leaf, expected) ->
          let got =
            match Resolver.resolve r ~subject ~mode:Access_mode.Read leaf with
            | Ok _ -> true
            | Error _ -> false
          in
          Bool.equal got expected)
        !expectations)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_resolver_matches_oracle ]

(* {1 Differential: the hash-probe walk against the sorted scan}

   [Resolver] finds each path segment with one probe into the
   directory's hash table.  The reference below is the walk that probe
   replaced: scan the directory's sorted entries ([Namespace.children])
   for the segment.  Twin trees built from one seed run the same random
   op script, and every result and every audit event an op appends
   must agree.  The trees hold a directory wider than 64 entries, and
   List grants, explicit List denials and above-clearance classes at
   every depth; the paths reach through leaves and name missing
   entries. *)

let random_meta rng =
  let list_entry =
    match Random.State.int rng 8 with
    | 0 -> [ Acl.deny (Acl.Individual alice) [ Access_mode.List ] ]
    | 1 -> []
    | _ -> [ Acl.allow (Acl.Individual alice) [ Access_mode.List ] ]
  in
  let modes =
    List.filter
      (fun _ -> Random.State.int rng 5 < 3)
      [ Access_mode.Read; Access_mode.Write; Access_mode.Execute; Access_mode.Delete ]
  in
  Meta.make ~owner:admin
    ~acl:
      (Acl.of_entries
         ((Acl.allow_all (Acl.Individual admin) :: list_entry)
         @ [ Acl.allow (Acl.Individual alice) modes ]))
    (if Random.State.int rng 10 = 0 then high else bottom)

type world = {
  monitor : Reference_monitor.t;
  ns : int Namespace.t;
  resolver : int Resolver.t;
  built : Path.t array;  (** every node the builder added, root first *)
}

let wide_width = 64

(* Deterministic in [seed], so two calls build identical twins. *)
let build_world seed =
  let rng = Random.State.make [| seed |] in
  let db = Principal.Db.create () in
  List.iter (Principal.Db.add_individual db) [ admin; alice ];
  let monitor = Reference_monitor.create db in
  let ns = Namespace.create ~root_meta:(random_meta rng) () in
  let wide_depth = Random.State.int rng 3 in
  let wide_left = ref true in
  let built = ref [ Path.root ] in
  let rec fill dir depth =
    let wide = !wide_left && depth = wide_depth in
    if wide then wide_left := false;
    let width =
      if wide then wide_width + 1 + Random.State.int rng 64 else 1 + Random.State.int rng 4
    in
    for i = 1 to width do
      let name = Printf.sprintf "e%d" (Random.State.int rng 100_000) in
      let meta = random_meta rng in
      (* The first entry above the wide level is a directory, so the
         walk always reaches a directory at that level. *)
      let is_dir = depth < 3 && ((i = 1 && depth < wide_depth) || Random.State.int rng 4 = 0) in
      let added =
        if is_dir then Namespace.add_dir_at ns dir name ~meta
        else Namespace.add_leaf_at ns dir name ~meta 0
      in
      match added with
      | Ok node ->
        built := Namespace.path node :: !built;
        if is_dir then fill node (depth + 1)
      | Error _ -> () (* a repeated name *)
    done
  in
  fill (Namespace.root ns) 0;
  { monitor; ns; resolver = Resolver.create monitor ns; built = Array.of_list (List.rev !built) }

(* A path to a built node, or one that names a missing entry, steps
   through a leaf, or swaps one segment for a name from elsewhere. *)
let random_path rng built =
  let pick () = built.(Random.State.int rng (Array.length built)) in
  let name () =
    match Path.basename (pick ()) with
    | Some name when Random.State.bool rng -> name
    | _ -> Printf.sprintf "missing%d" (Random.State.int rng 4)
  in
  let base = pick () in
  match Random.State.int rng 6 with
  | 0 | 1 | 2 -> base
  | 3 -> Path.child base (name ())
  | 4 -> Path.child (Path.child base (name ())) (name ())
  | _ -> (
    match Path.segments base with
    | [] -> base
    | segments ->
      let k = Random.State.int rng (List.length segments) in
      Path.of_segments (List.mapi (fun i segment -> if i = k then name () else segment) segments))

let reference_check monitor ~subject node mode =
  match
    Reference_monitor.check monitor ~subject ~meta:(Namespace.meta node)
      ~object_name:(Namespace.label node) ~mode
  with
  | Decision.Granted -> Ok ()
  | Decision.Denied denial ->
    Error
      (Resolver.Denied
         { at = Namespace.path node; label = Namespace.label node; mode; denial })

let scan node segment target =
  match
    List.find_opt (fun (name, _) -> String.equal name segment) (Namespace.children node)
  with
  | Some (_, child) -> Ok child
  | None when Namespace.is_dir node -> Error (Resolver.Name_error (Namespace.Not_found target))
  | None -> Error (Resolver.Name_error (Namespace.Not_a_directory (Namespace.path node)))

let reference_walk w ~subject target =
  let rec step node = function
    | [] -> Ok node
    | segment :: rest ->
      Result.bind (reference_check w.monitor ~subject node Access_mode.List) (fun () ->
          Result.bind (scan node segment target) (fun child -> step child rest))
  in
  step (Namespace.root w.ns) (Path.segments target)

let reference_resolve w ~subject ~mode target =
  Result.bind (reference_walk w ~subject target) (fun node ->
      Result.map (fun () -> node) (reference_check w.monitor ~subject node mode))

let reference_remove w ~subject target =
  let ( let* ) = Result.bind in
  let* parent_path =
    Option.to_result ~none:(Resolver.Name_error (Namespace.Already_exists Path.root))
      (Path.parent target)
  in
  let* parent = reference_walk w ~subject parent_path in
  let* () = reference_check w.monitor ~subject parent Access_mode.List in
  let* victim = scan parent (Option.get (Path.basename target)) target in
  let* () = reference_check w.monitor ~subject victim Access_mode.Delete in
  let* () =
    match
      Reference_monitor.check_attach w.monitor (Reference_monitor.policy w.monitor)
        (Principal.Db.snapshot (Reference_monitor.db w.monitor))
        ~subject ~parent:(Namespace.meta parent)
        ~child:(Namespace.meta victim) ~object_name:(Path.to_string target)
    with
    | Decision.Granted -> Ok ()
    | Decision.Denied denial ->
      Error
        (Resolver.Denied
           { at = target; label = Path.to_string target; mode = Access_mode.Write; denial })
  in
  Result.map_error (fun error -> Resolver.Name_error error) (Namespace.remove w.ns target)

(* An op's outcome with the audit events it appended, projected to
   what both sides must agree on. *)
let observe w f =
  let audit = Reference_monitor.audit w.monitor in
  let before = Audit.total audit in
  let outcome = f () in
  let events = Audit.tail audit ~count:(Audit.total audit - before) in
  ( outcome,
    List.map (fun (e : Audit.event) -> e.object_name, e.mode, e.decision) events )

let node_outcome = Result.map Namespace.path
let unit_outcome = Result.map (fun () -> Path.root)

(* What kind of case an agreed outcome exercised, for the coverage
   test below. *)
let outcome_tag w op = function
  | Ok _ when String.equal op "remove" -> "removed"
  | Ok path -> (
    match Path.parent path with
    | Some parent when (
        match Namespace.find w.ns parent with
        | Ok dir -> List.length (Namespace.children dir) > wide_width
        | Error _ -> false) ->
      "found in a wide directory"
    | _ -> "found")
  | Error (Resolver.Denied { mode = Access_mode.List; at; _ }) ->
    Printf.sprintf "List denied at depth %d" (min 2 (Path.depth at))
  | Error (Resolver.Denied _) -> "target denied"
  | Error (Resolver.Name_error (Namespace.Not_found _)) -> "missing name"
  | Error (Resolver.Name_error (Namespace.Not_a_directory _)) -> "leaf mid-path"
  | Error (Resolver.Name_error _) -> "other name error"

let ops_per_world = 40

(* [Ok tags] when both walks agree on every op, [Error report] at the
   first op they do not. *)
let differential seed =
  let a = build_world seed and b = build_world seed in
  let rng = Random.State.make [| seed; 1 |] in
  let rec run i tags =
    if i = ops_per_world then Ok tags
    else begin
      let subject =
        if Random.State.int rng 5 = 0 then Subject.make admin high else alice_low ()
      in
      let target = random_path rng a.built in
      let op, got, expected =
        match Random.State.int rng 4 with
        | 0 ->
          ( "remove",
            observe a (fun () -> unit_outcome (Resolver.remove a.resolver ~subject target)),
            observe b (fun () -> unit_outcome (reference_remove b ~subject target)) )
        | 1 ->
          ( "lookup",
            observe a (fun () -> node_outcome (Resolver.lookup a.resolver ~subject target)),
            observe b (fun () -> node_outcome (reference_walk b ~subject target)) )
        | _ ->
          let mode = List.nth Access_mode.all (Random.State.int rng (List.length Access_mode.all)) in
          ( "resolve " ^ Access_mode.to_string mode,
            observe a (fun () -> node_outcome (Resolver.resolve a.resolver ~subject ~mode target)),
            observe b (fun () -> node_outcome (reference_resolve b ~subject ~mode target)) )
      in
      if got = expected then run (i + 1) (outcome_tag b op (fst got) :: tags)
      else
        let show (outcome, events) =
          Printf.sprintf "%s with %d audit event(s)"
            (match outcome with
            | Ok path -> Path.to_string path
            | Error denial -> Format.asprintf "%a" Resolver.pp_denial denial)
            (List.length events)
        in
        Error
          (Printf.sprintf "seed %d, op %d: %s %s by %s: walk gave %s, reference %s" seed i op
             (Path.to_string target)
             (Principal.individual_name (Subject.principal subject))
             (show got) (show expected))
    end
  in
  run 0 []

let prop_walk_matches_sorted_scan =
  QCheck.Test.make ~name:"walk agrees with the sorted-scan reference" ~count:100
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      match differential seed with
      | Ok _ -> true
      | Error report -> QCheck.Test.fail_report report)

(* Fixed seeds, so the coverage claim is reproducible: over them the
   differential meets every case the random trees are built to hold. *)
let test_differential_coverage () =
  let seen = Hashtbl.create 16 in
  for seed = 0 to 99 do
    match differential seed with
    | Ok tags -> List.iter (fun tag -> Hashtbl.replace seen tag ()) tags
    | Error report -> Alcotest.fail report
  done;
  List.iter
    (fun tag -> check tag true (Hashtbl.mem seen tag))
    [
      "found";
      "found in a wide directory";
      "removed";
      "List denied at depth 0";
      "List denied at depth 1";
      "List denied at depth 2";
      "target denied";
      "missing name";
      "leaf mid-path";
      "other name error";
    ]

(* {1 Width pin}

   A checked resolve costs one probe per level, so its allocation does
   not depend on how wide the directories it walks through are.  Both
   resolves below walk the same depth and write the same audit
   records; only the width of [/wide] differs. *)

let resolve_words ~width =
  let _, _, ns, r = setup () in
  let meta = world_listable admin bottom in
  let dir =
    match Namespace.add_dir ns (Path.of_string "/wide") ~meta with
    | Ok dir -> dir
    | Error e -> Alcotest.failf "add_dir: %a" Namespace.pp_error e
  in
  for i = 0 to width - 1 do
    match Namespace.add_leaf_at ns dir (Printf.sprintf "f%04d" i) ~meta i with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "add_leaf_at: %a" Namespace.pp_error e
  done;
  let subject = alice_low () in
  let target = Path.of_string "/wide/f0001" in
  let resolve () =
    ignore (ok "resolve" (Resolver.resolve r ~subject ~mode:Access_mode.Read target))
  in
  (* The first resolve compiles and memoizes every ACL on the walk. *)
  resolve ();
  let runs = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    resolve ()
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int runs

let test_resolve_words_flat_in_width () =
  let narrow = resolve_words ~width:2 in
  let wide = resolve_words ~width:1024 in
  if wide > narrow then
    Alcotest.failf "resolve allocates %.0f words through 1,024 entries vs %.0f through 2" wide
      narrow

(* A granted resolution of depth d allocates its d+1 audit records (8
   words each) and the one [Ok] it returns, and nothing else: the walk
   builds no segment list, no closure and no span box. *)
let test_resolve_allocates_only_records () =
  let _, monitor, ns, r = setup () in
  let meta = world_listable admin bottom in
  let a = Result.get_ok (Namespace.add_dir ns (Path.of_string "/a") ~meta) in
  let b = Result.get_ok (Namespace.add_dir_at ns a "b" ~meta) in
  ignore (Result.get_ok (Namespace.add_leaf_at ns b "c" ~meta 3));
  let subject = alice_low () in
  let target = Path.of_string "/a/b/c" in
  let resolve () = ignore (Resolver.resolve r ~subject ~mode:Access_mode.Read target) in
  resolve ();
  let audit = Reference_monitor.audit monitor in
  let records0 = Audit.total audit in
  check "granted" true (Result.is_ok (Resolver.resolve r ~subject ~mode:Access_mode.Read target));
  Alcotest.(check int) "four audit records" 4 (Audit.total audit - records0);
  let calls = 10_000 in
  let run () =
    for _ = 1 to calls do
      resolve ()
    done
  in
  let minor_delta f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = minor_delta (fun () -> ()) in
  let per_call = (minor_delta run -. baseline) /. float_of_int calls in
  Alcotest.(check (float 0.)) "words per resolve: 4 records x 8 + Ok" 34. per_call

(* A denial on a node of the walk reports the node's label, rendered
   when the node was inserted: the service error renders no path. *)
let test_denial_reports_label () =
  let _, _, ns, r = setup () in
  let admin_subject = Subject.make ~trusted:true admin high in
  let hidden = Path.of_string "/secret" and closed = Path.of_string "/closed" in
  let _ = ok "hidden dir" (Resolver.create_dir r ~subject:admin_subject hidden ~meta:(Meta.make ~owner:admin bottom)) in
  let _ =
    ok "inner leaf"
      (Resolver.create_leaf r ~subject:admin_subject (Path.of_string "/secret/x")
         ~meta:(world_listable admin bottom) 1)
  in
  let _ =
    ok "closed leaf"
      (Resolver.create_leaf r ~subject:admin_subject closed ~meta:(Meta.make ~owner:admin bottom) 2)
  in
  let reported_at target mode =
    match Resolver.resolve r ~subject:(alice_low ()) ~mode target with
    | Ok _ -> Alcotest.failf "%s granted" (Path.to_string target)
    | Error denial -> (
      match Exsec_extsys.Service.error_of_denial denial with
      | Exsec_extsys.Service.Denied { at; _ } -> at
      | other -> Alcotest.failf "unexpected: %s" (Exsec_extsys.Service.error_to_string other))
  in
  let label path = Namespace.label (Result.get_ok (Namespace.find ns path)) in
  check "List denial at /secret" true
    (reported_at (Path.of_string "/secret/x") Access_mode.Read == label hidden);
  check "target denial at /closed" true (reported_at closed Access_mode.Read == label closed)

(* A 100,000-segment path resolves to a typed error, with no
   [Stack_overflow], and the walk stops where the name does. *)
let test_deep_resolve () =
  let _, monitor, ns, r = setup () in
  let meta = world_listable admin bottom in
  ignore (Result.get_ok (Namespace.add_dir ns (Path.of_string "/a") ~meta));
  let deep = Path.of_string ("/a/" ^ String.concat "/" (List.init 100_000 (fun _ -> "x"))) in
  let audit = Reference_monitor.audit monitor in
  let records0 = Audit.total audit in
  (match Resolver.resolve r ~subject:(alice_low ()) ~mode:Access_mode.Read deep with
  | Error (Resolver.Name_error (Namespace.Not_found missing)) ->
    check "names the target" true (Path.equal missing deep)
  | Ok _ -> Alcotest.fail "resolved a missing name"
  | Error e -> Alcotest.failf "unexpected: %a" Resolver.pp_denial e);
  Alcotest.(check int) "List checked on / and /a only" 2 (Audit.total audit - records0);
  match Resolver.lookup r ~subject:(alice_low ()) deep with
  | Error (Resolver.Name_error (Namespace.Not_found _)) -> ()
  | _ -> Alcotest.fail "lookup: expected Not_found"

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_walk_matches_sorted_scan;
      Alcotest.test_case "differential covers every case" `Quick test_differential_coverage;
      Alcotest.test_case "resolve words flat in width" `Quick test_resolve_words_flat_in_width;
      Alcotest.test_case "resolve allocates only its records" `Quick
        test_resolve_allocates_only_records;
      Alcotest.test_case "a 100,000-segment resolve" `Quick test_deep_resolve;
      Alcotest.test_case "a node denial reports the node's label" `Quick
        test_denial_reports_label;
    ]
