open Exsec_core
open Exsec_extsys
open Exsec_services

let check = Alcotest.(check bool)

let boot () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  let eve = Principal.individual "eve" in
  List.iter (Principal.Db.add_individual db) [ admin; alice; eve ];
  let hierarchy = Level.hierarchy [ "local"; "outside" ] in
  let universe = Category.universe [] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  let vfs =
    match Vfs.install kernel ~subject:admin_sub with
    | Ok vfs -> vfs
    | Error e -> Alcotest.failf "install: %s" (Service.error_to_string e)
  in
  kernel, vfs, admin, alice, eve

let cls kernel level =
  Security_class.make
    (Level.of_name_exn (Kernel.hierarchy kernel) level)
    (Category.empty (Kernel.universe kernel))

let ok label = function
  | Ok value -> value
  | Error e -> Alcotest.failf "%s: %s" label (Service.error_to_string e)

(* A trivial in-handler backend storing data in an assoc ref. *)
let register_backend kernel ~owner ~klass ~fstype store =
  let read_impl _ctx args =
    match args with
    | [ Value.Str _; Value.Str subpath ] -> (
      match List.assoc_opt subpath !store with
      | Some data -> Ok (Value.str data)
      | None -> Error (Service.Ext_failure (subpath ^ ": no such file")))
    | _ -> Error (Service.Bad_argument "backend_read")
  in
  let write_impl _ctx args =
    match args with
    | [ Value.Str _; Value.Str subpath; Value.Str data ] ->
      store := (subpath, data) :: List.remove_assoc subpath !store;
      Ok Value.unit
    | _ -> Error (Service.Bad_argument "backend_write")
  in
  let stat_impl _ctx args =
    match args with
    | [ Value.Str _; Value.Str subpath ] -> (
      match List.assoc_opt subpath !store with
      | Some data -> Ok (Value.int (String.length data))
      | None -> Error (Service.Ext_failure "missing"))
    | _ -> Error (Service.Bad_argument "backend_stat")
  in
  let register event impl =
    Events.register kernel event
      { Dispatcher.owner; klass; guard = Some (Vfs.guard_fstype fstype); impl }
  in
  register Vfs.backend_read_event read_impl;
  register Vfs.backend_write_event write_impl;
  register Vfs.backend_stat_event stat_impl

let test_mount_routing () =
  let kernel, vfs, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let store = ref [] in
  register_backend kernel ~owner:"memback" ~klass:(cls kernel "outside") ~fstype:"mem" store;
  let () = ok "mount" (Vfs.mount_fs vfs ~subject:admin_sub ~fstype:"mem" ~prefix:"/data/") in
  let alice_sub = Subject.make alice (cls kernel "local") in
  let () = ok "write" (Vfs.write vfs ~subject:alice_sub "/data/hello" "world") in
  Alcotest.(check string) "read back" "world" (ok "read" (Vfs.read vfs ~subject:alice_sub "/data/hello"));
  Alcotest.(check int) "stat" 5 (ok "stat" (Vfs.stat vfs ~subject:alice_sub "/data/hello"));
  match Vfs.read vfs ~subject:alice_sub "/elsewhere/x" with
  | Error (Service.Unresolved _) -> ()
  | _ -> Alcotest.fail "unmounted path routed"

let test_longest_prefix_wins () =
  let kernel, vfs, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let store_a = ref [ "f", "A"; "deep/f", "A2" ] in
  let store_b = ref [ "f", "B" ] in
  register_backend kernel ~owner:"a" ~klass:(cls kernel "outside") ~fstype:"fsa" store_a;
  register_backend kernel ~owner:"b" ~klass:(cls kernel "outside") ~fstype:"fsb" store_b;
  let () = ok "mount a" (Vfs.mount_fs vfs ~subject:admin_sub ~fstype:"fsa" ~prefix:"/m/") in
  let () = ok "mount b" (Vfs.mount_fs vfs ~subject:admin_sub ~fstype:"fsb" ~prefix:"/m/deep/") in
  let alice_sub = Subject.make alice (cls kernel "local") in
  Alcotest.(check string) "deep goes to b" "B" (ok "read b" (Vfs.read vfs ~subject:alice_sub "/m/deep/f"));
  (* /m/f -> fsa with subpath "f" *)
  Alcotest.(check string) "shallow goes to a" "A" (ok "read a" (Vfs.read vfs ~subject:alice_sub "/m/f"));
  let () = ok "unmount" (Vfs.unmount_fs vfs ~subject:admin_sub ~prefix:"/m/deep/") in
  Alcotest.(check string) "after unmount" "A2" (ok "read a2" (Vfs.read vfs ~subject:alice_sub "/m/deep/f"))

let test_mount_requires_right () =
  let kernel, vfs, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "local") in
  match Vfs.mount_fs vfs ~subject:alice_sub ~fstype:"mem" ~prefix:"/x/" with
  | Error (Service.Denied { mode = Access_mode.Execute; _ }) -> ()
  | _ -> Alcotest.fail "non-admin mounted"

let test_backend_class_selection () =
  let kernel, vfs, _, alice, eve = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  (* Two backends for the same fstype at different classes. *)
  let store_fast = ref [ "f", "fast" ] in
  let store_slow = ref [ "f", "slow" ] in
  register_backend kernel ~owner:"fast" ~klass:(cls kernel "local") ~fstype:"dual" store_fast;
  register_backend kernel ~owner:"slow" ~klass:(cls kernel "outside") ~fstype:"dual" store_slow;
  let () = ok "mount" (Vfs.mount_fs vfs ~subject:admin_sub ~fstype:"dual" ~prefix:"/d/") in
  let local_sub = Subject.make alice (cls kernel "local") in
  let out_sub = Subject.make eve (cls kernel "outside") in
  Alcotest.(check string) "local caller gets local backend" "fast"
    (ok "local" (Vfs.read vfs ~subject:local_sub "/d/f"));
  Alcotest.(check string) "outside caller gets outside backend" "slow"
    (ok "outside" (Vfs.read vfs ~subject:out_sub "/d/f"))

let test_grant_extend () =
  let kernel, vfs, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let alice_sub = Subject.make alice (cls kernel "local") in
  (* Without the grant, alice cannot register a backend via an
     extension. *)
  let ext store =
    Extension.make ~name:"alicefs" ~author:alice
      ~extends:
        [
          Extension.extends ~guard:(Vfs.guard_fstype "afs") Vfs.backend_read_event
            (fun _ctx args ->
              match args with
              | [ Value.Str _; Value.Str subpath ] ->
                Ok (Value.str (subpath ^ "@" ^ string_of_int !store))
              | _ -> Error (Service.Bad_argument "x"));
        ]
      ()
  in
  (match Linker.link kernel ~subject:alice_sub (ext (ref 1)) with
  | Error (Linker.Extend_denied _) -> ()
  | _ -> Alcotest.fail "extend without grant");
  let () = ok "grant" (Vfs.grant_extend vfs ~subject:admin_sub (Acl.Individual alice)) in
  match Linker.link kernel ~subject:alice_sub (ext (ref 2)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "link after grant: %s" (Format.asprintf "%a" Linker.pp_link_error e)

let suite =
  [
    Alcotest.test_case "mount and route" `Quick test_mount_routing;
    Alcotest.test_case "longest prefix" `Quick test_longest_prefix_wins;
    Alcotest.test_case "mount requires right" `Quick test_mount_requires_right;
    Alcotest.test_case "backend class selection" `Quick test_backend_class_selection;
    Alcotest.test_case "grant extend" `Quick test_grant_extend;
  ]

let test_unmount_then_access () =
  let kernel, vfs, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let store = ref [ "f", "x" ] in
  register_backend kernel ~owner:"b" ~klass:(cls kernel "outside") ~fstype:"tmp" store;
  let () = ok "mount" (Vfs.mount_fs vfs ~subject:admin_sub ~fstype:"tmp" ~prefix:"/t/") in
  let alice_sub = Subject.make alice (cls kernel "local") in
  let _ = ok "read" (Vfs.read vfs ~subject:alice_sub "/t/f") in
  let () = ok "unmount" (Vfs.unmount_fs vfs ~subject:admin_sub ~prefix:"/t/") in
  (match Vfs.read vfs ~subject:alice_sub "/t/f" with
  | Error (Service.Unresolved _) -> ()
  | _ -> Alcotest.fail "read after unmount");
  Alcotest.(check int) "table empty" 0 (List.length (Vfs.mounts vfs))

let test_remount_replaces () =
  let kernel, vfs, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let store_a = ref [ "f", "A" ] in
  let store_b = ref [ "f", "B" ] in
  register_backend kernel ~owner:"a" ~klass:(cls kernel "outside") ~fstype:"fa" store_a;
  register_backend kernel ~owner:"b" ~klass:(cls kernel "outside") ~fstype:"fb" store_b;
  let () = ok "mount a" (Vfs.mount_fs vfs ~subject:admin_sub ~fstype:"fa" ~prefix:"/m/") in
  let () = ok "remount b" (Vfs.mount_fs vfs ~subject:admin_sub ~fstype:"fb" ~prefix:"/m/") in
  let alice_sub = Subject.make alice (cls kernel "local") in
  Alcotest.(check string) "b serves" "B" (ok "read" (Vfs.read vfs ~subject:alice_sub "/m/f"));
  Alcotest.(check int) "one entry" 1 (List.length (Vfs.mounts vfs))

let test_backend_missing_handler () =
  let kernel, vfs, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  (* Mounted fstype with no registered backend: the event dispatch
     finds no handler. *)
  let () = ok "mount" (Vfs.mount_fs vfs ~subject:admin_sub ~fstype:"ghostfs" ~prefix:"/g/") in
  ignore kernel;
  let alice_sub = Subject.make alice (cls kernel "local") in
  match Vfs.read vfs ~subject:alice_sub "/g/x" with
  | Error (Service.No_handler _) -> ()
  | _ -> Alcotest.fail "expected No_handler"

let suite =
  suite
  @ [
      Alcotest.test_case "unmount then access" `Quick test_unmount_then_access;
      Alcotest.test_case "remount replaces" `Quick test_remount_replaces;
      Alcotest.test_case "missing backend" `Quick test_backend_missing_handler;
    ]
