(* End-to-end reproductions: the ThreadMurder containment argument
   (paper, section 1.2) and the new-file-system motivating example
   (section 1.1), both run on the full stack. *)

open Exsec_core
open Exsec_extsys
open Exsec_services

let check = Alcotest.(check bool)

let ok label = function
  | Ok value -> value
  | Error e -> Alcotest.failf "%s: %s" label (Service.error_to_string e)

(* {1 ThreadMurder} *)

(* The applet from McGraw & Felten: it enumerates every thread it can
   see and kills them all, including applets loaded after it.  Under
   the paper's model each thread is a protected object: the murderer
   only reaches threads its class can delete. *)

let boot_applet_world () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  List.iter
    (fun name -> Principal.Db.add_individual db (Principal.individual name))
    [ "admin"; "dept1"; "dept2"; "murderer" ];
  let hierarchy = Level.hierarchy [ "local"; "organization"; "others" ] in
  let universe = Category.universe [ "d1"; "d2" ] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let cls level cats =
    Security_class.make (Level.of_name_exn hierarchy level) (Category.of_names universe cats)
  in
  kernel, cls

let immortal () = Thread.Runnable

let murder kernel ~subject =
  (* Enumerate /threads and try to kill everything: exactly what the
     ThreadMurder applet does. *)
  let visible =
    match Resolver.list_dir (Kernel.resolver kernel) ~subject (Path.of_string "/threads") with
    | Ok names -> names
    | Error _ -> []
  in
  List.fold_left
    (fun killed name ->
      match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
      | None -> killed
      | Some id -> (
        match Kernel.kill kernel ~subject ~victim:id with
        | Ok () -> killed + 1
        | Error _ -> killed))
    0 visible

let test_thread_murder_contained () =
  let kernel, cls = boot_applet_world () in
  let d1 = Subject.make (Principal.individual "dept1") (cls "organization" [ "d1" ]) in
  let d2 = Subject.make (Principal.individual "dept2") (cls "organization" [ "d2" ]) in
  let murderer_principal = Principal.individual "murderer" in
  (* The murderer is an applet from the same organization, department
     1 — it shares a level and one category with its victims. *)
  let murderer = Subject.make murderer_principal (cls "organization" [ "d1" ]) in
  let v1 = ok "spawn v1" (Kernel.spawn kernel ~subject:d1 ~name:"victim-d1" ~body:immortal) in
  let v2 = ok "spawn v2" (Kernel.spawn kernel ~subject:d2 ~name:"victim-d2" ~body:immortal) in
  let own = ok "spawn own" (Kernel.spawn kernel ~subject:murderer ~name:"own" ~body:immortal) in
  (* A victim loaded after the murderer starts, like the applets the
     ThreadMurder incident killed retroactively. *)
  let v3 = ok "spawn v3" (Kernel.spawn kernel ~subject:d1 ~name:"late-victim" ~body:immortal) in
  let killed = murder kernel ~subject:murderer in
  (* Only its own thread dies: DAC protects same-category victims
     (owner-only ACLs), MAC the rest. *)
  Alcotest.(check int) "only its own thread" 1 killed;
  check "v1 alive" true (Thread.is_alive v1);
  check "v2 alive" true (Thread.is_alive v2);
  check "v3 alive" true (Thread.is_alive v3);
  check "own dead" true (Thread.state own = Thread.Killed)

let test_thread_murder_java_baseline () =
  (* The same attack under the Java-sandbox baseline: one flat
     sandbox, no per-thread protection — everything dies.  We model
     the sandbox by running all applets at one shared class with
     world-open thread ACLs. *)
  let kernel, cls = boot_applet_world () in
  let sandbox_class = cls "organization" [ "d1" ] in
  let world_open_thread_acl = Acl.of_entries [ Acl.allow_all Acl.Everyone ] in
  let spawn name principal =
    let subject = Subject.make (Principal.individual principal) sandbox_class in
    let thread = ok "spawn" (Kernel.spawn kernel ~subject ~name ~body:immortal) in
    let ns = Kernel.namespace kernel in
    Namespace.publish ns
      (Result.get_ok (Namespace.find ns (Kernel.thread_path (Thread.id thread))))
      (fun meta -> Meta.with_acl meta world_open_thread_acl);
    thread
  in
  let v1 = spawn "victim1" "dept1" in
  let v2 = spawn "victim2" "dept2" in
  let murderer = Subject.make (Principal.individual "murderer") sandbox_class in
  let own = ok "own" (Kernel.spawn kernel ~subject:murderer ~name:"own" ~body:immortal) in
  let v3 = spawn "late" "dept1" in
  let killed = murder kernel ~subject:murderer in
  Alcotest.(check int) "sandbox: everything dies" 4 killed;
  check "v1 dead" false (Thread.is_alive v1);
  check "v2 dead" false (Thread.is_alive v2);
  check "v3 dead" false (Thread.is_alive v3);
  check "own dead" false (Thread.is_alive own)

(* {1 The new-file-system extension} *)

let test_fs_extension_end_to_end () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let dev = Principal.individual "dev" in
  let user = Principal.individual "user" in
  List.iter (Principal.Db.add_individual db) [ admin; dev; user ];
  let hierarchy = Level.hierarchy [ "local"; "outside" ] in
  let universe = Category.universe [] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  let local =
    Security_class.make (Level.of_name_exn hierarchy "local") (Category.empty universe)
  in
  let dev_sub = Subject.make dev local in
  let user_sub = Subject.make user local in
  (* Base system services: mbuf and the vfs switch. *)
  let pool = Mbuf.create () in
  let () = ok "mbuf" (Mbuf.install pool kernel ~subject:admin_sub) in
  let vfs = ok "vfs" (Vfs.install kernel ~subject:admin_sub) in
  let () = ok "grant" (Vfs.grant_extend vfs ~subject:admin_sub (Acl.Individual dev)) in
  (* The extension implements a file system on top of mbuf buffers:
     one buffer per file, an assoc table for names.  It both CALLS
     existing services (mbuf) and EXTENDS an existing interface (the
     vfs backend events) — the two interaction modes of section 1.1. *)
  let table : (string * int) list ref = ref [] in
  let mbuf_path name = Path.of_string ("/svc/mbuf/" ^ name) in
  let backend_write ctx args =
    match args with
    | [ Value.Str _; Value.Str file; Value.Str data ] -> (
      let handle_result =
        match List.assoc_opt file !table with
        | Some handle ->
          (match ctx.Service.call (mbuf_path "reset") [ Value.int handle ] with
          | Ok _ -> Ok handle
          | Error e -> Error e)
        | None -> (
          match ctx.Service.call (mbuf_path "alloc") [] with
          | Ok (Value.Int handle) ->
            table := (file, handle) :: !table;
            Ok handle
          | Ok _ -> Error (Service.Ext_failure "alloc: bad result")
          | Error e -> Error e)
      in
      match handle_result with
      | Error e -> Error e
      | Ok handle -> (
        match
          ctx.Service.call (mbuf_path "write")
            [ Value.int handle; Value.blob (Bytes.of_string data) ]
        with
        | Ok _ -> Ok Value.unit
        | Error e -> Error e))
    | _ -> Error (Service.Bad_argument "backend_write")
  in
  let backend_read ctx args =
    match args with
    | [ Value.Str _; Value.Str file ] -> (
      match List.assoc_opt file !table with
      | None -> Error (Service.Ext_failure (file ^ ": not found"))
      | Some handle -> (
        match ctx.Service.call (mbuf_path "read") [ Value.int handle ] with
        | Ok (Value.Blob b) -> Ok (Value.str (Bytes.to_string b))
        | Ok _ -> Error (Service.Ext_failure "read: bad result")
        | Error e -> Error e))
    | _ -> Error (Service.Bad_argument "backend_read")
  in
  let ext =
    Extension.make ~name:"bufferfs" ~author:dev
      ~imports:
        [ mbuf_path "alloc"; mbuf_path "free"; mbuf_path "write"; mbuf_path "read"; mbuf_path "reset" ]
      ~extends:
        [
          Extension.extends ~guard:(Vfs.guard_fstype "bufferfs") Vfs.backend_read_event backend_read;
          Extension.extends ~guard:(Vfs.guard_fstype "bufferfs") Vfs.backend_write_event backend_write;
        ]
      ()
  in
  (match Linker.link kernel ~subject:dev_sub ext with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "link: %s" (Format.asprintf "%a" Linker.pp_link_error e));
  let () = ok "mount" (Vfs.mount_fs vfs ~subject:admin_sub ~fstype:"bufferfs" ~prefix:"/buf/") in
  (* The user exercises the new file system through the EXISTING
     general interface, never naming the extension. *)
  let () = ok "write" (Vfs.write vfs ~subject:user_sub "/buf/greeting" "hello extension") in
  Alcotest.(check string) "read" "hello extension"
    (ok "read" (Vfs.read vfs ~subject:user_sub "/buf/greeting"));
  let () = ok "overwrite" (Vfs.write vfs ~subject:user_sub "/buf/greeting" "v2") in
  Alcotest.(check string) "read v2" "v2" (ok "read2" (Vfs.read vfs ~subject:user_sub "/buf/greeting"));
  check "mbuf used" true (Mbuf.allocated_total pool >= 1)

let test_audit_covers_everything () =
  (* Every kernel operation leaves an audit trail — the central
     facility sees it all. *)
  let kernel, cls = boot_applet_world () in
  let monitor = Kernel.monitor kernel in
  let before = Audit.total (Reference_monitor.audit monitor) in
  let d1 = Subject.make (Principal.individual "dept1") (cls "organization" [ "d1" ]) in
  let _ = Kernel.spawn kernel ~subject:d1 ~name:"t" ~body:immortal in
  let _ = Kernel.call kernel ~subject:d1 ~caller:"t" (Path.of_string "/svc/none") [] in
  let after = Audit.total (Reference_monitor.audit monitor) in
  check "operations audited" true (after > before)

let suite =
  [
    Alcotest.test_case "thread murder contained" `Quick test_thread_murder_contained;
    Alcotest.test_case "thread murder under java" `Quick test_thread_murder_java_baseline;
    Alcotest.test_case "fs extension end-to-end" `Quick test_fs_extension_end_to_end;
    Alcotest.test_case "audit coverage" `Quick test_audit_covers_everything;
  ]

let test_extension_stacking () =
  (* Extension B builds on a procedure PROVIDED by extension A — the
     composition story of section 1.1, with every hop checked. *)
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let vendor = Principal.individual "vendor" in
  let dev = Principal.individual "dev" in
  let eve = Principal.individual "eve" in
  List.iter (Principal.Db.add_individual db) [ admin; vendor; dev; eve ];
  let hierarchy = Level.hierarchy [ "local"; "outside" ] in
  let universe = Category.universe [] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let local = Security_class.make (Level.top hierarchy) (Category.empty universe) in
  let vendor_sub = Subject.make vendor local in
  let dev_sub = Subject.make dev local in
  (* A provides a rot13 primitive. *)
  let rot13 text =
    String.map
      (fun c ->
        let rot base = Char.chr ((Char.code c - Char.code base + 13) mod 26 + Char.code base) in
        if c >= 'a' && c <= 'z' then rot 'a'
        else if c >= 'A' && c <= 'Z' then rot 'A'
        else c)
      text
  in
  let ext_a =
    Extension.make ~name:"cipher" ~author:vendor
      ~provides:
        [
          Extension.provided "rot13" 1 (fun _ctx args ->
              match args with
              | [ Value.Str s ] -> Ok (Value.str (rot13 s))
              | _ -> Error (Service.Bad_argument "rot13"));
        ]
      ()
  in
  (match Linker.link kernel ~subject:vendor_sub ext_a with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "link A: %s" (Format.asprintf "%a" Linker.pp_link_error e));
  let rot13_path = Path.of_string "/ext/cipher/rot13" in
  (* B imports A's provided procedure and provides a doubler on top. *)
  let ext_b =
    Extension.make ~name:"doubler" ~author:dev ~imports:[ rot13_path ]
      ~provides:
        [
          Extension.provided "rot26" 1 (fun ctx args ->
              match ctx.Service.call rot13_path args with
              | Ok once -> ctx.Service.call rot13_path [ once ]
              | Error e -> Error e);
        ]
      ()
  in
  (match Linker.link kernel ~subject:dev_sub ext_b with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "link B: %s" (Format.asprintf "%a" Linker.pp_link_error e));
  (* rot13 twice is the identity; the call chain crosses the kernel
     twice under dev's authority. *)
  (match
     Kernel.call kernel ~subject:dev_sub ~caller:"test" (Path.of_string "/ext/doubler/rot26")
       [ Value.str "Attack at dawn" ]
   with
  | Ok (Value.Str "Attack at dawn") -> ()
  | Ok other -> Alcotest.failf "rot26 returned %s" (Format.asprintf "%a" Value.pp other)
  | Error e -> Alcotest.failf "rot26: %s" (Service.error_to_string e));
  (* The vendor withdraws world access to rot13: B's users feel the
     revocation on the next call (per-call recheck inside handler
     ctx.call, since provided procs are invoked checked). *)
  (match
     Resolver.set_acl (Kernel.resolver kernel) ~subject:vendor_sub rot13_path
       (Acl.owner_default vendor)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "revoke: %s" (Format.asprintf "%a" Resolver.pp_denial e));
  match
    Kernel.call kernel ~subject:dev_sub ~caller:"test" (Path.of_string "/ext/doubler/rot26")
      [ Value.str "hi" ]
  with
  | Error (Service.Denied { mode = Access_mode.Execute; _ }) -> ()
  | Ok _ -> Alcotest.fail "call after revocation"
  | Error other -> Alcotest.failf "unexpected: %s" (Service.error_to_string other)

let suite =
  suite @ [ Alcotest.test_case "extension stacking" `Quick test_extension_stacking ]
