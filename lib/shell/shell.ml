open Exsec_core
open Exsec_extsys
open Exsec_services

type t = {
  kernel : Kernel.t;
  fs : Memfs.t;
  log : Syslog.t;
  net : Netstack.t;
  registry : Clearance.t;
  hierarchy : Level.hierarchy;
  universe : Category.universe;
  mutable subject : Subject.t;
  conns : (string, Netstack.conn) Hashtbl.t;
}

let help =
  String.concat "\n"
    [
      "session    login NAME [LEVEL CAT...]   whoami";
      "names      ls [PATH]   stat PATH   mkdir /fs/DIR   rm /fs/PATH";
      "files      cat /fs/PATH   write /fs/PATH TEXT...   append /fs/PATH TEXT...";
      "protection allow PATH WHO MODE...   deny PATH WHO MODE...   setclass PATH LEVEL [CAT...]";
      "           (WHO is user:NAME, group:NAME or everyone)";
      "services   call PATH [ARG...]   extensions   load cipher|shout   unload NAME";
      "threads    spawn NAME QUANTA   threads   kill ID   run";
      "network    listen HOST PORT   connect HOST PORT   send HOST PORT TEXT...   recv HOST PORT";
      "audit      audit [N]   flow   syslog TEXT...   readlog";
      "quota      quota NAME CALLS [THREADS [EXTS]]   quota NAME off";
      "misc       export   help";
    ]

(* {1 Boot} *)

let kernel_admin = Principal.individual "admin"

let default_registry hierarchy universe db registry =
  let cls level cats =
    Security_class.make (Level.of_name_exn hierarchy level) (Category.of_names universe cats)
  in
  let add name ?(trusted = false) klass =
    let ind = Principal.individual name in
    Principal.Db.add_individual db ind;
    Clearance.register registry ~trusted ind klass
  in
  add "admin" ~trusted:true (Security_class.top hierarchy universe);
  add "alice" (cls "local" [ "department-1" ]);
  add "bob" (cls "organization" [ "department-2" ]);
  add "eve" (cls "others" [])

let materialize_objects t (built : Policy_text.built) =
  let admin_sub = Kernel.admin_subject t.kernel in
  let skipped = ref [] in
  List.iter
    (fun (path_string, meta) ->
      let path = Path.of_string path_string in
      if Path.is_prefix (Memfs.mount_path t.fs) path && Path.depth path > 1 then begin
        (* Ensure intermediate directories exist. *)
        List.iter
          (fun prefix ->
            if
              Path.depth prefix > 1
              && (not (Path.equal prefix path))
              && not (Namespace.mem (Kernel.namespace t.kernel) prefix)
            then
              ignore
                (Resolver.create_dir (Kernel.resolver t.kernel) ~subject:admin_sub prefix
                   ~meta:
                     (Meta.make ~owner:kernel_admin
                        ~acl:
                          (Acl.of_entries
                             [
                               Acl.allow_all (Acl.Individual kernel_admin);
                               Acl.allow Acl.Everyone [ Access_mode.List ];
                             ])
                        (Security_class.bottom t.hierarchy t.universe))))
          (Path.prefixes path);
        ignore
          (Resolver.create_leaf (Kernel.resolver t.kernel) ~subject:admin_sub path ~meta
             (Memfs.File (Memfs.file_make "")))
      end
      else skipped := path_string :: !skipped)
    built.Policy_text.metas;
  List.rev !skipped

let create ?policy () =
  let db, hierarchy, universe, registry, built =
    match policy with
    | None ->
      let db = Principal.Db.create () in
      let hierarchy = Level.hierarchy [ "local"; "organization"; "others" ] in
      let universe = Category.universe [ "department-1"; "department-2" ] in
      let registry = Clearance.create () in
      default_registry hierarchy universe db registry;
      db, hierarchy, universe, registry, None
    | Some spec -> (
      match Policy_text.build spec with
      | Error e -> failwith (Format.asprintf "%a" Policy_text.pp_error e)
      | Ok built ->
        ( built.Policy_text.db,
          built.Policy_text.hierarchy,
          built.Policy_text.universe,
          built.Policy_text.registry,
          Some built ))
  in
  try
    Principal.Db.add_individual db kernel_admin;
    let kernel = Kernel.boot ~registry ~db ~admin:kernel_admin ~hierarchy ~universe () in
    let admin_sub = Kernel.admin_subject kernel in
    let ( let* ) = Result.bind in
    let booted =
      let* fs = Memfs.mount kernel ~subject:admin_sub () in
      let* () = Memfs.install_service fs ~subject:admin_sub in
      let* log = Syslog.install kernel ~subject:admin_sub () in
      let* net = Netstack.install kernel ~subject:admin_sub in
      let* () = Introspect.install kernel ~subject:admin_sub in
      Ok (fs, log, net)
    in
    match booted with
    | Error e -> Error (Service.error_to_string e)
    | Ok (fs, log, net) ->
      let t =
        {
          kernel;
          fs;
          log;
          net;
          registry;
          hierarchy;
          universe;
          subject = admin_sub;
          conns = Hashtbl.create 8;
        }
      in
      (match built with
      | None -> ()
      | Some built ->
        ignore (materialize_objects t built);
        (* Apply the policy's resource budgets. *)
        List.iter
          (fun (ind, (q : Policy_text.quota_spec)) ->
            Quota.set (Kernel.quota kernel) ind
              {
                Quota.max_calls = q.Policy_text.q_calls;
                max_threads = q.Policy_text.q_threads;
                max_extensions = q.Policy_text.q_extensions;
              })
          built.Policy_text.quotas);
      Ok t
  with
  | Failure message | Invalid_argument message -> Error message

let prompt t = Format.asprintf "%a> " Subject.pp t.subject

(* {1 Small parsers} *)

let tokens_of line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun token -> String.length token > 0)

let parse_class t level cats =
  match Level.of_name t.hierarchy level with
  | None -> Error (Printf.sprintf "unknown level %S" level)
  | Some level -> (
    match Category.of_names t.universe cats with
    | exception Invalid_argument message -> Error message
    | categories -> Ok (Security_class.make level categories))

let parse_who token =
  match String.index_opt token ':' with
  | None when String.equal token "everyone" -> Ok Acl.Everyone
  | None -> Error (Printf.sprintf "bad principal %S (user:N, group:N, everyone)" token)
  | Some i when i < String.length token - 1 -> (
    let name = String.sub token (i + 1) (String.length token - i - 1) in
    match String.sub token 0 i with
    | "user" -> Ok (Acl.Individual (Principal.individual name))
    | "group" -> Ok (Acl.Group (Principal.group name))
    | other -> Error (Printf.sprintf "bad principal kind %S" other))
  | Some _ -> Error (Printf.sprintf "bad principal %S (empty name)" token)

let parse_modes names =
  let rec walk acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
      match Access_mode.of_string name with
      | Some mode -> walk (mode :: acc) rest
      | None -> Error (Printf.sprintf "unknown mode %S" name))
  in
  walk [] names

let parse_value token =
  match int_of_string_opt token with
  | Some i -> Value.int i
  | None -> (
    match bool_of_string_opt token with
    | Some b -> Value.bool b
    | None -> Value.str token)

let fs_rel path_string =
  let path = Path.of_string path_string in
  match Path.segments path with
  | "fs" :: rest when rest <> [] -> Ok (String.concat "/" rest)
  | _ -> Error (Printf.sprintf "%s: file commands expect paths under /fs" path_string)

let render_error e = "error: " ^ Service.error_to_string e

let render_denial denial = Format.asprintf "error: %a" Resolver.pp_denial denial

(* {1 Canned demo extensions} *)

let canned_extension t name =
  let author = Subject.principal t.subject in
  match name with
  | "cipher" ->
    let rot13 text =
      String.map
        (fun c ->
          let rot base = Char.chr ((Char.code c - Char.code base + 13) mod 26 + Char.code base) in
          if c >= 'a' && c <= 'z' then rot 'a'
          else if c >= 'A' && c <= 'Z' then rot 'A'
          else c)
        text
    in
    Some
      (Extension.make ~name:"cipher" ~author
         ~provides:
           [
             Extension.provided "rot13" 1 (fun _ctx args ->
                 match args with
                 | [ Value.Str s ] -> Ok (Value.str (rot13 s))
                 | _ -> Error (Service.Bad_argument "rot13 STR"));
           ]
         ())
  | "shout" ->
    Some
      (Extension.make ~name:"shout" ~author
         ~imports:[ Path.of_string "/svc/fs/read" ]
         ~provides:
           [
             Extension.provided "upper" 1 (fun _ctx args ->
                 match args with
                 | [ Value.Str s ] -> Ok (Value.str (String.uppercase_ascii s))
                 | _ -> Error (Service.Bad_argument "upper STR"));
             Extension.provided "shout_file" 1 (fun ctx args ->
                 match args with
                 | [ Value.Str file ] -> (
                   match ctx.Service.call (Path.of_string "/svc/fs/read") [ Value.str file ] with
                   | Ok (Value.Str contents) -> Ok (Value.str (String.uppercase_ascii contents))
                   | Ok _ -> Error (Service.Ext_failure "fs read: bad result")
                   | Error e -> Error e)
                 | _ -> Error (Service.Bad_argument "shout_file NAME"));
           ]
         ())
  | _ -> None

(* {1 Commands} *)

let cmd_login t name rest =
  let session_class =
    match rest with
    | [] -> Ok None
    | level :: cats -> Result.map Option.some (parse_class t level cats)
  in
  match session_class with
  | Error message -> "error: " ^ message
  | Ok at -> (
    match Clearance.login t.registry ?at (Principal.individual name) with
    | Ok subject ->
      t.subject <- subject;
      Format.asprintf "logged in as %a" Subject.pp subject
    | Error e -> Format.asprintf "error: %a" Clearance.pp_error e)

let cmd_ls t path_string =
  let path = Path.of_string path_string in
  match Resolver.list_dir (Kernel.resolver t.kernel) ~subject:t.subject path with
  | Ok names -> String.concat "\n" names
  | Error denial -> render_denial denial

let cmd_stat t path_string =
  let path = Path.of_string path_string in
  match Resolver.lookup (Kernel.resolver t.kernel) ~subject:t.subject path with
  | Error denial -> render_denial denial
  | Ok node ->
    let meta = Namespace.meta node in
    Format.asprintf "%s: %s@.%a" path_string
      (if Namespace.is_dir node then "directory" else "leaf")
      Meta.pp meta

let cmd_cat t path_string =
  match fs_rel path_string with
  | Error message -> "error: " ^ message
  | Ok rel -> (
    match Memfs.read t.fs ~subject:t.subject rel with
    | Ok contents -> contents
    | Error e -> render_error e)

let cmd_file_write t append path_string text =
  match fs_rel path_string with
  | Error message -> "error: " ^ message
  | Ok rel -> (
    let result =
      if append then Memfs.append t.fs ~subject:t.subject rel text
      else if Memfs.exists t.fs rel then Memfs.write t.fs ~subject:t.subject rel text
      else Memfs.create t.fs ~subject:t.subject rel text
    in
    match result with
    | Ok () -> "ok"
    | Error e -> render_error e)

let cmd_mkdir t path_string =
  match fs_rel path_string with
  | Error message -> "error: " ^ message
  | Ok rel -> (
    match Memfs.mkdir t.fs ~subject:t.subject rel with
    | Ok () -> "ok"
    | Error e -> render_error e)

let cmd_rm t path_string =
  match fs_rel path_string with
  | Error message -> "error: " ^ message
  | Ok rel -> (
    match Memfs.remove t.fs ~subject:t.subject rel with
    | Ok () -> "ok"
    | Error e -> render_error e)

let cmd_acl_entry t ~allow path_string who_token mode_names =
  match parse_who who_token, parse_modes mode_names with
  | Error message, _ | _, Error message -> "error: " ^ message
  | Ok who, Ok modes -> (
    let path = Path.of_string path_string in
    match Resolver.lookup (Kernel.resolver t.kernel) ~subject:t.subject path with
    | Error denial -> render_denial denial
    | Ok node -> (
      let meta = Namespace.meta node in
      let entry = if allow then Acl.allow who modes else Acl.deny who modes in
      let acl = Acl.add entry meta.Meta.acl in
      match Resolver.set_acl (Kernel.resolver t.kernel) ~subject:t.subject path acl with
      | Ok () -> "ok"
      | Error denial -> render_denial denial))

let cmd_setclass t path_string level cats =
  match parse_class t level cats with
  | Error message -> "error: " ^ message
  | Ok klass -> (
    match
      Resolver.set_class (Kernel.resolver t.kernel) ~subject:t.subject
        (Path.of_string path_string) klass
    with
    | Ok () -> "ok"
    | Error denial -> render_denial denial)

let cmd_call t path_string args =
  match
    Kernel.call t.kernel ~subject:t.subject ~caller:"shell" (Path.of_string path_string)
      (List.map parse_value args)
  with
  | Ok value -> Format.asprintf "%a" Value.pp value
  | Error e -> render_error e

let cmd_spawn t name quanta =
  match int_of_string_opt quanta with
  | None -> "error: spawn NAME QUANTA"
  | Some budget -> (
    let remaining = ref budget in
    let body () =
      decr remaining;
      if !remaining <= 0 then Thread.Finished else Thread.Runnable
    in
    match Kernel.spawn t.kernel ~subject:t.subject ~name ~body with
    | Ok thread -> Printf.sprintf "spawned thread %d" (Thread.id thread)
    | Error e -> render_error e)

let cmd_threads t =
  match Sched.listed (Kernel.sched t.kernel) with
  | [] -> "no live threads"
  | listed ->
    String.concat "\n" (List.map (fun thread -> Format.asprintf "%a" Thread.pp thread) listed)

let cmd_kill t id_string =
  match int_of_string_opt id_string with
  | None -> "error: kill ID"
  | Some victim -> (
    match Kernel.kill t.kernel ~subject:t.subject ~victim with
    | Ok () -> "killed"
    | Error e -> render_error e)

let cmd_audit t count =
  let audit = Reference_monitor.audit (Kernel.monitor t.kernel) in
  let tail = Audit.tail audit ~count in
  Format.asprintf "%d granted, %d denied; last %d:@.%s" (Audit.granted_total audit)
    (Audit.denied_total audit) (List.length tail)
    (String.concat "\n" (List.map (fun e -> Format.asprintf "  %a" Audit.pp_event e) tail))

let cmd_flow t =
  Format.asprintf "%a" Flow.pp_report
    (Flow.analyse_log (Reference_monitor.audit (Kernel.monitor t.kernel)))

let cmd_load t name =
  match canned_extension t name with
  | None -> Printf.sprintf "error: no canned extension %S (cipher, shout)" name
  | Some ext -> (
    match Linker.link t.kernel ~subject:t.subject ext with
    | Ok linked ->
      Printf.sprintf "linked %s; provides under /ext/%s" (Linker.Linked.name linked)
        (Linker.Linked.name linked)
    | Error e -> Format.asprintf "error: %a" Linker.pp_link_error e)

let cmd_unload t name =
  match Linker.unload t.kernel ~subject:t.subject name with
  | Ok () -> "unloaded"
  | Error e -> render_error e

let conn_key host port = Printf.sprintf "%s:%s" host port

let cmd_net t = function
  | [ "listen"; host; port ] -> (
    match int_of_string_opt port with
    | None -> "error: listen HOST PORT"
    | Some port -> (
      match Netstack.listen t.net ~subject:t.subject ~host ~port () with
      | Ok () -> "listening"
      | Error e -> render_error e))
  | [ "connect"; host; port ] -> (
    match int_of_string_opt port with
    | None -> "error: connect HOST PORT"
    | Some port_number -> (
      match Netstack.connect t.net ~subject:t.subject ~host ~port:port_number with
      | Ok conn ->
        Hashtbl.replace t.conns (conn_key host port) conn;
        "connected"
      | Error e -> render_error e))
  | "send" :: host :: port :: rest -> (
    match Hashtbl.find_opt t.conns (conn_key host port) with
    | None -> "error: not connected (use connect first)"
    | Some conn -> (
      match Netstack.send t.net ~subject:t.subject conn (String.concat " " rest) with
      | Ok () -> "sent"
      | Error e -> render_error e))
  | [ "recv"; host; port ] -> (
    match int_of_string_opt port with
    | None -> "error: recv HOST PORT"
    | Some port_number -> (
      match Netstack.recv t.net ~subject:t.subject ~host ~port:port_number with
      | Ok lines -> String.concat "\n" lines
      | Error e -> render_error e))
  | _ -> help

let cmd_export t =
  (* Every file under /fs the session can [stat] becomes a policy
     object: the same checked walk, so export shows no path, owner,
     class or ACL that [ls] and [stat] refuse. *)
  let objects = ref [] in
  Namespace.iter (Kernel.namespace t.kernel) (fun node ->
      match Namespace.payload node with
      | Some (Memfs.File _)
        when Result.is_ok
               (Resolver.lookup (Kernel.resolver t.kernel) ~subject:t.subject
                  (Namespace.path node)) ->
        objects := (Namespace.label node, Namespace.meta node) :: !objects
      | Some _ | None -> ());
  let spec =
    Policy_text.export ~db:(Kernel.db t.kernel) ~hierarchy:t.hierarchy
      ~universe:t.universe ~registry:t.registry ~objects:(List.rev !objects) ()
  in
  Policy_text.to_string spec

let cmd_quota t name rest =
  let ind = Principal.individual name in
  match rest with
  | [ "off" ] ->
    Quota.clear (Kernel.quota t.kernel) ind;
    "quota cleared"
  | _ -> (
    let parse = List.map int_of_string_opt rest in
    if List.exists Option.is_none parse then "error: quota NAME CALLS [THREADS [EXTS]]"
    else (
      match List.map Option.get parse with
      | [ calls ] -> Quota.set (Kernel.quota t.kernel) ind (Quota.calls calls); "ok"
      | [ calls; threads ] ->
        Quota.set (Kernel.quota t.kernel) ind
          { Quota.max_calls = Some calls; max_threads = Some threads; max_extensions = None };
        "ok"
      | [ calls; threads; extensions ] ->
        Quota.set (Kernel.quota t.kernel) ind
          {
            Quota.max_calls = Some calls;
            max_threads = Some threads;
            max_extensions = Some extensions;
          };
        "ok"
      | _ -> "error: quota NAME CALLS [THREADS [EXTS]]"))

let exec_unsafe t line =
  match tokens_of line with
  | [] -> ""
  | [ "help" ] -> help
  | [ "whoami" ] -> Format.asprintf "%a" Subject.pp t.subject
  | "login" :: name :: rest -> cmd_login t name rest
  | [ "ls" ] -> cmd_ls t "/"
  | [ "ls"; path ] -> cmd_ls t path
  | [ "stat"; path ] -> cmd_stat t path
  | [ "cat"; path ] -> cmd_cat t path
  | "write" :: path :: rest -> cmd_file_write t false path (String.concat " " rest)
  | "append" :: path :: rest -> cmd_file_write t true path (String.concat " " rest)
  | [ "mkdir"; path ] -> cmd_mkdir t path
  | [ "rm"; path ] -> cmd_rm t path
  | "allow" :: path :: who :: modes when modes <> [] -> cmd_acl_entry t ~allow:true path who modes
  | "deny" :: path :: who :: modes when modes <> [] -> cmd_acl_entry t ~allow:false path who modes
  | "setclass" :: path :: level :: cats -> cmd_setclass t path level cats
  | "call" :: path :: args -> cmd_call t path args
  | [ "spawn"; name; quanta ] -> cmd_spawn t name quanta
  | [ "threads" ] -> cmd_threads t
  | [ "kill"; id ] -> cmd_kill t id
  | [ "run" ] -> Printf.sprintf "%d quanta" (Kernel.run t.kernel)
  | [ "audit" ] -> cmd_audit t 10
  | [ "audit"; count ] -> cmd_audit t (Option.value (int_of_string_opt count) ~default:10)
  | [ "flow" ] -> cmd_flow t
  | [ "extensions" ] -> String.concat "\n" (Kernel.loaded_extensions t.kernel)
  | [ "export" ] -> cmd_export t
  | "quota" :: name :: rest when rest <> [] -> cmd_quota t name rest
  | [ "load"; name ] -> cmd_load t name
  | [ "unload"; name ] -> cmd_unload t name
  | "syslog" :: rest -> (
    match Syslog.append t.log ~subject:t.subject (String.concat " " rest) with
    | Ok () -> "logged"
    | Error e -> render_error e)
  | [ "readlog" ] -> (
    match Syslog.entries t.log ~subject:t.subject with
    | Ok lines -> String.concat "\n" lines
    | Error e -> render_error e)
  | ("listen" | "connect" | "send" | "recv") :: _ as net_command -> cmd_net t net_command
  | _ -> help

let exec t line =
  try exec_unsafe t line with
  | Failure message | Invalid_argument message -> "error: " ^ message
