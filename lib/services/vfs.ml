open Exsec_core
open Exsec_extsys

type t = {
  kernel : Kernel.t;
  owner : Principal.individual;
  mutable table : (string * string) list;  (* (prefix, fstype), longest first *)
}

let mount_point = Path.of_string "/svc/vfs"
let backend_read_event = Path.of_string "/svc/vfs/backend_read"
let backend_write_event = Path.of_string "/svc/vfs/backend_write"
let backend_stat_event = Path.of_string "/svc/vfs/backend_stat"

let guard_fstype fstype args =
  match args with
  | Value.Str first :: _ -> String.equal first fstype
  | _ -> false

let longest_prefix table path =
  List.find_opt
    (fun (prefix, _) ->
      String.length path >= String.length prefix
      && String.equal (String.sub path 0 (String.length prefix)) prefix)
    table

let route vfs path =
  match longest_prefix vfs.table path with
  | None -> Error (Service.Unresolved (path ^ ": no file system mounted"))
  | Some (prefix, fstype) ->
    let subpath = String.sub path (String.length prefix) (String.length path - String.length prefix) in
    Ok (fstype, subpath)

let insert_mount vfs prefix fstype =
  let without = List.filter (fun (p, _) -> not (String.equal p prefix)) vfs.table in
  vfs.table <-
    List.sort
      (fun (a, _) (b, _) -> Int.compare (String.length b) (String.length a))
      ((prefix, fstype) :: without)

let remove_mount vfs prefix =
  vfs.table <- List.filter (fun (p, _) -> not (String.equal p prefix)) vfs.table

let str_arg name args index =
  match List.nth_opt args index with
  | Some (Value.Str s) -> Ok s
  | Some _ | None ->
    Error (Service.Bad_argument (Printf.sprintf "%s: argument %d must be a string" name index))

let impl_of vfs name =
  let ( let* ) = Result.bind in
  match name with
  | "mount" ->
    fun _ctx args ->
      let* fstype = str_arg "mount" args 0 in
      let* prefix = str_arg "mount" args 1 in
      insert_mount vfs prefix fstype;
      Ok Value.unit
  | "unmount" ->
    fun _ctx args ->
      let* prefix = str_arg "unmount" args 0 in
      remove_mount vfs prefix;
      Ok Value.unit
  | "read" ->
    fun ctx args ->
      let* path = str_arg "read" args 0 in
      let* fstype, subpath = route vfs path in
      ctx.Service.call backend_read_event [ Value.str fstype; Value.str subpath ]
  | "write" ->
    fun ctx args ->
      let* path = str_arg "write" args 0 in
      let* data = str_arg "write" args 1 in
      let* fstype, subpath = route vfs path in
      ctx.Service.call backend_write_event
        [ Value.str fstype; Value.str subpath; Value.str data ]
  | "stat" ->
    fun ctx args ->
      let* path = str_arg "stat" args 0 in
      let* fstype, subpath = route vfs path in
      ctx.Service.call backend_stat_event [ Value.str fstype; Value.str subpath ]
  | other -> Service.fail (Printf.sprintf "vfs: no procedure %s" other)

let iface =
  Iface.make "vfs"
    [
      Iface.proc_sig "mount" 2;
      Iface.proc_sig "unmount" 1;
      Iface.proc_sig "read" 1;
      Iface.proc_sig "write" 2;
      Iface.proc_sig "stat" 1;
    ]

let install kernel ~subject =
  let owner = Subject.principal subject in
  let vfs = { kernel; owner; table = [] } in
  let bottom = Security_class.bottom (Kernel.hierarchy kernel) (Kernel.universe kernel) in
  let admin_only = [ "mount"; "unmount" ] in
  let meta name =
    if List.mem name admin_only then
      Meta.make ~owner
        ~acl:
          (Acl.of_entries
             [ Acl.allow_all (Acl.Individual owner); Acl.allow Acl.Everyone [ Access_mode.List ] ])
        bottom
    else Kernel.default_meta kernel ~owner ()
  in
  let ( let* ) = Result.bind in
  let* () = Kernel.install_iface kernel ~subject ~mount:mount_point ~meta iface (impl_of vfs) in
  (* Backend events: callable by everyone; Extend is granted
     explicitly by the installer (grant_extend). *)
  let event_meta () =
    Meta.make ~owner
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual owner);
             Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
           ])
      bottom
  in
  let* () = Kernel.install_event kernel ~subject backend_read_event ~meta:(event_meta ()) in
  let* () = Kernel.install_event kernel ~subject backend_write_event ~meta:(event_meta ()) in
  let* () = Kernel.install_event kernel ~subject backend_stat_event ~meta:(event_meta ()) in
  Ok vfs

let call_proc vfs ~subject name args =
  Kernel.call vfs.kernel ~subject ~caller:"vfs-client" (Path.child mount_point name) args

let mount_fs vfs ~subject ~fstype ~prefix =
  Result.map
    (fun (_ : Value.t) -> ())
    (call_proc vfs ~subject "mount" [ Value.str fstype; Value.str prefix ])

let unmount_fs vfs ~subject ~prefix =
  Result.map (fun (_ : Value.t) -> ()) (call_proc vfs ~subject "unmount" [ Value.str prefix ])

let mounts vfs = vfs.table

let read vfs ~subject path =
  match call_proc vfs ~subject "read" [ Value.str path ] with
  | Ok (Value.Str contents) -> Ok contents
  | Ok other ->
    Error (Service.Bad_argument (Format.asprintf "read returned %a" Value.pp other))
  | Error e -> Error e

let write vfs ~subject path data =
  Result.map
    (fun (_ : Value.t) -> ())
    (call_proc vfs ~subject "write" [ Value.str path; Value.str data ])

let stat vfs ~subject path =
  match call_proc vfs ~subject "stat" [ Value.str path ] with
  | Ok (Value.Int size) -> Ok size
  | Ok other ->
    Error (Service.Bad_argument (Format.asprintf "stat returned %a" Value.pp other))
  | Error e -> Error e

let grant_extend vfs ~subject who =
  let resolver = Kernel.resolver vfs.kernel in
  let events = [ backend_read_event; backend_write_event; backend_stat_event ] in
  let add_extend event acc =
    match acc with
    | Error _ -> acc
    | Ok () -> (
      match Namespace.find (Kernel.namespace vfs.kernel) event with
      | Error error ->
        Error (Service.Unresolved (Format.asprintf "%a" Namespace.pp_error error))
      | Ok node -> (
        let meta = Namespace.meta node in
        let acl = Acl.add (Acl.allow who [ Access_mode.Extend ]) meta.Meta.acl in
        match Resolver.set_acl resolver ~subject event acl with
        | Ok () -> Ok ()
        | Error denial -> Error (Kernel.error_of_denial denial)))
  in
  List.fold_left (fun acc event -> add_extend event acc) (Ok ()) events
