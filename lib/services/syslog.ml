open Exsec_core
open Exsec_extsys

(* The entry list is shared by every domain that resolves
   [/svc/log/data], so all mutation and observation of it funnels
   through the per-log mutex — the same bug class PR 5 fixed in
   Netstack (a bare mutable list torn by concurrent appends).  The
   length rides alongside under the same lock so [size] is O(1)
   instead of a walk of a list another domain may be swapping. *)
type log_state = {
  lock : Mutex.t;
  mutable entries : string list;  (* newest first *)
  mutable length : int;
}

type Kernel.entry += Log_data of log_state

type t = {
  kernel : Kernel.t;
  state : log_state;
}

let make_state () = { lock = Mutex.create (); entries = []; length = 0 }

let locked state f = Mutex.protect state.lock (fun () -> f state)

let state_append state line =
  locked state (fun s ->
      s.entries <- line :: s.entries;
      s.length <- s.length + 1)

let state_entries state = List.rev (locked state (fun s -> s.entries))
let state_size state = locked state (fun s -> s.length)

let state_truncate state =
  locked state (fun s ->
      s.entries <- [];
      s.length <- 0)

let state_replace state lines =
  locked state (fun s ->
      s.entries <- List.rev lines;
      s.length <- List.length lines)

let mount_point = Path.of_string "/svc/log"
let data_path = Path.of_string "/svc/log/data"

let install kernel ~subject ?klass () =
  let owner = Subject.principal subject in
  let klass =
    match klass with
    | Some klass -> klass
    | None -> Security_class.top (Kernel.hierarchy kernel) (Kernel.universe kernel)
  in
  let bottom = Security_class.bottom (Kernel.hierarchy kernel) (Kernel.universe kernel) in
  let dir_meta =
    Meta.make ~owner
      ~acl:
        (Acl.of_entries
           [ Acl.allow_all (Acl.Individual owner); Acl.allow Acl.Everyone [ Access_mode.List ] ])
      bottom
  in
  let data_meta =
    Meta.make ~owner
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual owner);
             Acl.allow Acl.Everyone
               [ Access_mode.List; Access_mode.Read; Access_mode.Write_append ];
           ])
      klass
  in
  let state = make_state () in
  let ( let* ) = Result.bind in
  let* () = Kernel.add_dir kernel ~subject mount_point ~meta:dir_meta in
  let* () = Kernel.install_entry kernel ~subject data_path ~meta:data_meta (Log_data state) in
  Ok { kernel; state }

let checked_data log ~subject ~mode =
  match Resolver.resolve (Kernel.resolver log.kernel) ~subject ~mode data_path with
  | Error denial -> Error (Kernel.error_of_denial denial)
  | Ok node -> (
    match Namespace.payload node with
    | Some (Log_data state) -> Ok state
    | Some _ | None -> Error (Service.Unresolved "/svc/log/data: not a log"))

let append log ~subject line =
  Result.map
    (fun state -> state_append state line)
    (checked_data log ~subject ~mode:Access_mode.Write_append)

let entries log ~subject =
  Result.map state_entries (checked_data log ~subject ~mode:Access_mode.Read)

let truncate log ~subject =
  Result.map state_truncate (checked_data log ~subject ~mode:Access_mode.Write)

let size log = state_size log.state

let append_metrics log ~subject =
  (* One checked append per structured line (the "metrics ..."
     counter/gauge line plus one "latency <name> ..." line per
     histogram): each write is an ordinary audited Write_append, and a
     denial stops the export where it stood. *)
  let lines = Exsec_obs.Metrics.(snapshot_lines (snapshot ())) in
  List.fold_left
    (fun acc line ->
      match acc with
      | Error _ as e -> e
      | Ok () -> append log ~subject line)
    (Ok ()) lines
