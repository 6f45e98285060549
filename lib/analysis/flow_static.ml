open Exsec_core

let class_to_string klass = Format.asprintf "%a" Security_class.pp klass

let analyze ~db ~registry ~policy ~objects =
  let untrusted =
    List.filter
      (fun principal ->
        match Clearance.detail_of registry principal with
        | Some detail -> not detail.Clearance.trusted
        | None -> false)
      (Clearance.registered registry)
  in
  let everyone = Clearance.registered registry in
  let snapshot = Principal.Db.snapshot db in
  let prove principal meta mode =
    Certify.prove ~snapshot ~registry ~policy ~principal ~meta ~mode ()
  in
  let may principal meta mode =
    not (Verdict.equal (prove principal meta mode) Verdict.Always_deny)
  in
  let may_read principal meta = may principal meta Access_mode.Read in
  let may_write principal meta =
    may principal meta Access_mode.Write || may principal meta Access_mode.Write_append
  in
  let objects = Array.of_list objects in
  let n = Array.length objects in
  (* Direct edges: some untrusted principal may read the source and
     may write the sink (possibly in different sessions). *)
  let reach = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then (
        let _, source = objects.(i) in
        let _, sink = objects.(j) in
        reach.(i).(j) <-
          List.exists
            (fun principal -> may_read principal source && may_write principal sink)
            untrusted)
    done
  done;
  (* Transitive closure (Floyd-Warshall). *)
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  let channels = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && reach.(i).(j) then (
        let source_path, source = objects.(i) in
        let sink_path, sink = objects.(j) in
        if not (Security_class.dominates sink.Meta.klass source.Meta.klass) then
          channels :=
            Finding.make Finding.Warning Finding.Flow_channel ~path:source_path
              (Printf.sprintf
                 "contents labelled %s may reach %s, whose class %s does not dominate it"
                 (class_to_string source.Meta.klass)
                 sink_path
                 (class_to_string sink.Meta.klass))
            :: !channels)
    done
  done;
  (* Unreachable objects: a declared strict ancestor that refuses List
     to every registered principal in every session. *)
  let unreachable = ref [] in
  Array.iter
    (fun (path, _) ->
      let blocking =
        Array.to_list objects
        |> List.find_opt (fun (ancestor_path, ancestor) ->
               Callgraph.strict_ancestor ancestor_path path
               && everyone <> []
               && List.for_all
                    (fun principal ->
                      Verdict.equal
                        (prove principal ancestor Access_mode.List)
                        Verdict.Always_deny)
                    everyone)
      in
      match blocking with
      | Some (ancestor_path, _) ->
        unreachable :=
          Finding.make Finding.Warning Finding.Unreachable_object ~path
            (Printf.sprintf
               "no registered principal can list ancestor %s in any session; the object cannot be resolved"
               ancestor_path)
          :: !unreachable
      | None -> ())
    objects;
  List.rev !channels @ List.rev !unreachable
