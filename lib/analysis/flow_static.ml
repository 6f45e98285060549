open Exsec_core

let class_to_string klass = Format.asprintf "%a" Security_class.pp klass

let analyze ~db ~registry ~policy ~objects =
  let snapshot = Principal.Db.snapshot db in
  (* One session range per registered principal, and each node proved
     once per principal and mode: the pair loop and the unreachable
     pass read the tables below. *)
  let sessions =
    List.filter_map
      (fun principal ->
        Option.map
          (fun (detail : Clearance.detail) -> detail.trusted, Certify.range ~detail principal)
          (Clearance.detail_of registry principal))
      (Clearance.registered registry)
  in
  let may range meta mode =
    not
      (Verdict.equal
         (Certify.prove_chain ~snapshot ~policy range ~chain:[ meta ] ~mode)
         Verdict.Always_deny)
  in
  let objects = Array.of_list objects in
  let n = Array.length objects in
  (* Per untrusted principal: which objects it may read, and which it
     may write. *)
  let access =
    List.filter_map
      (fun (trusted, range) ->
        if trusted then None
        else
          Some
            ( Array.map (fun (_, meta) -> may range meta Access_mode.Read) objects,
              Array.map
                (fun (_, meta) ->
                  may range meta Access_mode.Write || may range meta Access_mode.Write_append)
                objects ))
      sessions
  in
  (* Direct edges: some untrusted principal may read the source and
     may write the sink (possibly in different sessions). *)
  let reach = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        reach.(i).(j) <- List.exists (fun (reads, writes) -> reads.(i) && writes.(j)) access
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
  let unlistable =
    Array.map
      (fun (_, meta) ->
        sessions <> []
        && List.for_all (fun (_, range) -> not (may range meta Access_mode.List)) sessions)
      objects
  in
  let unreachable = ref [] in
  Array.iter
    (fun (path, _) ->
      let rec blocking k =
        if k = n then None
        else
          let ancestor_path, _ = objects.(k) in
          if unlistable.(k) && Callgraph.strict_ancestor ancestor_path path then Some ancestor_path
          else blocking (k + 1)
      in
      match blocking 0 with
      | Some ancestor_path ->
        unreachable :=
          Finding.make Finding.Warning Finding.Unreachable_object ~path
            (Printf.sprintf
               "no registered principal can list ancestor %s in any session; the object cannot be resolved"
               ancestor_path)
          :: !unreachable
      | None -> ())
    objects;
  List.rev !channels @ List.rev !unreachable
