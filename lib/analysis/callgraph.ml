open Exsec_core

type site = {
  target : Path.t;
  chain : Meta.t list;
}

type edge = {
  src : string;
  dst : string;
  site : site option;
}

type entry = {
  entry_principal : Principal.individual;
  entry_node : string;
  entry_cap : Security_class.t option;
}

type t = {
  edges : edge list;
  entries : entry list;
}

let empty = { edges = []; entries = [] }
let code_node name = "code:" ^ name
let site_node path = Path.to_string path
let principal_node p = "principal:" ^ Principal.individual_name p

let call_edge ~src ~target ~chain =
  { src; dst = site_node target; site = Some { target; chain } }

let transfer_edge ~src ~dst = { src; dst; site = None }
let with_entries g entries = { g with entries }

let reaches_only g ~from ~sites =
  let leads_on node = List.exists (fun e -> String.equal e.src node) g.edges in
  List.for_all
    (fun e ->
      (not (String.equal e.src from))
      ||
      match e.site with
      | Some site -> List.exists (Path.equal site.target) sites && not (leads_on e.dst)
      | None -> false)
    g.edges

let strict_ancestor a b =
  let la = String.length a and lb = String.length b in
  la < lb
  && String.equal a (String.sub b 0 la)
  && (String.equal a "/" || b.[la] = '/')

let callable meta =
  List.exists
    (fun (e : Acl.entry) ->
      e.Acl.sign = Acl.Allow && Access_mode.Set.mem Access_mode.Execute e.Acl.modes)
    (Acl.entries meta.Meta.acl)

let of_objects ~registry ~objects =
  (* Declared chain of a path: every declared strict ancestor (nearest
     the root first) then the object itself — the metas a checked
     resolution would consult, restricted to what the policy text
     declares. *)
  let declared_chain path meta =
    let ancestors =
      List.filter (fun (p, _) -> strict_ancestor p path) objects
      |> List.sort (fun (a, _) (b, _) -> compare (String.length a) (String.length b))
    in
    List.map snd ancestors @ [ meta ]
  in
  let callables = List.filter (fun (_, meta) -> callable meta) objects in
  let nearest_callable_ancestor path =
    List.filter (fun (p, _) -> strict_ancestor p path) callables
    |> List.sort (fun (a, _) (b, _) -> compare (String.length b) (String.length a))
    |> function
    | (p, _) :: _ -> Some p
    | [] -> None
  in
  let principals = Clearance.registered registry in
  let entries =
    List.map
      (fun p -> { entry_principal = p; entry_node = principal_node p; entry_cap = None })
      principals
  in
  let edges =
    List.concat_map
      (fun (path, meta) ->
        let target = Path.of_string path in
        let chain = declared_chain path meta in
        let direct =
          List.map
            (fun p -> call_edge ~src:(principal_node p) ~target ~chain)
            principals
        in
        let nested =
          match nearest_callable_ancestor path with
          | Some parent ->
            [ call_edge ~src:(site_node (Path.of_string parent)) ~target ~chain ]
          | None -> []
        in
        direct @ nested)
      callables
  in
  { edges; entries }
