type class_expr = {
  level : string;
  cats : string list;
}

type who_expr =
  | User of string
  | Group of string
  | Everyone

type entry_expr = {
  allow : bool;
  who : who_expr;
  modes : string list;
}

type object_spec = {
  path : string;
  owner : string;
  klass : class_expr;
  obj_integrity : class_expr option;
  entries : entry_expr list;
}

type quota_spec = {
  q_principal : string;
  q_calls : int option;
  q_threads : int option;
  q_extensions : int option;
}

type clearance_spec = {
  principal : string;
  clearance : class_expr;
  cl_integrity : class_expr option;
  trusted : bool;
}

type t = {
  levels : string list;
  categories : string list;
  individuals : string list;
  groups : (string * string list) list;
  clearances : clearance_spec list;
  quotas : quota_spec list;
  objects : object_spec list;
}

type error = {
  line : int;
  message : string;
}

let pp_error ppf { line; message } =
  if line = 0 then Format.fprintf ppf "policy: %s" message
  else Format.fprintf ppf "policy, line %d: %s" line message

exception Parse_failure of error

let fail line message = raise (Parse_failure { line; message })

(* {1 Parsing} *)

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let tokens_of line =
  strip_comment line |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun token -> String.length token > 0)

(* [LEVEL] or [LEVEL { CAT* }], then the rest of the tokens. *)
let parse_class_expr line_number tokens =
  match tokens with
  | level :: "{" :: rest ->
    let rec take cats = function
      | "}" :: remainder -> { level; cats = List.rev cats }, remainder
      | cat :: remainder -> take (cat :: cats) remainder
      | [] -> fail line_number "unterminated '{' in class expression"
    in
    take [] rest
  | level :: rest -> { level; cats = [] }, rest
  | [] -> fail line_number "expected a class expression"

let parse_who line_number token =
  match String.index_opt token ':' with
  | None when String.equal token "everyone" -> Everyone
  | None -> fail line_number (Printf.sprintf "expected user:NAME, group:NAME or everyone, got %S" token)
  | Some i -> (
    let kind = String.sub token 0 i in
    let name = String.sub token (i + 1) (String.length token - i - 1) in
    if String.length name = 0 then fail line_number "empty principal name";
    match kind with
    | "user" -> User name
    | "group" -> Group name
    | other -> fail line_number (Printf.sprintf "unknown principal kind %S" other))

type state = {
  mutable levels : string list option;
  mutable categories : string list option;
  mutable individuals : string list;  (* reversed *)
  mutable groups : (string * string list) list;  (* reversed *)
  mutable clearances : clearance_spec list;  (* reversed *)
  mutable quotas : quota_spec list;  (* reversed *)
  mutable objects : object_spec list;  (* reversed *)
  mutable current : partial_object option;
}

and partial_object = {
  po_line : int;
  po_path : string;
  mutable po_owner : string option;
  mutable po_class : class_expr option;
  mutable po_integrity : class_expr option;
  mutable po_entries : entry_expr list;  (* reversed *)
}

let parse_clearance state line_number = function
  | principal :: "=" :: rest ->
    let clearance, rest = parse_class_expr line_number rest in
    let cl_integrity, rest =
      match rest with
      | "integrity" :: rest ->
        let expr, rest = parse_class_expr line_number rest in
        Some expr, rest
      | rest -> None, rest
    in
    let trusted, rest =
      match rest with
      | "trusted" :: rest -> true, rest
      | rest -> false, rest
    in
    if rest <> [] then fail line_number "trailing tokens after clearance";
    state.clearances <- { principal; clearance; cl_integrity; trusted } :: state.clearances
  | _ -> fail line_number "expected: clearance NAME = LEVEL [{ CATS }] [integrity ...] [trusted]"

let parse_quota state line_number = function
  | principal :: pairs when pairs <> [] ->
    let parse_pair quota pair =
      match String.index_opt pair '=' with
      | None -> fail line_number (Printf.sprintf "quota: expected key=value, got %S" pair)
      | Some i -> (
        let key = String.sub pair 0 i in
        let value = String.sub pair (i + 1) (String.length pair - i - 1) in
        match int_of_string_opt value with
        | Some n when n >= 0 -> (
          match key with
          | "calls" -> { quota with q_calls = Some n }
          | "threads" -> { quota with q_threads = Some n }
          | "extensions" -> { quota with q_extensions = Some n }
          | other -> fail line_number (Printf.sprintf "quota: unknown resource %S" other))
        | Some _ | None ->
          fail line_number (Printf.sprintf "quota: bad count %S for %s" value key))
    in
    let quota =
      List.fold_left parse_pair
        { q_principal = principal; q_calls = None; q_threads = None; q_extensions = None }
        pairs
    in
    state.quotas <- quota :: state.quotas
  | _ -> fail line_number "expected: quota NAME key=value..."

let parse_object_line po line_number tokens =
  match tokens with
  | [ "owner"; owner ] ->
    if po.po_owner <> None then fail line_number "duplicate owner";
    po.po_owner <- Some owner
  | "class" :: rest ->
    if po.po_class <> None then fail line_number "duplicate class";
    let expr, rest = parse_class_expr line_number rest in
    if rest <> [] then fail line_number "trailing tokens after class";
    po.po_class <- Some expr
  | "integrity" :: rest ->
    if po.po_integrity <> None then fail line_number "duplicate integrity";
    let expr, rest = parse_class_expr line_number rest in
    if rest <> [] then fail line_number "trailing tokens after integrity";
    po.po_integrity <- Some expr
  | ("allow" | "deny") :: who :: modes when modes <> [] ->
    let allow = String.equal (List.hd tokens) "allow" in
    po.po_entries <- { allow; who = parse_who line_number who; modes } :: po.po_entries
  | _ -> fail line_number "expected: owner|class|integrity|allow|deny ... inside object block"

let finish_object state =
  match state.current with
  | None -> ()
  | Some po ->
    let owner =
      match po.po_owner with
      | Some owner -> owner
      | None -> fail po.po_line (Printf.sprintf "object %s: missing owner" po.po_path)
    in
    let klass =
      match po.po_class with
      | Some klass -> klass
      | None -> fail po.po_line (Printf.sprintf "object %s: missing class" po.po_path)
    in
    state.objects <-
      {
        path = po.po_path;
        owner;
        klass;
        obj_integrity = po.po_integrity;
        entries = List.rev po.po_entries;
      }
      :: state.objects;
    state.current <- None

let parse_levels line_number tokens =
  (* NAME (> NAME)* *)
  let rec walk acc = function
    | [] -> List.rev acc
    | ">" :: name :: rest -> walk (name :: acc) rest
    | [ ">" ] -> fail line_number "dangling '>' in levels"
    | token :: _ ->
      fail line_number (Printf.sprintf "expected '>' between levels, got %S" token)
  in
  match tokens with
  | [] -> fail line_number "levels: need at least one level"
  | first :: rest -> walk [ first ] rest

let parse_top state line_number tokens =
  match tokens with
  | [] -> ()
  | "levels" :: rest ->
    if state.levels <> None then fail line_number "duplicate levels declaration";
    state.levels <- Some (parse_levels line_number rest)
  | "categories" :: rest ->
    if state.categories <> None then fail line_number "duplicate categories declaration";
    state.categories <- Some rest
  | [ "individual"; name ] -> state.individuals <- name :: state.individuals
  | "group" :: name :: "=" :: members -> state.groups <- (name, members) :: state.groups
  | "clearance" :: rest -> parse_clearance state line_number rest
  | "quota" :: rest -> parse_quota state line_number rest
  | [ "object"; path; "{" ] ->
    state.current <-
      Some
        {
          po_line = line_number;
          po_path = path;
          po_owner = None;
          po_class = None;
          po_integrity = None;
          po_entries = [];
        }
  | token :: _ -> fail line_number (Printf.sprintf "unknown directive %S" token)

let parse_lenient text =
  let state =
    {
      levels = None;
      categories = None;
      individuals = [];
      groups = [];
      clearances = [];
      quotas = [];
      objects = [];
      current = None;
    }
  in
  let errors = ref [] in
  let note error = errors := error :: !errors in
  (* Salvage what a malformed object block did declare, so later
     analysis passes still see its well-formed entries. *)
  let finish_current () =
    try finish_object state with
    | Parse_failure error ->
      note error;
      state.current <- None
  in
  List.iteri
    (fun index line ->
      let line_number = index + 1 in
      let tokens = tokens_of line in
      try
        match state.current, tokens with
        | _, [] -> ()
        | Some _, [ "}" ] -> finish_current ()
        | Some po, tokens -> parse_object_line po line_number tokens
        | None, tokens -> parse_top state line_number tokens
      with
      | Parse_failure error -> note error)
    (String.split_on_char '\n' text);
  (match state.current with
  | Some po ->
    note { line = po.po_line; message = Printf.sprintf "object %s: missing '}'" po.po_path };
    finish_current ()
  | None -> ());
  let levels =
    match state.levels with
    | Some levels -> levels
    | None ->
      note { line = 0; message = "missing levels declaration" };
      []
  in
  let categories = Option.value state.categories ~default:[] in
  ( {
      levels;
      categories;
      individuals = List.rev state.individuals;
      groups = List.rev state.groups;
      clearances = List.rev state.clearances;
      quotas = List.rev state.quotas;
      objects = List.rev state.objects;
    },
    List.rev !errors )

let parse text =
  match parse_lenient text with
  | spec, [] -> Ok spec
  | _, error :: _ -> Error error

(* {1 Printing} *)

let class_expr_to_string { level; cats } =
  match cats with
  | [] -> level
  | cats -> Printf.sprintf "%s { %s }" level (String.concat " " cats)

let who_to_string = function
  | User name -> "user:" ^ name
  | Group name -> "group:" ^ name
  | Everyone -> "everyone"

let to_string (spec : t) =
  let buffer = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  line "levels %s" (String.concat " > " spec.levels);
  if spec.categories <> [] then line "categories %s" (String.concat " " spec.categories);
  if spec.individuals <> [] || spec.groups <> [] then line "";
  List.iter (fun name -> line "individual %s" name) spec.individuals;
  List.iter
    (fun (name, members) -> line "group %s = %s" name (String.concat " " members))
    spec.groups;
  if spec.clearances <> [] then line "";
  List.iter
    (fun c ->
      line "clearance %s = %s%s%s" c.principal
        (class_expr_to_string c.clearance)
        (match c.cl_integrity with
        | None -> ""
        | Some expr -> " integrity " ^ class_expr_to_string expr)
        (if c.trusted then " trusted" else ""))
    spec.clearances;
  List.iter
    (fun q ->
      let field name = function
        | None -> ""
        | Some n -> Printf.sprintf " %s=%d" name n
      in
      line "quota %s%s%s%s" q.q_principal (field "calls" q.q_calls)
        (field "threads" q.q_threads)
        (field "extensions" q.q_extensions))
    spec.quotas;
  List.iter
    (fun o ->
      line "";
      line "object %s {" o.path;
      line "  owner %s" o.owner;
      line "  class %s" (class_expr_to_string o.klass);
      (match o.obj_integrity with
      | None -> ()
      | Some expr -> line "  integrity %s" (class_expr_to_string expr));
      List.iter
        (fun e ->
          line "  %s %s %s"
            (if e.allow then "allow" else "deny")
            (who_to_string e.who) (String.concat " " e.modes))
        o.entries;
      line "}")
    spec.objects;
  Buffer.contents buffer

(* {1 Building} *)

type built = {
  db : Principal.Db.t;
  hierarchy : Level.hierarchy;
  universe : Category.universe;
  registry : Clearance.t;
  quotas : (Principal.individual * quota_spec) list;
  metas : (string * Meta.t) list;
}

let build_error message = { line = 0; message }

let build (spec : t) =
  try
    let hierarchy =
      try Level.hierarchy spec.levels with
      | Invalid_argument message -> raise (Parse_failure (build_error message))
    in
    let universe =
      try Category.universe spec.categories with
      | Invalid_argument message -> raise (Parse_failure (build_error message))
    in
    let resolve_class expr =
      let level =
        match Level.of_name hierarchy expr.level with
        | Some level -> level
        | None ->
          raise (Parse_failure (build_error (Printf.sprintf "unknown level %S" expr.level)))
      in
      let cats =
        try Category.of_names universe expr.cats with
        | Invalid_argument message -> raise (Parse_failure (build_error message))
      in
      Security_class.make level cats
    in
    let db = Principal.Db.create () in
    let declared = Hashtbl.create 16 in
    List.iter
      (fun name ->
        Hashtbl.replace declared name ();
        Principal.Db.add_individual db (Principal.individual name))
      spec.individuals;
    let require_individual name =
      if not (Hashtbl.mem declared name) then
        raise
          (Parse_failure (build_error (Printf.sprintf "undeclared individual %S" name)))
    in
    let group_names = List.map fst spec.groups in
    (* One batch, so the membership publishes once: the database is
       private to [build] until it returns. *)
    Principal.Db.batch db (fun () ->
        List.iter
          (fun (name, members) ->
            let group = Principal.group name in
            Principal.Db.add_group db group;
            List.iter
              (fun member ->
                match String.index_opt member ':' with
                | Some i when String.equal (String.sub member 0 i) "group" ->
                  let nested = String.sub member (i + 1) (String.length member - i - 1) in
                  if not (List.mem nested group_names) then
                    raise
                      (Parse_failure
                         (build_error (Printf.sprintf "undeclared group %S" nested)));
                  Principal.Db.add_member db group (Principal.Grp (Principal.group nested))
                | Some _ | None ->
                  require_individual member;
                  Principal.Db.add_member db group
                    (Principal.Ind (Principal.individual member)))
              members)
          spec.groups);
    let registry = Clearance.create () in
    List.iter
      (fun c ->
        require_individual c.principal;
        Clearance.register registry
          ?integrity:(Option.map resolve_class c.cl_integrity)
          ~trusted:c.trusted
          (Principal.individual c.principal)
          (resolve_class c.clearance))
      spec.clearances;
    let resolve_mode name =
      match Access_mode.of_string name with
      | Some mode -> mode
      | None ->
        raise (Parse_failure (build_error (Printf.sprintf "unknown access mode %S" name)))
    in
    let resolve_entry e =
      let who =
        match e.who with
        | User name ->
          require_individual name;
          Acl.Individual (Principal.individual name)
        | Group name ->
          if not (List.mem name group_names) then
            raise (Parse_failure (build_error (Printf.sprintf "undeclared group %S" name)));
          Acl.Group (Principal.group name)
        | Everyone -> Acl.Everyone
      in
      let modes = List.map resolve_mode e.modes in
      if e.allow then Acl.allow who modes else Acl.deny who modes
    in
    let metas =
      List.map
        (fun o ->
          require_individual o.owner;
          let acl = Acl.of_entries (List.map resolve_entry o.entries) in
          let meta =
            Meta.make
              ~owner:(Principal.individual o.owner)
              ~acl
              ?integrity:(Option.map resolve_class o.obj_integrity)
              (resolve_class o.klass)
          in
          o.path, meta)
        spec.objects
    in
    let quotas =
      List.map
        (fun q ->
          require_individual q.q_principal;
          Principal.individual q.q_principal, q)
        spec.quotas
    in
    Ok { db; hierarchy; universe; registry; quotas; metas }
  with
  | Parse_failure error -> Error error

(* {1 Equality (for round-trip tests)} *)

let equal_class_expr a b =
  String.equal a.level b.level && List.equal String.equal a.cats b.cats

let equal_entry a b =
  Bool.equal a.allow b.allow
  && (match a.who, b.who with
     | User x, User y | Group x, Group y -> String.equal x y
     | Everyone, Everyone -> true
     | (User _ | Group _ | Everyone), _ -> false)
  && List.equal String.equal a.modes b.modes

let equal_clearance a b =
  String.equal a.principal b.principal
  && equal_class_expr a.clearance b.clearance
  && Option.equal equal_class_expr a.cl_integrity b.cl_integrity
  && Bool.equal a.trusted b.trusted

let equal_object a b =
  String.equal a.path b.path
  && String.equal a.owner b.owner
  && equal_class_expr a.klass b.klass
  && Option.equal equal_class_expr a.obj_integrity b.obj_integrity
  && List.equal equal_entry a.entries b.entries

let equal_quota a b =
  String.equal a.q_principal b.q_principal
  && Option.equal Int.equal a.q_calls b.q_calls
  && Option.equal Int.equal a.q_threads b.q_threads
  && Option.equal Int.equal a.q_extensions b.q_extensions

let equal (a : t) (b : t) =
  List.equal String.equal a.levels b.levels
  && List.equal String.equal a.categories b.categories
  && List.equal String.equal a.individuals b.individuals
  && List.equal
       (fun (n1, m1) (n2, m2) -> String.equal n1 n2 && List.equal String.equal m1 m2)
       a.groups b.groups
  && List.equal equal_clearance a.clearances b.clearances
  && List.equal equal_quota a.quotas b.quotas
  && List.equal equal_object a.objects b.objects

(* {1 Export: live state -> spec} *)

let class_expr_of_class klass =
  {
    level = Level.name (Security_class.level klass);
    cats = Category.names (Security_class.categories klass);
  }

let entry_of_ace (e : Acl.entry) =
  let who =
    match e.Acl.who with
    | Acl.Individual ind -> User (Principal.individual_name ind)
    | Acl.Group grp -> Group (Principal.group_name grp)
    | Acl.Everyone -> Everyone
  in
  {
    allow = (match e.Acl.sign with Acl.Allow -> true | Acl.Deny -> false);
    who;
    modes = List.map Access_mode.to_string (Access_mode.Set.to_list e.Acl.modes);
  }

let export ~db ~hierarchy ~universe ?registry ~objects () : t =
  let individuals = List.map Principal.individual_name (Principal.Db.individuals db) in
  let groups =
    List.map
      (fun grp ->
        let members =
          List.map
            (function
              | Principal.Ind ind -> Principal.individual_name ind
              | Principal.Grp nested -> "group:" ^ Principal.group_name nested)
            (Principal.Db.direct_members db grp)
          |> List.sort String.compare
        in
        Principal.group_name grp, members)
      (Principal.Db.groups db)
  in
  let clearances =
    match registry with
    | None -> []
    | Some registry ->
      List.filter_map
        (fun ind ->
          Option.map
            (fun (detail : Clearance.detail) ->
              {
                principal = Principal.individual_name ind;
                clearance = class_expr_of_class detail.Clearance.clearance;
                cl_integrity = Option.map class_expr_of_class detail.Clearance.integrity;
                trusted = detail.Clearance.trusted;
              })
            (Clearance.detail_of registry ind))
        (Clearance.registered registry)
  in
  let objects =
    List.map
      (fun (path, (meta : Meta.t)) ->
        {
          path;
          owner = Principal.individual_name meta.Meta.owner;
          klass = class_expr_of_class meta.Meta.klass;
          obj_integrity = Option.map class_expr_of_class meta.Meta.integrity;
          entries = List.map entry_of_ace (Acl.entries meta.Meta.acl);
        })
      objects
  in
  { levels = Level.names hierarchy; categories = Category.universe_names universe;
    individuals; groups; clearances; quotas = []; objects }
