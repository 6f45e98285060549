(* The ThreadMurder incident (paper, section 1.2; after McGraw &
   Felten): a hostile applet kills the threads of all other applets in
   its sandbox, including applets loaded and linked after it.

   Run under two regimes:
   - a flat Java-style sandbox (all applets share one class, thread
     objects world-writable): the murderer wipes out everyone;
   - the paper's model (threads are protected objects with owner ACLs
     and per-applet classes): the murderer only reaches itself.

     dune exec examples/thread_murder.exe *)

open Exsec_core
open Exsec_extsys

let immortal () = Thread.Runnable

let boot () =
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

let spawn kernel subject name =
  match Kernel.spawn kernel ~subject ~name ~body:immortal with
  | Ok thread -> thread
  | Error e -> failwith (Service.error_to_string e)

(* What the hostile applet actually does: list /threads, kill whatever
   the kernel lets it. *)
let rampage kernel ~subject =
  let visible =
    match Resolver.list_dir (Kernel.resolver kernel) ~subject (Path.of_string "/threads") with
    | Ok names -> names
    | Error _ -> []
  in
  List.iter
    (fun name ->
      match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
      | None -> ()
      | Some id -> (
        match Kernel.kill kernel ~subject ~victim:id with
        | Ok () -> Printf.printf "    killed %s\n" name
        | Error _ -> Printf.printf "    %s: denied\n" name))
    visible

let report label threads =
  Printf.printf "  %s\n" label;
  List.iter
    (fun thread ->
      Printf.printf "    %-12s %s\n" (Thread.name thread)
        (if Thread.is_alive thread then "alive" else "DEAD"))
    threads

(* One flat sandbox: no per-thread protection.  The thread's node
   publishes a world-open value. *)
let open_up kernel thread =
  let ns = Kernel.namespace kernel in
  match Namespace.find ns (Kernel.thread_path (Thread.id thread)) with
  | Ok node ->
    Namespace.publish ns node (fun meta ->
        Meta.with_acl meta (Acl.of_entries [ Acl.allow_all Acl.Everyone ]))
  | Error _ -> failwith "thread not published"

let () =
  Printf.printf "--- flat sandbox (the Java 1.x regime) ---\n";
  let kernel, cls = boot () in
  let sandbox_class = cls "organization" [ "d1" ] in
  let flat name principal =
    let subject = Subject.make (Principal.individual principal) sandbox_class in
    let thread = spawn kernel subject name in
    open_up kernel thread;
    thread
  in
  let v1 = flat "applet-a" "dept1" in
  let v2 = flat "applet-b" "dept2" in
  let murderer = Subject.make (Principal.individual "murderer") sandbox_class in
  let own = spawn kernel murderer "threadmurder" in
  open_up kernel own;
  let late = flat "late-applet" "dept1" in
  Printf.printf "  threadmurder goes on a rampage:\n";
  rampage kernel ~subject:murderer;
  report "aftermath:" [ v1; v2; own; late ];

  Printf.printf "\n--- the paper's model: threads are protected objects ---\n";
  let kernel, cls = boot () in
  let applet name principal cats =
    let subject = Subject.make (Principal.individual principal) (cls "organization" cats) in
    spawn kernel subject name
  in
  let v1 = applet "applet-a" "dept1" [ "d1" ] in
  let v2 = applet "applet-b" "dept2" [ "d2" ] in
  let murderer =
    Subject.make (Principal.individual "murderer") (cls "organization" [ "d1" ])
  in
  let own = spawn kernel murderer "threadmurder" in
  let late = applet "late-applet" "dept1" [ "d1" ] in
  Printf.printf "  threadmurder goes on a rampage:\n";
  rampage kernel ~subject:murderer;
  report "aftermath:" [ v1; v2; own; late ];
  Printf.printf
    "\nsame-category applets are protected by their owner ACLs (DAC), applets in\n\
     other compartments additionally by the category lattice (MAC); only the\n\
     murderer's own thread is lost.\n"
