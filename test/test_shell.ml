open Exsec_shell

let check = Alcotest.(check bool)

let boot () =
  match Shell.create () with
  | Ok shell -> shell
  | Error message -> Alcotest.failf "create: %s" message

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec scan i = i + n <= h && (String.equal (String.sub haystack i n) needle || scan (i + 1)) in
  n = 0 || scan 0

let test_boot_and_whoami () =
  let shell = boot () in
  check "admin session" true (contains (Shell.exec shell "whoami") "admin");
  check "prompt" true (contains (Shell.prompt shell) "admin")

let test_login_sessions () =
  let shell = boot () in
  check "alice" true (contains (Shell.exec shell "login alice") "alice@local");
  check "below clearance" true
    (contains (Shell.exec shell "login alice organization department-1") "organization");
  check "above clearance refused" true
    (contains (Shell.exec shell "login bob local") "error");
  check "unknown user" true (contains (Shell.exec shell "login ghost") "error")

let test_file_commands () =
  let shell = boot () in
  ignore (Shell.exec shell "login alice");
  Alcotest.(check string) "write" "ok" (Shell.exec shell "write /fs/note hello world");
  Alcotest.(check string) "cat" "hello world" (Shell.exec shell "cat /fs/note");
  Alcotest.(check string) "append" "ok" (Shell.exec shell "append /fs/note !");
  Alcotest.(check string) "cat2" "hello world!" (Shell.exec shell "cat /fs/note");
  check "ls shows it" true (contains (Shell.exec shell "ls /fs") "note");
  Alcotest.(check string) "rm" "ok" (Shell.exec shell "rm /fs/note");
  check "gone" true (contains (Shell.exec shell "cat /fs/note") "error");
  check "non-fs path refused" true (contains (Shell.exec shell "cat /svc/log") "error")

let test_protection_commands () =
  let shell = boot () in
  ignore (Shell.exec shell "login alice");
  ignore (Shell.exec shell "write /fs/mine secret");
  (* bob at organization cannot read alice's local file: DAC (owner
     only) and MAC (read-up) both block. *)
  ignore (Shell.exec shell "login bob");
  check "bob denied" true (contains (Shell.exec shell "cat /fs/mine") "error");
  (* alice grants read; MAC still refuses bob (alice's file is
     local-classified). *)
  ignore (Shell.exec shell "login alice");
  Alcotest.(check string) "allow" "ok" (Shell.exec shell "allow /fs/mine user:bob read");
  ignore (Shell.exec shell "login bob");
  check "MAC still blocks" true (contains (Shell.exec shell "cat /fs/mine") "read-up");
  (* Relabelling takes the administrate right, which only the owner
     holds — even the trusted admin is refused by DAC. *)
  ignore (Shell.exec shell "login admin");
  check "admin lacks administrate" true
    (contains (Shell.exec shell "setclass /fs/mine organization department-2") "error");
  ignore (Shell.exec shell "login alice");
  Alcotest.(check string) "owner relabels" "ok"
    (Shell.exec shell "setclass /fs/mine organization department-2");
  ignore (Shell.exec shell "login bob");
  Alcotest.(check string) "bob reads" "secret" (Shell.exec shell "cat /fs/mine")

let test_extensions_and_calls () =
  let shell = boot () in
  ignore (Shell.exec shell "login alice");
  check "load cipher" true (contains (Shell.exec shell "load cipher") "linked");
  Alcotest.(check string) "rot13" {|"uryyb"|} (Shell.exec shell "call /ext/cipher/rot13 hello");
  check "extensions list" true (contains (Shell.exec shell "extensions") "cipher");
  Alcotest.(check string) "unload" "unloaded" (Shell.exec shell "unload cipher");
  check "gone" true (contains (Shell.exec shell "call /ext/cipher/rot13 x") "error")

let test_threads_commands () =
  let shell = boot () in
  ignore (Shell.exec shell "login alice");
  check "spawn" true (contains (Shell.exec shell "spawn worker 3") "spawned");
  check "threads listed" true (contains (Shell.exec shell "threads") "worker");
  check "run drains" true (contains (Shell.exec shell "run") "quanta");
  Alcotest.(check string) "no live" "no live threads" (Shell.exec shell "threads")

let test_network_commands () =
  let shell = boot () in
  ignore (Shell.exec shell "login alice");
  Alcotest.(check string) "listen" "listening" (Shell.exec shell "listen mail 25");
  Alcotest.(check string) "connect" "connected" (Shell.exec shell "connect mail 25");
  Alcotest.(check string) "send" "sent" (Shell.exec shell "send mail 25 HELO there");
  Alcotest.(check string) "recv" "HELO there" (Shell.exec shell "recv mail 25");
  (* eve at others cannot reach alice's endpoint. *)
  ignore (Shell.exec shell "login eve");
  check "eve denied" true (contains (Shell.exec shell "connect mail 25") "error")

let test_audit_and_flow () =
  let shell = boot () in
  ignore (Shell.exec shell "login alice");
  ignore (Shell.exec shell "write /fs/x 1");
  ignore (Shell.exec shell "cat /fs/x");
  let audit = Shell.exec shell "audit 5" in
  check "audit shows grants" true (contains audit "granted");
  check "flow clean" true (contains (Shell.exec shell "flow") "no flow violations")

let test_syslog_commands () =
  let shell = boot () in
  ignore (Shell.exec shell "login eve");
  Alcotest.(check string) "eve appends" "logged" (Shell.exec shell "syslog eve was here");
  check "eve cannot read" true (contains (Shell.exec shell "readlog") "error");
  ignore (Shell.exec shell "login admin");
  check "admin reads" true (contains (Shell.exec shell "readlog") "eve was here")

let test_garbage_never_raises () =
  let shell = boot () in
  List.iter
    (fun line -> ignore (Shell.exec shell line))
    [
      "";
      "   ";
      "frobnicate the bits";
      "login";
      "cat";
      "allow /fs/x wizard:me read";
      "allow /fs/x user: read";
      "setclass /fs/x nolevel";
      "call";
      "kill abc";
      "spawn x notanumber";
      "send mail 25 before connect";
      "login alice nonsense-level";
    ]

let test_policy_boot () =
  let source =
    "levels hi > lo\n\
     individual root\n\
     individual user\n\
     clearance root = hi trusted\n\
     clearance user = lo\n\
     object /fs/motd {\n\
    \  owner root\n\
    \  class lo\n\
    \  allow everyone read list\n\
    \  allow user:root write administrate\n\
     }\n"
  in
  let spec =
    match Exsec_core.Policy_text.parse source with
    | Ok spec -> spec
    | Error _ -> Alcotest.fail "parse"
  in
  let shell =
    match Shell.create ~policy:spec () with
    | Ok shell -> shell
    | Error message -> Alcotest.failf "create: %s" message
  in
  check "login from policy" true (contains (Shell.exec shell "login user") "user@lo");
  (* The policy's object exists with its ACL: world-readable. *)
  Alcotest.(check string) "read motd" "" (Shell.exec shell "cat /fs/motd");
  check "write denied for user" true (contains (Shell.exec shell "write /fs/motd hi") "error")

let suite =
  [
    Alcotest.test_case "boot and whoami" `Quick test_boot_and_whoami;
    Alcotest.test_case "login sessions" `Quick test_login_sessions;
    Alcotest.test_case "file commands" `Quick test_file_commands;
    Alcotest.test_case "protection commands" `Quick test_protection_commands;
    Alcotest.test_case "extensions and calls" `Quick test_extensions_and_calls;
    Alcotest.test_case "threads" `Quick test_threads_commands;
    Alcotest.test_case "network" `Quick test_network_commands;
    Alcotest.test_case "audit and flow" `Quick test_audit_and_flow;
    Alcotest.test_case "syslog" `Quick test_syslog_commands;
    Alcotest.test_case "garbage never raises" `Quick test_garbage_never_raises;
    Alcotest.test_case "policy boot" `Quick test_policy_boot;
  ]

let test_export_roundtrip () =
  let shell = boot () in
  ignore (Shell.exec shell "login alice");
  ignore (Shell.exec shell "write /fs/doc alpha");
  ignore (Shell.exec shell "allow /fs/doc user:bob read");
  let exported = Shell.exec shell "export" in
  check "mentions the file" true (contains exported "object /fs/doc");
  check "mentions the grant" true (contains exported "user:bob read");
  check "mentions clearances" true (contains exported "clearance alice");
  check "no secrets" true (not (contains exported "secret"));
  (* The exported text parses and builds. *)
  match Exsec_core.Policy_text.parse exported with
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Exsec_core.Policy_text.pp_error e)
  | Ok spec -> (
    match Exsec_core.Policy_text.build spec with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "build: %s" (Format.asprintf "%a" Exsec_core.Policy_text.pp_error e))

(* export walks what stat walks: eve, refused [ls /fs/secret] and
   [stat] by MAC read-up, learns nothing of alice's classified file
   from it either. *)
let test_export_mediated () =
  let shell = boot () in
  ignore (Shell.exec shell "login alice");
  Alcotest.(check string) "mkdir" "ok" (Shell.exec shell "mkdir /fs/secret");
  Alcotest.(check string) "write" "ok" (Shell.exec shell "write /fs/secret/plan.txt attack at dawn");
  check "alice exports her file" true
    (contains (Shell.exec shell "export") "object /fs/secret/plan.txt");
  ignore (Shell.exec shell "login eve");
  check "ls refused" true (contains (Shell.exec shell "ls /fs/secret") "read-up");
  check "stat refused" true (contains (Shell.exec shell "stat /fs/secret/plan.txt") "read-up");
  let exported = Shell.exec shell "export" in
  check "export names no hidden path" false (contains exported "/fs/secret");
  check "nor its owner" false (contains exported "owner alice")

let suite =
  suite
  @ [
      Alcotest.test_case "export roundtrip" `Quick test_export_roundtrip;
      Alcotest.test_case "export shows only what stat shows" `Quick test_export_mediated;
    ]

let test_quota_command () =
  let shell = boot () in
  (* Admin throttles eve to 3 calls; the shell's own kernel calls then
     run dry quickly. *)
  Alcotest.(check string) "set" "ok" (Shell.exec shell "quota eve 3");
  ignore (Shell.exec shell "login eve");
  ignore (Shell.exec shell "call /svc/introspect/audit_totals");
  ignore (Shell.exec shell "call /svc/introspect/audit_totals");
  ignore (Shell.exec shell "call /svc/introspect/audit_totals");
  check "budget drained" true
    (contains (Shell.exec shell "call /svc/introspect/audit_totals") "quota");
  ignore (Shell.exec shell "login admin");
  Alcotest.(check string) "clear" "quota cleared" (Shell.exec shell "quota eve off");
  ignore (Shell.exec shell "login eve");
  check "restored" true
    (not (contains (Shell.exec shell "call /svc/introspect/audit_totals") "quota"));
  check "bad args" true (contains (Shell.exec shell "quota eve lots") "error")

let suite = suite @ [ Alcotest.test_case "quota command" `Quick test_quota_command ]

let test_policy_quota_applied () =
  let source =
    "levels a > b\nindividual eve\nclearance eve = b\nquota eve calls=2\n"
  in
  let spec =
    match Exsec_core.Policy_text.parse source with
    | Ok spec -> spec
    | Error _ -> Alcotest.fail "parse"
  in
  let shell =
    match Shell.create ~policy:spec () with
    | Ok shell -> shell
    | Error message -> Alcotest.failf "create: %s" message
  in
  ignore (Shell.exec shell "login eve");
  ignore (Shell.exec shell "call /svc/introspect/audit_totals");
  ignore (Shell.exec shell "call /svc/introspect/audit_totals");
  check "policy quota enforced" true
    (contains (Shell.exec shell "call /svc/introspect/audit_totals") "quota")

let suite =
  suite @ [ Alcotest.test_case "policy quota applied" `Quick test_policy_quota_applied ]
