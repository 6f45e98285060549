open Exsec_core

let check = Alcotest.(check bool)

let test_parse_and_print () =
  Alcotest.(check string) "simple" "/a/b/c" (Path.to_string (Path.of_string "/a/b/c"));
  Alcotest.(check string) "no leading slash" "/a/b" (Path.to_string (Path.of_string "a/b"));
  Alcotest.(check string) "repeated slashes" "/a/b" (Path.to_string (Path.of_string "//a///b/"));
  Alcotest.(check string) "root" "/" (Path.to_string (Path.of_string "/"));
  Alcotest.(check string) "empty is root" "/" (Path.to_string (Path.of_string ""))

let test_segments_validation () =
  (match Path.of_segments [ "a"; "" ] with
  | _ -> Alcotest.fail "empty segment accepted"
  | exception Invalid_argument _ -> ());
  match Path.of_segments [ "a/b" ] with
  | _ -> Alcotest.fail "slash in segment accepted"
  | exception Invalid_argument _ -> ()

let test_parent_basename () =
  let p = Path.of_string "/a/b/c" in
  Alcotest.(check (option string)) "basename" (Some "c") (Path.basename p);
  (match Path.parent p with
  | Some parent -> Alcotest.(check string) "parent" "/a/b" (Path.to_string parent)
  | None -> Alcotest.fail "no parent");
  check "root basename" true (Path.basename Path.root = None);
  check "root parent" true (Path.parent Path.root = None)

let test_child_append () =
  let p = Path.child (Path.of_string "/a") "b" in
  Alcotest.(check string) "child" "/a/b" (Path.to_string p);
  let q = Path.append p (Path.of_string "/c/d") in
  Alcotest.(check string) "append" "/a/b/c/d" (Path.to_string q);
  Alcotest.(check int) "depth" 4 (Path.depth q)

let test_prefix () =
  let a = Path.of_string "/a" in
  let ab = Path.of_string "/a/b" in
  let ax = Path.of_string "/a/x" in
  check "prefix" true (Path.is_prefix a ab);
  check "self prefix" true (Path.is_prefix ab ab);
  check "root prefix" true (Path.is_prefix Path.root ab);
  check "not prefix" false (Path.is_prefix ab a);
  check "sibling" false (Path.is_prefix ax ab)

let test_prefixes () =
  let p = Path.of_string "/a/b" in
  Alcotest.(check (list string))
    "prefixes" [ "/"; "/a"; "/a/b" ]
    (List.map Path.to_string (Path.prefixes p));
  Alcotest.(check (list string)) "root prefixes" [ "/" ] (List.map Path.to_string (Path.prefixes Path.root))

let test_compare_equal () =
  check "equal" true (Path.equal (Path.of_string "/a/b") (Path.of_string "a/b"));
  check "ordered" true (Path.compare (Path.of_string "/a") (Path.of_string "/b") < 0)

let prop_roundtrip =
  let seg = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) in
  let arb = QCheck.make QCheck.Gen.(list_size (int_range 0 6) seg) in
  QCheck.Test.make ~name:"of_string/to_string roundtrip" ~count:300 arb (fun segments ->
      let p = Path.of_segments segments in
      Path.equal p (Path.of_string (Path.to_string p)))

let prop_parent_child_inverse =
  let seg = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) in
  let arb = QCheck.make QCheck.Gen.(pair (list_size (int_range 0 5) seg) seg) in
  QCheck.Test.make ~name:"parent of child is original" ~count:300 arb
    (fun (segments, last) ->
      let p = Path.of_segments segments in
      match Path.parent (Path.child p last) with
      | Some back -> Path.equal back p
      | None -> false)

(* {1 The path against a root-first model}

   Every operation checked against a plain root-first [string list].
   Segments come from a four-word alphabet so paths collide, share
   prefixes and differ at every depth; the second path is built from
   the first's own value half of the time, so [equal]'s physical
   shortcut and shared ancestors are exercised too. *)

module Model = struct
  let to_string = function
    | [] -> "/"
    | segments -> "/" ^ String.concat "/" segments

  let rec is_prefix a b =
    match a, b with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> String.equal x y && is_prefix a' b'

  let prefixes segments =
    List.init (List.length segments + 1) (fun n -> List.filteri (fun i _ -> i < n) segments)

  let basename segments = List.nth_opt (List.rev segments) 0

  let parent = function
    | [] -> None
    | segments -> Some (List.filteri (fun i _ -> i < List.length segments - 1) segments)

  let sign n = Int.compare n 0
  let compare a b = sign (List.compare String.compare a b)
end

let segment_gen = QCheck.Gen.oneofl [ "a"; "b"; "ab"; "svc" ]
let segments_gen = QCheck.Gen.(list_size (int_range 0 6) segment_gen)

(* The text form with the slack [of_string] accepts: an optional
   leading slash, one or two slashes between segments, an optional
   trailing slash. *)
let text_gen segments =
  QCheck.Gen.(
    map3
      (fun lead seps trail ->
        let body =
          List.mapi (fun i s -> (if i = 0 then "" else List.nth seps i) ^ s) segments
        in
        (if lead then "/" else "") ^ String.concat "" body ^ if trail then "/" else "")
      bool
      (list_repeat (List.length segments) (oneofl [ "/"; "//" ]))
      bool)

let pair_gen =
  QCheck.Gen.(
    segments_gen >>= fun a ->
    segments_gen >>= fun b ->
    (* [Some k]: b extends a's own prefix of k segments. *)
    int_range 0 (List.length a) >>= fun k ->
    bool >>= fun shared ->
    text_gen a >>= fun text -> return (a, b, (if shared then Some k else None), text))

let prop_matches_model =
  let print (a, b, shared, text) =
    Printf.sprintf "a=%s b=%s shared=%s text=%S" (Model.to_string a) (Model.to_string b)
      (match shared with Some k -> string_of_int k | None -> "-")
      text
  in
  QCheck.Test.make ~name:"every operation matches the root-first model" ~count:1000
    (QCheck.make ~print pair_gen) (fun (sa, sb_tail, shared, text) ->
      let a = Path.of_segments sa in
      (* b either shares a's first k segments physically or is built
         anew. *)
      let sb, b =
        match shared with
        | Some k ->
          let base = List.nth (Path.prefixes a) k in
          let base_segments = List.filteri (fun i _ -> i < k) sa in
          base_segments @ sb_tail, Path.append base (Path.of_segments sb_tail)
        | None -> sb_tail, Path.of_segments sb_tail
      in
      let same_path p segments = Path.segments p = segments in
      let expect what ok = if not ok then QCheck.Test.fail_reportf "%s disagrees" what in
      expect "of_segments/segments" (same_path a sa && same_path b sb);
      expect "of_string" (same_path (Path.of_string text) sa);
      expect "to_string" (Path.to_string a = Model.to_string sa);
      expect "of_string of to_string" (Path.equal (Path.of_string (Path.to_string b)) b);
      expect "depth" (Path.depth a = List.length sa && Path.depth b = List.length sb);
      expect "is_root" (Path.is_root a = (sa = []));
      expect "basename" (Path.basename a = Model.basename sa);
      expect "parent"
        (Option.map Path.segments (Path.parent a) = Model.parent sa);
      expect "up"
        (Path.segments (Path.up a) = Option.value (Model.parent sa) ~default:[]);
      expect "last"
        (match Path.last a with
        | last -> Some last = Model.basename sa
        | exception Invalid_argument _ -> sa = []);
      expect "child" (same_path (Path.child a "leaf") (sa @ [ "leaf" ]));
      expect "append" (same_path (Path.append a b) (sa @ sb));
      expect "is_prefix a b" (Path.is_prefix a b = Model.is_prefix sa sb);
      expect "is_prefix b a" (Path.is_prefix b a = Model.is_prefix sb sa);
      expect "prefixes"
        (List.map Path.segments (Path.prefixes a) = Model.prefixes sa);
      expect "equal" (Path.equal a b = (sa = sb) && Path.equal b a = (sb = sa));
      expect "equal self" (Path.equal a a && Path.equal a (Path.of_segments sa));
      expect "compare a b" (Model.sign (Path.compare a b) = Model.compare sa sb);
      expect "compare b a" (Model.sign (Path.compare b a) = Model.compare sb sa);
      expect "compare self" (Path.compare b (Path.of_segments sb) = 0);
      true)

(* {1 Allocation pin} *)

let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before

let test_equal_allocates_nothing () =
  (* Two tables' worth of paths that share their root segments, none
     physically equal to another. *)
  let a = Path.of_string "/ext/relay/svc/fs/read" in
  let same = Path.of_string "/ext/relay/svc/fs/read" in
  let sibling = Path.of_string "/ext/relay/svc/fs/write" in
  let cousin = Path.of_string "/ext/other/svc/fs/read" in
  let run () =
    for _ = 1 to 10_000 do
      ignore (Path.equal a same);
      ignore (Path.equal a sibling);
      ignore (Path.equal a cousin);
      ignore (Path.equal a Path.root)
    done
  in
  run ();
  check "the pins compare what they claim" true
    (Path.equal a same && (not (Path.equal a sibling)) && not (Path.equal a cousin));
  let baseline = minor_delta (fun () -> ()) in
  let measured = minor_delta run in
  Alcotest.(check (float 0.)) "equal words" baseline measured

(* {1 A deep path}

   A path is walked by recursion over its segments in several places
   (the name space's descent among them); 100,000 segments must not
   overflow the stack anywhere in this module. *)
let test_deep_path () =
  let n = 100_000 in
  let text = String.concat "/" (List.init n (fun i -> if i mod 2 = 0 then "a" else "b")) in
  let deep = Path.of_string text in
  let copy = Path.of_segments (Path.segments deep) in
  Alcotest.(check int) "depth" n (Path.depth deep);
  check "equal to a copy" true (Path.equal deep copy);
  Alcotest.(check int) "compare to a copy" 0 (Path.compare deep copy);
  check "a parent is a prefix" true (Path.is_prefix (Path.up deep) copy);
  check "to_string" true (String.equal (Path.to_string deep) ("/" ^ text));
  check "append" true (Path.depth (Path.append deep deep) = 2 * n);
  Alcotest.(check int) "prefixes" (n + 1) (List.length (Path.prefixes deep))

let suite =
  [
    Alcotest.test_case "parse and print" `Quick test_parse_and_print;
    Alcotest.test_case "segment validation" `Quick test_segments_validation;
    Alcotest.test_case "parent/basename" `Quick test_parent_basename;
    Alcotest.test_case "child/append" `Quick test_child_append;
    Alcotest.test_case "prefix" `Quick test_prefix;
    Alcotest.test_case "prefixes" `Quick test_prefixes;
    Alcotest.test_case "compare/equal" `Quick test_compare_equal;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_parent_child_inverse;
    QCheck_alcotest.to_alcotest prop_matches_model;
    Alcotest.test_case "equal allocates nothing" `Quick test_equal_allocates_nothing;
    Alcotest.test_case "a 100,000-segment path" `Quick test_deep_path;
  ]
