(* Tests for the text formats. *)

open Graphs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample_graph = {|
# a comment
bipartite
left  A B C
right r1 r2
edge  A r1
edge  B r1   # trailing comment
edge  B r2
edge  C r2
|}

let test_parse_bigraph () =
  match Mc_io.Parse.bigraph_of_string sample_graph with
  | Ok nb ->
    check_int "left" 3 (Array.length nb.Mc_io.Parse.left_names);
    check_int "right" 2 (Array.length nb.Mc_io.Parse.right_names);
    check_int "edges" 4 (Bipartite.Bigraph.m nb.Mc_io.Parse.graph);
    check "edge A-r1 present" true
      (Bipartite.Bigraph.mem_edge nb.Mc_io.Parse.graph 0 0)
  | Error e -> Alcotest.failf "parse error: %a" Mc_io.Parse.pp_error e

let test_round_trip () =
  match Mc_io.Parse.bigraph_of_string sample_graph with
  | Error _ -> Alcotest.fail "parse"
  | Ok nb -> (
    let printed = Mc_io.Parse.bigraph_to_string nb in
    match Mc_io.Parse.bigraph_of_string printed with
    | Ok nb2 ->
      check "round trip preserves the graph" true
        (Bipartite.Bigraph.equal nb.Mc_io.Parse.graph nb2.Mc_io.Parse.graph);
      check "names preserved" true
        (nb.Mc_io.Parse.left_names = nb2.Mc_io.Parse.left_names
        && nb.Mc_io.Parse.right_names = nb2.Mc_io.Parse.right_names)
    | Error e -> Alcotest.failf "reparse error: %a" Mc_io.Parse.pp_error e)

(* Regression: the printer used to put every name on one [left] and one
   [right] line, so a graph past ~10k nodes per side printed lines over
   [max_line_bytes] that its own parser rejected. *)
let test_large_round_trip () =
  let graph =
    Workloads.Gen_scale.to_bigraph
      (Workloads.Gen_scale.make Workloads.Gen_scale.Forest ~target_n:20_000
         ~seed:1)
  in
  check "at least 20k nodes" true (Bipartite.Bigraph.n graph >= 20_000);
  let nb =
    {
      Mc_io.Parse.graph;
      left_names =
        Array.init (Bipartite.Bigraph.nl graph) (Printf.sprintf "a%d");
      right_names =
        Array.init (Bipartite.Bigraph.nr graph) (Printf.sprintf "r%d");
    }
  in
  let printed = Mc_io.Parse.bigraph_to_string nb in
  check "every printed line fits the parser's cap" true
    (List.for_all
       (fun l -> String.length l <= Mc_io.Parse.max_line_bytes)
       (String.split_on_char '\n' printed));
  match Mc_io.Parse.bigraph_of_string printed with
  | Ok nb2 ->
    check "large round trip preserves the graph" true
      (Bipartite.Bigraph.equal graph nb2.Mc_io.Parse.graph);
    check "large round trip preserves the names" true
      (nb.Mc_io.Parse.left_names = nb2.Mc_io.Parse.left_names
      && nb.Mc_io.Parse.right_names = nb2.Mc_io.Parse.right_names)
  | Error e -> Alcotest.failf "reparse error: %a" Mc_io.Parse.pp_error e

(* Regression: [hypergraph_to_string] used to write every node on one
   [nodes] line, so a hypergraph past ~10k nodes printed a file its own
   parser rejected. A 20k-node path, one 2-edge per consecutive pair. *)
let test_large_hypergraph_round_trip () =
  let n = 20_000 in
  let h =
    Hypergraphs.Hypergraph.create ~n_nodes:n
      (List.init (n - 1) (fun i -> Iset.of_list [ i; i + 1 ]))
  in
  let node_names = Array.init n (Printf.sprintf "v%d") in
  let edge_names = Array.init (n - 1) (Printf.sprintf "e%d") in
  let printed = Mc_io.Parse.hypergraph_to_string h ~node_names ~edge_names in
  check "every printed line fits the parser's cap" true
    (List.for_all
       (fun l -> String.length l <= Mc_io.Parse.max_line_bytes)
       (String.split_on_char '\n' printed));
  match Mc_io.Parse.hypergraph_of_string printed with
  | Ok (h2, node_names2, edge_names2) ->
    check "large hypergraph round trip preserves the edges" true
      (Hypergraphs.Hypergraph.n_nodes h2 = n
      && Hypergraphs.Hypergraph.n_edges h2 = n - 1
      && Array.for_all2 Iset.equal (Hypergraphs.Hypergraph.edges h)
           (Hypergraphs.Hypergraph.edges h2));
    check "large hypergraph round trip preserves the names" true
      (node_names = node_names2 && edge_names = edge_names2)
  | Error e -> Alcotest.failf "reparse error: %a" Mc_io.Parse.pp_error e

let expect_error text expected_substring =
  match Mc_io.Parse.bigraph_of_string text with
  | Ok _ -> Alcotest.failf "expected a parse error (%s)" expected_substring
  | Error e ->
    let msg = Format.asprintf "%a" Mc_io.Parse.pp_error e in
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    check ("error mentions " ^ expected_substring) true
      (contains msg expected_substring)

let test_parse_errors () =
  expect_error "nonsense" "bipartite";
  expect_error "bipartite\nleft A\nright r\nedge B r" "unknown left node";
  expect_error "bipartite\nleft A\nright r\nedge A z" "unknown right node";
  expect_error "bipartite\nleft A A\nright r" "duplicate";
  expect_error "bipartite\nfoo bar" "unknown directive"

let test_name_set () =
  match Mc_io.Parse.bigraph_of_string sample_graph with
  | Error _ -> Alcotest.fail "parse"
  | Ok nb -> (
    (match Mc_io.Parse.name_set nb [ "A"; "r2" ] with
    | Ok s -> check_int "two nodes" 2 (Iset.cardinal s)
    | Error _ -> Alcotest.fail "known names");
    match Mc_io.Parse.name_set nb [ "A"; "zz" ] with
    | Error "zz" -> check "unknown reported" true true
    | _ -> Alcotest.fail "expected unknown name")

(* ------------------------------------------- name index vs the scan *)

module Parse = Mc_io.Parse
module Scan = Oracle.Name_scan

let op_equal a b =
  let module D = Bipartite.Delta in
  match (a, b) with
  | D.Add_relation s, D.Add_relation s' -> Iset.equal s s'
  | D.Add_relation _, _ | _, D.Add_relation _ -> false
  | _ -> a = b

(* Names come from a small pool, so schemas repeat names within and
   across sides (the record can be built by hand; the file parser
   rejects duplicates) and directives hit known, removed, re-added and
   unknown names alike. *)
let pool = [| "a"; "b"; "c"; "r"; "s"; "t"; "u"; "x0"; "x1"; "x2"; "zz" |]

let random_schema st =
  let pick () = pool.(Random.State.int st 7) in
  let nl = Random.State.int st 6 and nr = Random.State.int st 6 in
  let left_names = Array.init nl (fun _ -> pick ()) in
  let right_names = Array.init nr (fun _ -> pick ()) in
  let edges = ref [] in
  for i = 0 to nl - 1 do
    for j = 0 to nr - 1 do
      if Random.State.int st 3 = 0 then edges := (i, j) :: !edges
    done
  done;
  {
    Parse.graph = Bipartite.Bigraph.of_edges ~nl ~nr !edges;
    left_names;
    right_names;
  }

let random_directive st =
  let name () = pool.(Random.State.int st (Array.length pool)) in
  match Random.State.int st 5 with
  | 0 -> Scan.Add_edge (name (), name ())
  | 1 -> Scan.Remove_edge (name (), name ())
  | 2 | 3 ->
    let attrs = List.init (Random.State.int st 3) (fun _ -> name ()) in
    Scan.Add_relation (name (), attrs)
  | _ -> Scan.Remove_relation (name ())

let resolves_like_scan names nb =
  Array.for_all
    (fun n ->
      match (Parse.Names.resolve names nb [ n ], Scan.name_set nb [ n ]) with
      | Ok s, Ok s' -> Iset.equal s s'
      | Error e, Error e' -> e = e'
      | _ -> false)
    pool
  &&
  let all = Array.to_list pool in
  match (Parse.Names.resolve names nb all, Scan.name_set nb all) with
  | Ok s, Ok s' -> Iset.equal s s'
  | Error e, Error e' -> e = e'
  | _ -> false

(* A server's life in miniature: the index is built once and carried
   through successive delta files, rejected files leave the state as it
   was, and after every file each name resolves as the linear scan
   resolves it on the same evolved schema. *)
let prop_index_matches_scan =
  QCheck2.Test.make ~count:500 ~name:"name index = linear scan under deltas"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let nb0 = random_schema st in
      let rec go nb names files =
        resolves_like_scan names nb
        &&
        match files with
        | [] -> true
        | directives :: rest -> (
          let text =
            String.concat "\n" ("deltas" :: List.map Scan.to_line directives)
          in
          match
            (Parse.resolve_deltas names nb text, Scan.deltas nb directives)
          with
          | Ok (ops, right_names, names'), Ok (ops', nb') ->
            let graph =
              match Bipartite.Delta.apply_all nb.Parse.graph ops with
              | Ok g -> g
              | Error msg -> QCheck2.Test.fail_reportf "apply_all: %s" msg
            in
            List.length ops = List.length ops'
            && List.for_all2 op_equal ops ops'
            && right_names = nb'.Parse.right_names
            && Bipartite.Bigraph.equal graph nb'.Parse.graph
            && go { nb with Parse.graph; right_names } names' rest
          | Error (Runtime.Errors.Parse_error { line; _ }), Error k ->
            line = k + 1 && go nb names rest
          | _ -> false)
      in
      go nb0 (Parse.Names.build nb0)
        (List.init
           (1 + Random.State.int st 4)
           (fun _ ->
             List.init
               (1 + Random.State.int st 5)
               (fun _ -> random_directive st))))

(* Past the scan bound of appended relations the next file rebuilds
   the index; interior and last removals then keep resolving like the
   scan. *)
let test_index_long_tail () =
  let nb0 =
    {
      Parse.graph = Bipartite.Bigraph.of_edges ~nl:2 ~nr:2 [ (0, 0); (1, 1) ];
      left_names = [| "a"; "b" |];
      right_names = [| "r"; "s" |];
    }
  in
  let adds =
    List.init 100 (fun k -> Scan.Add_relation (Printf.sprintf "n%d" k, [ "a" ]))
  in
  let step (nb, names) directives =
    let text =
      String.concat "\n" ("deltas" :: List.map Scan.to_line directives)
    in
    match (Parse.resolve_deltas names nb text, Scan.deltas nb directives) with
    | Ok (ops, right_names, names'), Ok (_, nb') ->
      check "evolved names match the scan" true
        (right_names = nb'.Parse.right_names);
      let graph =
        match Bipartite.Delta.apply_all nb.Parse.graph ops with
        | Ok g -> g
        | Error msg -> Alcotest.fail msg
      in
      let nb = { nb with Parse.graph; right_names } in
      List.iter
        (fun n ->
          check ("resolves " ^ n) true
            (match
               (Parse.Names.resolve names' nb [ n ], Scan.name_set nb [ n ])
             with
            | Ok s, Ok s' -> Iset.equal s s'
            | Error e, Error e' -> e = e'
            | _ -> false))
        ([ "a"; "b"; "r"; "s"; "zz" ]
        @ List.init 100 (fun k -> Printf.sprintf "n%d" k));
      (nb, names')
    | _ -> Alcotest.fail "delta file rejected"
  in
  let st = step (nb0, Parse.Names.build nb0) adds in
  let st =
    step st [ Scan.Remove_relation "n99"; Scan.Remove_relation "n98" ]
  in
  let st =
    step st [ Scan.Remove_relation "s"; Scan.Add_relation ("n99", []) ]
  in
  ignore (step st [ Scan.Remove_relation "n99"; Scan.Remove_relation "n0" ])

let test_parse_schema () =
  let text = {|
schema
relation works   emp dept
relation located dept floor
|} in
  match Mc_io.Parse.schema_of_string text with
  | Ok schema ->
    check_int "relations" 2
      (List.length (Datamodel.Schema.relation_names schema));
    check_int "attributes" 3 (List.length (Datamodel.Schema.attributes schema))
  | Error e -> Alcotest.failf "schema parse: %a" Mc_io.Parse.pp_error e

let test_parse_hypergraph () =
  let text = {|
hypergraph
nodes a b c d
edge e1 a b
edge e2 b c d
|} in
  match Mc_io.Parse.hypergraph_of_string text with
  | Ok (h, node_names, edge_names) ->
    check_int "nodes" 4 (Hypergraphs.Hypergraph.n_nodes h);
    check_int "edges" 2 (Hypergraphs.Hypergraph.n_edges h);
    check "names kept" true
      (node_names = [| "a"; "b"; "c"; "d" |] && edge_names = [| "e1"; "e2" |]);
    check "content" true
      (Iset.equal (Hypergraphs.Hypergraph.edge h 1) (Iset.of_list [ 1; 2; 3 ]))
  | Error e -> Alcotest.failf "hypergraph parse: %a" Mc_io.Parse.pp_error e

let test_parse_database () =
  let text = {|
database
relation works emp dept
row works alice toys
row works bob books
|} in
  (match Mc_io.Parse.database_of_string text with
  | Ok db ->
    check_int "one relation" 1 (List.length (Relalg.Database.names db));
    check_int "two rows" 2
      (Relalg.Relation.cardinality (Relalg.Database.relation db "works"))
  | Error e -> Alcotest.failf "database parse: %a" Mc_io.Parse.pp_error e);
  (match Mc_io.Parse.database_of_string "database
row ghost x" with
  | Error _ -> check "row for unknown relation rejected" true true
  | Ok _ -> Alcotest.fail "expected error");
  match Mc_io.Parse.database_of_string "database
relation r a b
row r x" with
  | Error _ -> check "arity mismatch rejected" true true
  | Ok _ -> Alcotest.fail "expected error"

let test_parse_query () =
  (match Mc_io.Parse.query_of_string "connect emp, manager" with
  | Ok (objs, []) ->
    check "two objects" true (List.sort compare objs = [ "emp"; "manager" ])
  | _ -> Alcotest.fail "plain connect");
  (match
     Mc_io.Parse.query_of_string
       "connect emp where dept = toys and floor = 1"
   with
  | Ok ([ "emp" ], where) ->
    check "two conditions" true
      (List.sort compare where = [ ("dept", "toys"); ("floor", "1") ])
  | _ -> Alcotest.fail "where clause");
  (match Mc_io.Parse.query_of_string "select * from t" with
  | Error _ -> check "non-connect rejected" true true
  | Ok _ -> Alcotest.fail "expected error");
  match Mc_io.Parse.query_of_string "connect a where b =" with
  | Error _ -> check "malformed condition rejected" true true
  | Ok _ -> Alcotest.fail "expected error"

let test_printer_round_trips () =
  (* Schema round trip. *)
  let schema =
    Datamodel.Schema.make [ ("works", [ "emp"; "dept" ]); ("loc", [ "dept"; "floor" ]) ]
  in
  (match Mc_io.Parse.schema_of_string (Mc_io.Parse.schema_to_string schema) with
  | Ok s2 ->
    check "schema survives" true
      (Datamodel.Schema.relation_names s2 = Datamodel.Schema.relation_names schema
      && Datamodel.Schema.attributes s2 = Datamodel.Schema.attributes schema)
  | Error e -> Alcotest.failf "schema reparse: %a" Mc_io.Parse.pp_error e);
  (* Hypergraph round trip. *)
  let h =
    Hypergraphs.Hypergraph.create ~n_nodes:3
      [ Iset.of_list [ 0; 1 ]; Iset.of_list [ 1; 2 ] ]
  in
  let text =
    Mc_io.Parse.hypergraph_to_string h ~node_names:[| "x"; "y"; "z" |]
      ~edge_names:[| "e"; "f" |]
  in
  (match Mc_io.Parse.hypergraph_of_string text with
  | Ok (h2, _, _) ->
    check "hypergraph survives" true (Hypergraphs.Hypergraph.equal_modulo_order h h2)
  | Error e -> Alcotest.failf "hypergraph reparse: %a" Mc_io.Parse.pp_error e);
  (* Database round trip. *)
  let db =
    Relalg.Database.make
      [ ("r", Relalg.Relation.make ~attrs:[ "a"; "b" ] [ [ "1"; "2" ]; [ "3"; "4" ] ]) ]
  in
  match Mc_io.Parse.database_of_string (Mc_io.Parse.database_to_string db) with
  | Ok db2 ->
    check "database survives" true
      (Relalg.Relation.equal (Relalg.Database.relation db "r")
         (Relalg.Database.relation db2 "r"))
  | Error e -> Alcotest.failf "database reparse: %a" Mc_io.Parse.pp_error e

let () =
  Alcotest.run "mc_io"
    [
      ( "parse",
        [
          Alcotest.test_case "bigraph" `Quick test_parse_bigraph;
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "large round trip" `Quick test_large_round_trip;
          Alcotest.test_case "large hypergraph round trip" `Quick
            test_large_hypergraph_round_trip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "name set" `Quick test_name_set;
          Alcotest.test_case "name index long tail" `Quick test_index_long_tail;
          QCheck_alcotest.to_alcotest prop_index_matches_scan;
          Alcotest.test_case "schema" `Quick test_parse_schema;
          Alcotest.test_case "hypergraph" `Quick test_parse_hypergraph;
          Alcotest.test_case "database" `Quick test_parse_database;
          Alcotest.test_case "query language" `Quick test_parse_query;
          Alcotest.test_case "printer round trips" `Quick test_printer_round_trips;
        ] );
    ]
