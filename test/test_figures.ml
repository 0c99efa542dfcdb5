(* Validation of every reconstructed paper figure against the exact
   properties the text asserts about it. *)

open Graphs
open Hypergraphs
open Bipartite
open Steiner
open Datamodel

let check = Alcotest.(check bool)

(* -------------------------------------------------------------- Fig 1 *)

let test_fig1_interpretations () =
  let er = Figures.fig1_er in
  let interps = Er.interpretations ~k:3 er ~objects:Figures.fig1_query in
  check "at least two interpretations" true (List.length interps >= 2);
  let first = List.sort compare (List.hd interps) in
  (* Minimal interpretation: EMPLOYEE--DATE directly (birthdate), no
     auxiliary object. *)
  check "minimal connection has no auxiliary object" true
    (first = [ "DATE"; "EMPLOYEE" ]);
  let second = List.nth interps 1 in
  check "second interpretation goes through WORKS" true
    (List.mem "WORKS" second)

let test_fig1_graph_shape () =
  let er = Figures.fig1_er in
  check "fig1 object graph is not bipartite (3-partite with shared DATE)"
    false (Er.is_bipartite er);
  check "objects include all three levels" true
    (List.mem "EMPLOYEE" (Er.entities er)
    && List.mem "WORKS" (Er.relationships er)
    && List.mem "DATE" (Er.attributes er))

(* -------------------------------------------------------------- Fig 2 *)

let test_fig2_duality_failure () =
  let g = Figures.fig2.Figures.graph in
  let h1 = Correspond.h1_exn g in
  let h2 = Correspond.h2_exn g in
  check "H1 alpha-acyclic" true (Gyo.alpha_acyclic h1);
  check "H2 = dual is NOT alpha-acyclic" false (Gyo.alpha_acyclic h2);
  check "H2 equals dual of H1 (Definition 3)" true
    (Hypergraph.equal_modulo_order h2 (Hypergraph.dual h1));
  (* Theorem 1 (v)/(vi) on this instance. *)
  check "V2-chordal" true (Side_properties.chordal g Bigraph.V2);
  check "V2-conformal" true (Side_properties.conformal g Bigraph.V2);
  check "not both V1-chordal and V1-conformal" false
    (Side_properties.chordal g Bigraph.V1
    && Side_properties.conformal g Bigraph.V1)

(* ---------------------------------------------------------- Figs 3, 4 *)

let degree_of g =
  Acyclicity.degree (Correspond.h1_exn g)

let test_fig3a () =
  let g = Figures.fig3a.Figures.graph in
  check "forest" true (Mn_chordality.is_41_chordal g);
  check "H1 Berge-acyclic (Fig 4a)" true
    (degree_of g = Acyclicity.Berge_acyclic);
  check "brute (4,1)" true (Oracle.Mn_brute.is_mn_chordal_brute g ~m:4 ~n:1)

let test_fig3b () =
  let g = Figures.fig3b.Figures.graph in
  check "not a forest" false (Mn_chordality.is_41_chordal g);
  check "(6,2)-chordal" true (Mn_chordality.is_62_chordal g);
  check "H1 gamma- but not Berge-acyclic (Fig 4b)" true
    (degree_of g = Acyclicity.Gamma_acyclic);
  check "brute (6,2)" true (Oracle.Mn_brute.is_mn_chordal_brute g ~m:6 ~n:2)

let test_fig3c () =
  let g = Figures.fig3c.Figures.graph in
  check "(6,1)-chordal" true (Mn_chordality.is_61_chordal g);
  check "not (6,2)-chordal" false (Mn_chordality.is_62_chordal g);
  check "H1 beta- but not gamma-acyclic (Fig 4c)" true
    (degree_of g = Acyclicity.Beta_acyclic);
  check "brute (6,1)" true (Oracle.Mn_brute.is_mn_chordal_brute g ~m:6 ~n:1);
  check "brute not (6,2)" false
    (Oracle.Mn_brute.is_mn_chordal_brute g ~m:6 ~n:2)

(* Section 3's remark on Fig 3c: {A,B,C,E,1,3} is a minimum-V2 tree
   over {A,B,E} but not a Steiner tree. *)
let test_fig3c_pseudo_vs_steiner () =
  let g = Figures.fig3c.Figures.graph in
  let u = Bigraph.ugraph g in
  let p = Figures.fig3c_p in
  let pseudo = Figures.fig3c_pseudo_nodes in
  check "quoted node set is a cover of P" true (Cover.is_cover u ~p pseudo);
  let v2 = Bigraph.right_nodes g in
  let quoted_v2 = Iset.cardinal (Iset.inter pseudo v2) in
  (match Brute.v2_minimum g ~p with
  | Some (_, best) ->
    Alcotest.(check int) "quoted set attains the V2 minimum" best quoted_v2
  | None -> Alcotest.fail "v2_minimum found no cover");
  (match Dreyfus_wagner.optimum_nodes u ~terminals:p with
  | Some opt ->
    check "but it is not a Steiner tree (more nodes than optimum)" true
      (Iset.cardinal pseudo > opt)
  | None -> Alcotest.fail "Steiner optimum missing")

(* -------------------------------------------------------------- Fig 5 *)

let test_fig5 () =
  let g = Figures.fig5.Figures.graph in
  check "V2-chordal" true (Side_properties.chordal g Bigraph.V2);
  check "V2-conformal" true (Side_properties.conformal g Bigraph.V2);
  check "V1-chordal" true (Side_properties.chordal g Bigraph.V1);
  check "V1-conformal" true (Side_properties.conformal g Bigraph.V1);
  check "not (6,1)-chordal" false (Mn_chordality.is_61_chordal g);
  check "brute agrees: not (6,1)" false
    (Oracle.Mn_brute.is_mn_chordal_brute g ~m:6 ~n:1)

(* -------------------------------------------------------------- Fig 6 *)

let test_fig6 () =
  let inst = Figures.fig6_x3c in
  (match X3c.solve inst with
  | Some cover ->
    check "solver's cover verifies" true (X3c.verify inst cover);
    Alcotest.(check (list int)) "the cover is {c0, c2}" [ 0; 2 ] cover
  | None -> Alcotest.fail "Fig 6 instance is solvable");
  let red = Reductions.theorem2 inst in
  check "gadget is V2-chordal V2-conformal" true
    (Reductions.theorem2_gadget_ok red);
  check "Steiner within 4q+1 budget" true
    (Reductions.steiner_within_budget red)

(* -------------------------------------------------------------- Fig 8 *)

let test_fig8 () =
  let g = Figures.fig8.Figures.graph in
  let u = Bigraph.ugraph g in
  let p = Figures.fig8_p in
  let v1 = Bigraph.left_nodes g in
  check "nonredundant witness" true
    (Cover.is_nonredundant_cover u ~p Figures.fig8_nonredundant);
  (match Cover.minimum_cover_size_brute u ~within:(Ugraph.nodes u) ~p with
  | Some min_size ->
    check "nonredundant witness is not minimum" true
      (Iset.cardinal Figures.fig8_nonredundant > min_size);
    Alcotest.(check int)
      "minimum witness attains the minimum" min_size
      (Iset.cardinal Figures.fig8_minimum)
  | None -> Alcotest.fail "P should be connectable");
  check "minimum witness is a cover" true
    (Cover.is_cover u ~p Figures.fig8_minimum);
  check "V1-nonredundant witness" true
    (Cover.is_side_nonredundant_cover u ~p ~side:v1
       Figures.fig8_v1_nonredundant);
  (match Cover.side_minimum_brute u ~within:(Ugraph.nodes u) ~p ~side:v1 with
  | Some v1_min ->
    check "V1-nonredundant witness is not V1-minimum" true
      (Iset.cardinal (Iset.inter Figures.fig8_v1_nonredundant v1) > v1_min);
    Alcotest.(check int)
      "V1-minimum witness attains the V1 minimum" v1_min
      (Iset.cardinal (Iset.inter Figures.fig8_v1_minimum v1))
  | None -> Alcotest.fail "P should be connectable")

(* -------------------------------------------------------------- Fig 9 *)

let test_fig9 () =
  let input = Figures.fig9_chordal_input in
  check "input is chordal" true (Chordal.is_chordal input);
  let reduced = Reductions.fig9 input in
  check "reduction is V2-chordal" true
    (Reductions.fig9_is_v2_chordal input);
  check "reduction is not V2-conformal (triangles break it)" false
    (Side_properties.conformal reduced Bigraph.V2);
  let terminals = Iset.of_list [ 0; 4 ] in
  check "CSPC equals pseudo-Steiner V2 on the reduction" true
    (Reductions.fig9_equivalence_holds input ~terminals);
  check "reduced graph has one right node per arc" true
    (Bigraph.nr reduced = Ugraph.m input)

(* ------------------------------------------------------------- Fig 10 *)

let test_fig10 () =
  let g = Figures.fig10.Figures.graph in
  let u = Bigraph.ugraph g in
  check "(6,1)-chordal" true (Mn_chordality.is_61_chordal g);
  check "not (6,2)-chordal" false (Mn_chordality.is_62_chordal g);
  match Cover.nonredundant_nonminimum_pair u with
  | Some (_, _, path) ->
    check "witness path is nonredundant" true
      (Cover.is_nonredundant_path u path)
  | None ->
    Alcotest.fail "expected a nonredundant non-minimum path (Lemma 4)"

(* ------------------------------------------------------------- Fig 11 *)

let test_fig11_structure () =
  let g = Figures.fig11.Figures.graph in
  check "(6,1)-chordal" true (Mn_chordality.is_61_chordal g);
  check "not (6,2)-chordal" false (Mn_chordality.is_62_chordal g)

let ordering_starting_with l name rest_names =
  let idx n =
    match Figures.index_of_name l n with
    | Some v -> v
    | None -> invalid_arg "bad name"
  in
  idx name :: List.map idx rest_names

let test_fig11_cases () =
  let l = Figures.fig11 in
  let g = Bigraph.ugraph l.Figures.graph in
  List.iter
    (fun (first, others) ->
      match Figures.fig11_bad_terminals ~first with
      | None -> Alcotest.fail "case lookup failed"
      | Some p ->
        let order = ordering_starting_with l first others in
        check
          (Printf.sprintf "ordering starting with %s is not good" first)
          false
          (Good_ordering.is_good_for g ~order ~p))
    [
      ("A", []);
      ("B", []);
      ("1", []);
      ("2", []);
    ]

let test_fig11_random_orderings () =
  (* Theorem 6: whatever the ordering, one of the four case terminal
     sets defeats it. *)
  let l = Figures.fig11 in
  let g = Bigraph.ugraph l.Figures.graph in
  let rng = Workloads.Rng.make ~seed:11 in
  let specials = [ "A"; "B"; "1"; "2" ] in
  for _ = 1 to 25 do
    let order =
      Workloads.Rng.shuffle rng (Iset.elements (Ugraph.nodes g))
    in
    let first_special =
      List.find
        (fun v ->
          List.mem (Figures.name_of_index l v)
            specials)
        order
    in
    let name = Figures.name_of_index l first_special in
    match Figures.fig11_bad_terminals ~first:name with
    | None -> Alcotest.fail "special node lookup failed"
    | Some p ->
      check
        (Printf.sprintf "random ordering (first special %s) is not good" name)
        false
        (Good_ordering.is_good_for g ~order ~p)
  done

let () =
  Alcotest.run "paper-figures"
    [
      ( "fig1",
        [
          Alcotest.test_case "two interpretations" `Quick
            test_fig1_interpretations;
          Alcotest.test_case "graph shape" `Quick test_fig1_graph_shape;
        ] );
      ( "fig2",
        [ Alcotest.test_case "alpha duality failure" `Quick test_fig2_duality_failure ] );
      ( "fig3-4",
        [
          Alcotest.test_case "fig3a Berge" `Quick test_fig3a;
          Alcotest.test_case "fig3b gamma" `Quick test_fig3b;
          Alcotest.test_case "fig3c beta" `Quick test_fig3c;
          Alcotest.test_case "fig3c pseudo vs Steiner" `Quick
            test_fig3c_pseudo_vs_steiner;
        ] );
      ("fig5", [ Alcotest.test_case "corollary 2 strictness" `Quick test_fig5 ]);
      ("fig6", [ Alcotest.test_case "X3C gadget" `Quick test_fig6 ]);
      ("fig8", [ Alcotest.test_case "cover taxonomy" `Quick test_fig8 ]);
      ("fig9", [ Alcotest.test_case "CSPC reduction" `Quick test_fig9 ]);
      ("fig10", [ Alcotest.test_case "lemma 4 witness" `Quick test_fig10 ]);
      ( "fig11",
        [
          Alcotest.test_case "structure" `Quick test_fig11_structure;
          Alcotest.test_case "four proof cases" `Quick test_fig11_cases;
          Alcotest.test_case "random orderings" `Quick
            test_fig11_random_orderings;
        ] );
    ]
