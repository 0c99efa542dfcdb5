(* Compile-once / query-many equivalence: a [Minconn.Session] over a
   compiled schema must answer every terminal-set query — success,
   typed error, budget-exhausted, or degraded — exactly as the
   one-shot [Minconn.solve] does, while reusing its scratch buffers
   across the batch. Also covers the lazily-memoized compiled handles
   on [Datamodel.Schema] / [Datamodel.Layered]. *)

open Graphs
open Bipartite
open Steiner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let sol_equal (a : Minconn.solution) (b : Minconn.solution) =
  Iset.equal a.Minconn.tree.Tree.nodes b.Minconn.tree.Tree.nodes
  && a.Minconn.tree.Tree.edges = b.Minconn.tree.Tree.edges
  && a.Minconn.method_used = b.Minconn.method_used
  && a.Minconn.optimal = b.Minconn.optimal
  && a.Minconn.profile = b.Minconn.profile
  && a.Minconn.provenance = b.Minconn.provenance

(* Equal results, and successful trees must actually be valid covers —
   two implementations agreeing on a broken tree should still fail. *)
let result_equal u ~p a b =
  match (a, b) with
  | Ok sa, Ok sb ->
    sol_equal sa sb && Tree.verify u ~terminals:p sa.Minconn.tree
  | Error ea, Error eb -> ea = eb
  | Ok _, Error _ | Error _, Ok _ -> false

(* A batch of terminal sets with deliberately unfiltered pathologies:
   singletons, disconnected picks, and the occasional empty set all
   must round-trip through the session identically to one-shot. *)
let query_batch rng g =
  List.init 6 (fun _ ->
      if Workloads.Rng.bool rng 0.1 then Iset.empty
      else
        Workloads.Gen_bipartite.random_terminals rng g
          ~k:(1 + Workloads.Rng.int rng 4))

let batch_matches_oneshot g queries =
  let u = Bigraph.ugraph g in
  let session = Minconn.Session.create (Minconn.Compiled.compile g) in
  let batch = Minconn.Session.solve_many session queries in
  List.for_all2
    (fun p r -> result_equal u ~p (Minconn.solve g ~p) r)
    queries batch

let prop_session_equal_gnp =
  QCheck2.Test.make ~count:150
    ~name:"Session.solve_many = per-call Minconn.solve (bipartite G(n,p))"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let nl = 2 + Workloads.Rng.int rng 9
      and nr = 2 + Workloads.Rng.int rng 9 in
      let g = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.3 in
      batch_matches_oneshot g (query_batch rng g))

let prop_session_equal_chordal62 =
  QCheck2.Test.make ~count:150
    ~name:"Session.solve_many = per-call Minconn.solve ((6,2)-chordal)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let n_right = 2 + Workloads.Rng.int rng 6 in
      let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:4 in
      batch_matches_oneshot g (query_batch rng g))

(* Fuel-metered paths: the session must exhaust, abandon rungs, and
   degrade on exactly the same query the one-shot solver does, because
   compilation is never metered and fuel starts fresh per query. Only
   fuel budgets are used here — deadlines are wall-clock and would make
   the comparison racy. *)
let prop_session_equal_under_fuel =
  QCheck2.Test.make ~count:150
    ~name:"Session = one-shot under fuel budgets (degrade on and off)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let nl = 2 + Workloads.Rng.int rng 9
      and nr = 2 + Workloads.Rng.int rng 9 in
      let g = Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p:0.3 in
      let u = Bigraph.ugraph g in
      let p =
        Workloads.Gen_bipartite.random_terminals rng g
          ~k:(1 + Workloads.Rng.int rng 4)
      in
      let fuel = 1 + Workloads.Rng.int rng 40 in
      let session = Minconn.Session.create (Minconn.Compiled.compile g) in
      List.for_all
        (fun degrade ->
          let one =
            Minconn.solve ~budget:(Minconn.Budget.make ~fuel ()) ~degrade g ~p
          in
          let ses =
            Minconn.Session.query
              ~budget:(Minconn.Budget.make ~fuel ())
              ~degrade session ~p
          in
          result_equal u ~p one ses)
        [ true; false ])

let prop_relations_equal =
  QCheck2.Test.make ~count:150
    ~name:"Session.query_relations = Minconn.solve_min_relations" seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let n_right = 2 + Workloads.Rng.int rng 6 in
      let g = Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size:4 in
      let p =
        Workloads.Gen_bipartite.random_terminals rng g
          ~k:(1 + Workloads.Rng.int rng 4)
      in
      let session = Minconn.Session.create (Minconn.Compiled.compile g) in
      match
        ( Minconn.solve_min_relations g ~p,
          Minconn.Session.query_relations session ~p )
      with
      | Ok a, Ok b ->
        Iset.equal a.Algorithm1.tree.Tree.nodes b.Algorithm1.tree.Tree.nodes
        && a.Algorithm1.tree.Tree.edges = b.Algorithm1.tree.Tree.edges
        && a.Algorithm1.v2_count = b.Algorithm1.v2_count
        && a.Algorithm1.elimination_order = b.Algorithm1.elimination_order
      | Error ea, Error eb -> ea = eb
      | Ok _, Error _ | Error _, Ok _ -> false)

(* ------------------------------------------- deterministic ladder *)

(* fig2 with fuel 2 is the canonical degradation scenario: both paths
   must abandon the exact DP for the same reason and return the same
   MST-approximate answer (degrade on), or the same typed exhaustion
   (degrade off). *)
let test_degraded_equivalence () =
  let g = Minconn.Figures.fig2.Minconn.Figures.graph in
  let u = Bigraph.ugraph g in
  let p = Iset.of_list [ 0; 2 ] in
  let session = Minconn.Session.create (Minconn.Compiled.compile g) in
  let one =
    Minconn.solve ~budget:(Minconn.Budget.make ~fuel:2 ()) g ~p
  in
  let ses =
    Minconn.Session.query ~budget:(Minconn.Budget.make ~fuel:2 ()) session ~p
  in
  check "degraded answers equal" true (result_equal u ~p one ses);
  (match ses with
  | Ok s ->
    check "session answer is degraded" true
      (Minconn.Degrade.degraded s.Minconn.provenance)
  | Error _ -> Alcotest.fail "fuel 2 with degradation should still answer");
  let one_nd =
    Minconn.solve
      ~budget:(Minconn.Budget.make ~fuel:2 ())
      ~degrade:false g ~p
  in
  let ses_nd =
    Minconn.Session.query
      ~budget:(Minconn.Budget.make ~fuel:2 ())
      ~degrade:false session ~p
  in
  check "exhaustion equal under --no-degrade" true
    (result_equal u ~p one_nd ses_nd);
  check "no-degrade surfaces the exhaustion" true
    (match ses_nd with Error (Minconn.Errors.Budget_exhausted _) -> true | _ -> false)

(* Errors stay in batch position: a bad query must not derail its
   neighbours or leak scratch state into them. *)
let test_solve_many_positions () =
  let g = Minconn.Figures.fig3b.Minconn.Figures.graph in
  let ok_p = Iset.of_list [ 0; 1 ] in
  let batch =
    [ ok_p; Iset.empty; Iset.singleton 999; ok_p ]
  in
  let session = Minconn.Session.create (Minconn.Compiled.compile g) in
  match Minconn.Session.solve_many session batch with
  | [ Ok a; Error (Minconn.Errors.Invalid_instance _);
      Error (Minconn.Errors.Invalid_instance _); Ok b ] ->
    check "same query, same answer around failures" true (sol_equal a b)
  | _ -> Alcotest.fail "batch results out of position"

(* The ladder is chosen by the terminals' component, not by the whole
   schema: a path component next to a chordless 8-cycle is still a
   forest, so a query inside the path is answered exactly by the forest
   rung even with more terminals than the exact DP admits. *)
let test_dispatch_on_component_class () =
  let path =
    List.init 20 (fun i -> (i, i)) @ List.init 19 (fun i -> (i + 1, i))
  in
  let cycle =
    List.init 4 (fun k -> (20 + k, 20 + k))
    @ List.init 4 (fun k -> (20 + ((k + 1) mod 4), 20 + k))
  in
  let g = Bigraph.of_edges ~nl:24 ~nr:24 (path @ cycle) in
  let plan = Minconn.Compiled.compile g in
  check "schema is not (6,2)-chordal" false
    (Minconn.Compiled.profile plan).Classify.chordal_62;
  let session = Minconn.Session.create plan in
  let p = Iset.of_list (List.init 19 Fun.id) in
  check "more terminals than the DP cap" true
    (Iset.cardinal p > Dreyfus_wagner.max_terminals);
  (match Minconn.Session.query session ~p with
  | Ok s ->
    check "optimal" true s.Minconn.optimal;
    check "forest rung" true (s.Minconn.method_used = Minconn.Used_forest);
    check "ran the structured rung" true
      (s.Minconn.provenance.Minconn.Degrade.ran
      = Minconn.Errors.Exact_structured);
    check "profile is the component's" true
      s.Minconn.profile.Classify.chordal_41;
    (* L0 .. L18 along the path: 19 lefts and the 18 rights between. *)
    check_int "the path itself" 37 (Tree.node_count s.Minconn.tree);
    check "valid tree" true
      (Tree.verify (Bigraph.ugraph g) ~terminals:p s.Minconn.tree)
  | Error _ -> Alcotest.fail "path query must answer");
  match Minconn.Session.query session ~p:(Iset.of_list [ 20; 22 ]) with
  | Ok s ->
    check "cycle component takes the DP" true
      (s.Minconn.method_used = Minconn.Used_exact_dp && s.Minconn.optimal);
    check "cycle profile is not (4,1)" false
      s.Minconn.profile.Classify.chordal_41
  | Error _ -> Alcotest.fail "cycle query must answer"

(* --------------------------------------------------- memoization *)

let test_schema_memoized () =
  let s =
    Datamodel.Schema.make
      [ ("R1", [ "a"; "b" ]); ("R2", [ "b"; "c" ]); ("R3", [ "c"; "d" ]) ]
  in
  check "compiled handle is cached" true
    (Datamodel.Schema.compiled s == Datamodel.Schema.compiled s);
  check "bigraph served from the handle" true
    (Datamodel.Schema.to_bigraph s == Datamodel.Schema.to_bigraph s);
  check "memoized profile = direct classification" true
    (Datamodel.Schema.profile s
    = Classify.profile (Datamodel.Schema.to_bigraph s))

let test_layered_memoized () =
  let l =
    Datamodel.Layered.make
      ~levels:[ [ "a"; "b"; "c" ]; [ "X"; "Y" ]; [ "T" ] ]
      ~definitions:
        [ ("X", [ "a"; "b" ]); ("Y", [ "b"; "c" ]); ("T", [ "X"; "Y" ]) ]
  in
  check "compiled handle is cached" true
    (Datamodel.Layered.compiled l == Datamodel.Layered.compiled l);
  check "memoized profile = direct classification" true
    (Datamodel.Layered.profile l
    = Classify.profile (Datamodel.Layered.to_bigraph l))

(* engine.compiles / engine.queries counters: one compile serves the
   whole batch. *)
let test_engine_counters () =
  let metrics = Observe.Metrics.make () in
  let g = Minconn.Figures.fig3b.Minconn.Figures.graph in
  let compiled = Minconn.Compiled.compile ~metrics g in
  let session = Minconn.Session.create ~metrics compiled in
  let p = Iset.of_list [ 0; 1 ] in
  ignore (Minconn.Session.solve_many session [ p; p; p ]);
  let count name = List.assoc name (Observe.Metrics.counters metrics) in
  check_int "one compile for the batch" 1 (count "engine.compiles");
  check_int "three queries recorded" 3 (count "engine.queries")

let qcheck_cases =
  [
    prop_session_equal_gnp;
    prop_session_equal_chordal62;
    prop_session_equal_under_fuel;
    prop_relations_equal;
  ]

let () =
  Alcotest.run "engine"
    [
      ("equivalence", List.map QCheck_alcotest.to_alcotest qcheck_cases);
      ( "ladder",
        [
          Alcotest.test_case "degraded paths equal" `Quick
            test_degraded_equivalence;
          Alcotest.test_case "batch error positions" `Quick
            test_solve_many_positions;
          Alcotest.test_case "dispatch on the component's class" `Quick
            test_dispatch_on_component_class;
        ] );
      ( "memoization",
        [
          Alcotest.test_case "schema compiled once" `Quick test_schema_memoized;
          Alcotest.test_case "layered compiled once" `Quick
            test_layered_memoized;
          Alcotest.test_case "engine counters" `Quick test_engine_counters;
        ] );
    ]
