(* Differential coverage for the flat CSR/bitset kernel layer: every
   port must agree exactly with the original set-based implementation
   it replaced (kept in the test oracle library as
   [Oracle.Set_kernels]), on random workload instances. Bitset itself
   is tested against Iset as the model. *)

open Graphs
open Steiner

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let graph_of_seed ?(max_n = 12) seed =
  let rng = Workloads.Rng.make ~seed in
  let n = 1 + Workloads.Rng.int rng max_n in
  Workloads.Gen_graph.gnp rng ~n ~p:0.35

(* ------------------------------------------------------------ Bitset *)

(* Random add/remove trajectory, replayed against Iset: after every
   operation the two must describe the same set. *)
let prop_bitset_model =
  QCheck2.Test.make ~count:500 ~name:"Bitset add/remove mirrors Iset"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let len = 1 + Workloads.Rng.int rng 200 in
      let bs = Bitset.create len in
      let model = ref Iset.empty in
      let steps = Workloads.Rng.int rng 60 in
      let ok = ref true in
      for _ = 1 to steps do
        let i = Workloads.Rng.int rng len in
        if Workloads.Rng.bool rng 0.6 then begin
          Bitset.add bs i;
          model := Iset.add i !model
        end
        else begin
          Bitset.remove bs i;
          model := Iset.remove i !model
        end;
        ok :=
          !ok
          && Bitset.card bs = Iset.cardinal !model
          && Bitset.mem bs i = Iset.mem i !model
      done;
      !ok
      && Iset.equal (Bitset.to_iset bs) !model
      && Bitset.elements bs = Iset.elements !model
      && Bitset.fold (fun i acc -> acc + i) bs 0
         = Iset.fold (fun i acc -> acc + i) !model 0
      && Bitset.min_elt_opt bs = Iset.min_elt_opt !model
      && Bitset.is_empty bs = Iset.is_empty !model)

let random_subset rng len =
  let s = ref Iset.empty in
  for i = 0 to len - 1 do
    if Workloads.Rng.bool rng 0.4 then s := Iset.add i !s
  done;
  !s

let prop_bitset_binops =
  QCheck2.Test.make ~count:500
    ~name:"Bitset inter/union/diff/inter_card/subset mirror Iset" seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let len = 1 + Workloads.Rng.int rng 150 in
      let a = random_subset rng len and b = random_subset rng len in
      let ba = Bitset.of_iset ~len a and bb = Bitset.of_iset ~len b in
      let agree op bop =
        Iset.equal (op a b) (Bitset.to_iset (bop ba bb))
      in
      let into_agree op bop_into =
        let scratch = Bitset.copy ba in
        bop_into scratch bb;
        Iset.equal (op a b) (Bitset.to_iset scratch)
      in
      agree Iset.inter Bitset.inter
      && agree Iset.union Bitset.union
      && agree Iset.diff Bitset.diff
      && into_agree Iset.inter Bitset.inter_into
      && into_agree Iset.union Bitset.union_into
      && into_agree Iset.diff Bitset.diff_into
      && Bitset.inter_card ba bb = Iset.cardinal (Iset.inter a b)
      && Bitset.subset ba bb = Iset.subset a b
      && Bitset.disjoint ba bb = Iset.is_empty (Iset.inter a b)
      && Bitset.equal ba bb = Iset.equal a b)

(* --------------------------------------------------------------- Csr *)

let prop_csr_construction =
  QCheck2.Test.make ~count:500
    ~name:"Csr: rows sorted, degree sum = 2m, mem_edge symmetric" seed_gen
    (fun seed ->
      let g = graph_of_seed ~max_n:20 seed in
      let csr = Csr.of_ugraph g in
      let n = Ugraph.n g in
      let sorted_rows = ref true and degree_sum = ref 0 in
      for u = 0 to n - 1 do
        let row = Csr.sorted_neighbors csr u in
        degree_sum := !degree_sum + Array.length row;
        for k = 1 to Array.length row - 1 do
          if row.(k - 1) >= row.(k) then sorted_rows := false
        done;
        if Array.length row <> Csr.degree csr u then sorted_rows := false
      done;
      let mem_agrees = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if
            Csr.mem_edge csr u v <> Csr.mem_edge csr v u
            || (u <> v && Csr.mem_edge csr u v <> Ugraph.mem_edge g u v)
          then mem_agrees := false
        done
      done;
      !sorted_rows
      && !degree_sum = 2 * Ugraph.m g
      && Csr.n csr = n
      && Csr.m csr = Ugraph.m g
      && !mem_agrees
      && Ugraph.equal (Csr.to_ugraph csr) g)

(* ---------------------------------------------------- LexBFS and MCS *)

(* The kernels use the same greedy rule and tie-breaking as the
   set-based originals, so the orders must be identical — also under a
   [within] restriction and an explicit start node. *)
let restriction_of_seed g seed =
  let rng = Workloads.Rng.make ~seed:(seed + 7) in
  let within =
    if Workloads.Rng.bool rng 0.5 then None
    else Some (random_subset rng (Ugraph.n g))
  in
  let start =
    if Workloads.Rng.bool rng 0.5 then None
    else Some (Workloads.Rng.int rng (Ugraph.n g))
  in
  (within, start)

let prop_lexbfs_equal =
  QCheck2.Test.make ~count:500 ~name:"CSR LexBFS = set-based LexBFS"
    seed_gen
    (fun seed ->
      let g = graph_of_seed ~max_n:20 seed in
      let within, start = restriction_of_seed g seed in
      Lexbfs.lexbfs_order ?within ?start g
      = Oracle.Set_kernels.lexbfs_order_sets ?within ?start g)

let prop_mcs_equal =
  QCheck2.Test.make ~count:500 ~name:"CSR MCS = set-based MCS" seed_gen
    (fun seed ->
      let g = graph_of_seed ~max_n:20 seed in
      let within, start = restriction_of_seed g seed in
      Lexbfs.mcs_order ?within ?start g
      = Oracle.Set_kernels.mcs_order_sets ?within ?start g)

(* --------------------------------------------------------- Chordality *)

let prop_chordal_equal =
  QCheck2.Test.make ~count:500
    ~name:"kernel is_chordal = set-based = brute force" seed_gen
    (fun seed ->
      let g = graph_of_seed ~max_n:10 seed in
      let kernel = Chordal.is_chordal g in
      kernel = Oracle.Set_kernels.is_chordal_sets g
      && kernel = Chordal.is_chordal_brute g)

let prop_peo_check_equal =
  QCheck2.Test.make ~count:500
    ~name:"kernel PEO check = set-based on arbitrary orders" seed_gen
    (fun seed ->
      let g = graph_of_seed ~max_n:12 seed in
      let rng = Workloads.Rng.make ~seed:(seed + 13) in
      (* Random permutations are usually not PEOs, so this exercises
         both the accepting and the rejecting paths of the checker. *)
      let order =
        Workloads.Rng.shuffle rng (Iset.elements (Ugraph.nodes g))
      in
      Chordal.is_perfect_elimination_order g order
      = Oracle.Set_kernels.is_perfect_elimination_order_sets g order)

(* ------------------------------------------------- Cycle/chord scan *)

let prop_chord_scan_equal =
  QCheck2.Test.make ~count:500
    ~name:"kernel chord-bounded cycle scan = set-based" seed_gen
    (fun seed ->
      let g = graph_of_seed ~max_n:9 seed in
      let rng = Workloads.Rng.make ~seed:(seed + 29) in
      let min_len = 4 + (2 * Workloads.Rng.int rng 2) in
      let max_chords = Workloads.Rng.int rng 3 in
      Cycles.exists_cycle_with_few_chords g ~min_len ~max_chords
      = Oracle.Set_kernels.exists_cycle_with_few_chords_sets g ~min_len
          ~max_chords)

(* --------------------------------------------------- Hyperedge MCS *)

let prop_edge_mcs_equal =
  QCheck2.Test.make ~count:500
    ~name:"bitset hyperedge MCS = set-based (order and RIP verdict)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let h =
        Workloads.Gen_hyper.random rng
          ~n_nodes:(2 + Workloads.Rng.int rng 8)
          ~n_edges:(1 + Workloads.Rng.int rng 8)
          ~max_size:5
      in
      let start =
        if Workloads.Rng.bool rng 0.5 then None
        else Some (Workloads.Rng.int rng (Hypergraphs.Hypergraph.n_edges h))
      in
      Hypergraphs.Mcs.edge_order ?start h
      = Oracle.Set_kernels.edge_order_sets ?start h)

(* --------------------------------------------------------- Algorithm 1 *)

let prop_algorithm1_equal =
  QCheck2.Test.make ~count:500
    ~name:"Algorithm 1 kernel elimination = set-based (full result)"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      (* Alternate between in-class instances (success path) and
         arbitrary bipartite graphs (error paths). *)
      let g =
        if seed mod 2 = 0 then
          Workloads.Gen_bipartite.alpha_bipartite rng
            ~n_right:(2 + Workloads.Rng.int rng 5)
            ~max_size:4
        else
          Workloads.Gen_bipartite.gnp rng
            ~nl:(2 + Workloads.Rng.int rng 5)
            ~nr:(1 + Workloads.Rng.int rng 5)
            ~p:0.4
      in
      let p =
        Workloads.Gen_bipartite.random_terminals rng g
          ~k:(2 + Workloads.Rng.int rng 3)
      in
      match (Algorithm1.solve g ~p, Oracle.Set_kernels.solve_sets g ~p) with
      | Error e, Error e' -> e = e'
      | Ok r, Ok r' ->
        Iset.equal r.Algorithm1.tree.Tree.nodes r'.Algorithm1.tree.Tree.nodes
        && r.Algorithm1.tree.Tree.edges = r'.Algorithm1.tree.Tree.edges
        && r.Algorithm1.v2_count = r'.Algorithm1.v2_count
        && r.Algorithm1.elimination_order = r'.Algorithm1.elimination_order
      | Ok _, Error _ | Error _, Ok _ -> false)

(* ------------------------------------------------------ query rungs *)

module Rungs = Oracle.Set_rungs

let same_tree a b =
  match (a, b) with
  | None, None -> true
  | Some t, Some t' ->
    Iset.equal t.Tree.nodes t'.Tree.nodes && t.Tree.edges = t'.Tree.edges
  | _ -> false

let random_subset rng set ~p =
  Iset.filter (fun _ -> Workloads.Rng.bool rng p) set

let fuel () = Runtime.Budget.make ~fuel:max_int ()

(* Dreyfus–Wagner on random graphs (often disconnected), with and
   without a [within] restriction; on connected graphs the flat DP
   also spends exactly the reference's budget checks. *)
let prop_dw_equal =
  QCheck2.Test.make ~count:500 ~name:"flat Dreyfus-Wagner = set-based tree"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let connected = seed mod 3 = 0 in
      let g =
        if connected then
          Workloads.Gen_graph.random_connected rng
            ~n:(1 + Workloads.Rng.int rng 10)
            ~extra_edges:(Workloads.Rng.int rng 8)
        else graph_of_seed ~max_n:10 seed
      in
      let all = Ugraph.nodes g in
      let within =
        if connected || Workloads.Rng.bool rng 0.5 then None
        else Some (random_subset rng all ~p:0.8)
      in
      let terminals =
        random_subset rng (Option.value within ~default:all) ~p:0.35
      in
      let b = fuel () and b' = fuel () in
      same_tree
        (Dreyfus_wagner.solve ?within ~budget:b g ~terminals)
        (Rungs.dw_solve ?within ~budget:b' g ~terminals)
      && ((not connected)
         || Runtime.Budget.spent b = Runtime.Budget.spent b'))

(* The elimination scan and its fixpoint, in random orders that may
   repeat nodes or name nodes outside [within], with terminals that
   may stick out of [within]: same survivors, same budget checks. *)
let prop_elimination_equal =
  QCheck2.Test.make ~count:500
    ~name:"flat elimination fixpoint = set-based survivors" seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let g = graph_of_seed ~max_n:11 seed in
      let n = Ugraph.n g in
      let within =
        if Workloads.Rng.bool rng 0.5 then Ugraph.nodes g
        else random_subset rng (Ugraph.nodes g) ~p:0.8
      in
      let p =
        if Workloads.Rng.bool rng 0.8 then random_subset rng within ~p:0.3
        else random_subset rng (Ugraph.nodes g) ~p:0.3
      in
      let order =
        if Workloads.Rng.bool rng 0.3 then None
        else
          Some
            (List.init (Workloads.Rng.int rng (2 * n + 1)) (fun _ ->
                 Workloads.Rng.int rng n))
      in
      List.for_all
        (fun (flat, sets) ->
          let b = fuel () and b' = fuel () in
          Iset.equal
            (flat ?order ?budget:(Some b) ?steps:None g ~within ~p)
            (sets ?order ?budget:(Some b') ?steps:None g ~within ~p)
          && Runtime.Budget.spent b = Runtime.Budget.spent b')
        [
          (Cover.eliminate_redundant, Rungs.eliminate_redundant);
          (Cover.eliminate_redundant_once, Rungs.eliminate_redundant_once);
        ])

(* Algorithm 2 on the terminals' component (or, now and then, on an
   arbitrary node set), as the query path calls it. *)
let prop_algorithm2_equal =
  QCheck2.Test.make ~count:500 ~name:"flat Algorithm 2 = set-based tree"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let g = graph_of_seed ~max_n:11 seed in
      let p = random_subset rng (Ugraph.nodes g) ~p:0.3 in
      let comp =
        match Traverse.component_containing g p with
        | Some c when Workloads.Rng.bool rng 0.8 -> c
        | _ -> random_subset rng (Ugraph.nodes g) ~p:0.7
      in
      let order =
        Algorithm2.complete_order ~comp
          (Some (Workloads.Rng.shuffle rng (Iset.elements comp)))
      in
      same_tree
        (Algorithm2.solve_in g ~comp ~order ~p)
        (Rungs.algorithm2_solve_in g ~comp ~order ~p))

(* The forest prune on random forests (in class) and random graphs
   (mostly out of class: [None] from both). *)
let prop_forest_equal =
  QCheck2.Test.make ~count:500 ~name:"flat forest prune = set-based tree"
    seed_gen
    (fun seed ->
      let rng = Workloads.Rng.make ~seed in
      let g =
        if seed mod 2 = 0 then graph_of_seed ~max_n:10 seed
        else
          let t =
            Workloads.Gen_graph.random_tree rng
              ~n:(1 + Workloads.Rng.int rng 12)
          in
          (* Cut a few edges: a forest, so terminals may be
             disconnected. *)
          List.fold_left
            (fun t (u, v) ->
              if Workloads.Rng.bool rng 0.15 then Ugraph.remove_edge t u v
              else t)
            t (Ugraph.edges t)
      in
      let terminals = random_subset rng (Ugraph.nodes g) ~p:0.3 in
      same_tree
        (Forest_steiner.solve g ~terminals)
        (Rungs.forest_solve g ~terminals))

let qcheck_cases =
  [
    prop_bitset_model;
    prop_bitset_binops;
    prop_csr_construction;
    prop_lexbfs_equal;
    prop_mcs_equal;
    prop_chordal_equal;
    prop_peo_check_equal;
    prop_chord_scan_equal;
    prop_edge_mcs_equal;
    prop_algorithm1_equal;
    prop_dw_equal;
    prop_elimination_equal;
    prop_algorithm2_equal;
    prop_forest_equal;
  ]

let () =
  Alcotest.run "kernels"
    [ ("differential", List.map QCheck_alcotest.to_alcotest qcheck_cases) ]
