(* Differential suite for the classifier: [Classify.profile] derives
   most of its fields from Theorem 1 and Corollaries 1–2, and must
   agree field for field with the thirteen-check reference in
   Classify_oracle on every generator family (and on the flipped
   graph, which swaps the roles of H¹ and H²), every paper figure,
   every checked-in fixture and a small instance of each scale
   family. *)

open Bipartite

let agrees g = Classify.profile g = Oracle.Classify_oracle.profile g

let agrees_both_ways g = agrees g && agrees (Bigraph.flip g)

let with_rng gen =
  QCheck2.Gen.(
    pair (int_range 0 1_000_000) gen
    |> map (fun (seed, args) -> (Workloads.Rng.make ~seed, args)))

(* p from 0.1 to 0.5 with sides as small as one node, so isolated
   nodes (empty witness hyperedges) occur on both sides. *)
let gnp_gen =
  with_rng
    QCheck2.Gen.(
      triple (int_range 1 8) (int_range 1 8)
        (map (fun k -> 0.1 +. (0.05 *. float_of_int k)) (int_range 0 8)))

let prop ~count name gen build =
  QCheck2.Test.make ~count ~name gen (fun (rng, args) ->
      agrees_both_ways (build rng args))

let generator_props =
  let open QCheck2.Gen in
  let sized = with_rng (pair (int_range 1 8) (int_range 1 4)) in
  [
    prop ~count:1500 "profile = oracle on gnp" gnp_gen
      (fun rng (nl, nr, p) -> Workloads.Gen_bipartite.gnp rng ~nl ~nr ~p);
    prop ~count:300 "profile = oracle on forests"
      (with_rng (int_range 1 30))
      (fun rng n -> Workloads.Gen_bipartite.forest rng ~n);
    prop ~count:400 "profile = oracle on (6,2) schemas" sized
      (fun rng (n_right, max_size) ->
        Workloads.Gen_bipartite.chordal_62 rng ~n_right ~max_size);
    prop ~count:400 "profile = oracle on alpha schemas" sized
      (fun rng (n_right, max_size) ->
        Workloads.Gen_bipartite.alpha_bipartite rng ~n_right ~max_size);
    prop ~count:20 "profile = oracle on (6,1) flowers"
      (with_rng (int_range 2 7))
      (fun rng petals -> Workloads.Gen_bipartite.chordal_61_flower rng ~petals);
  ]

let test_figures () =
  List.iter
    (fun (name, l) ->
      Alcotest.(check bool) name true
        (agrees_both_ways l.Datamodel.Figures.graph))
    Datamodel.Figures.all_labeled

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_fixtures () =
  (* runtest runs in the test build dir; `dune exec` from the root. *)
  let dir =
    if Sys.file_exists "fixtures" then "fixtures" else "test/fixtures"
  in
  let fixtures =
    List.filter
      (fun n -> Filename.check_suffix n ".bigraph")
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check bool) "at least one .bigraph fixture" true (fixtures <> []);
  List.iter
    (fun name ->
      match
        Mc_io.Parse.bigraph_of_string (read_file (Filename.concat dir name))
      with
      | Error _ -> Alcotest.failf "%s: fixture does not parse" name
      | Ok nb ->
        Alcotest.(check bool) name true (agrees_both_ways nb.Mc_io.Parse.graph))
    fixtures

let test_scale_families () =
  List.iter
    (fun fam ->
      let inst = Workloads.Gen_scale.make fam ~target_n:200 ~seed:3 in
      Alcotest.(check bool)
        (Workloads.Gen_scale.family_name fam)
        true
        (agrees_both_ways (Workloads.Gen_scale.to_bigraph inst)))
    Workloads.Gen_scale.[ Forest; Chordal62; Alpha ]

let () =
  Alcotest.run "classify"
    [
      ("generators", List.map QCheck_alcotest.to_alcotest generator_props);
      ( "instances",
        [
          Alcotest.test_case "paper figures" `Quick test_figures;
          Alcotest.test_case "fixtures" `Quick test_fixtures;
          Alcotest.test_case "scale families" `Quick test_scale_families;
        ] );
    ]
