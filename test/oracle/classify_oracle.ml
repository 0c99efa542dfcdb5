(* Reference classifier: all thirteen recognizers run independently on
   the witness hypergraphs H¹/H² and their two-sections, with no
   theorem-based shortcuts, and the forest check reads the set view
   ([Cycles.is_acyclic]) rather than the library's CSR edge count.
   [Classify.profile] derives most of these verdicts from Theorem 1 and
   Corollaries 1–2 instead; the differential suite in test_classify.ml
   pins the two together. *)

open Hypergraphs
open Bipartite

let derive_degree ~berge ~gamma ~beta ~alpha =
  if berge then Acyclicity.Berge_acyclic
  else if gamma then Acyclicity.Gamma_acyclic
  else if beta then Acyclicity.Beta_acyclic
  else if alpha then Acyclicity.Alpha_acyclic
  else Acyclicity.Cyclic

let profile g =
  let h1 = Side_properties.hypergraph_of_witness_side g Bigraph.V2 in
  let h2 = Side_properties.hypergraph_of_witness_side g Bigraph.V1 in
  let ts1 = Hypergraph.two_section h1 in
  let ts2 = Hypergraph.two_section h2 in
  let chordal_62 = Gamma.acyclic h1 in
  let chordal_61 = Beta.acyclic h1 in
  let alpha_h1 = Gyo.alpha_acyclic h1 in
  let alpha_h2 = Gyo.alpha_acyclic h2 in
  {
    Classify.chordal_41 = Graphs.Cycles.is_acyclic (Bigraph.ugraph g);
    chordal_62;
    chordal_61;
    v2_chordal = Graphs.Chordal.is_chordal ts1;
    v2_conformal = Conformal.is_conformal h1;
    v1_chordal = Graphs.Chordal.is_chordal ts2;
    v1_conformal = Conformal.is_conformal h2;
    alpha_h1;
    alpha_h2;
    degree_h1 =
      derive_degree ~berge:(Berge.acyclic h1) ~gamma:chordal_62
        ~beta:chordal_61 ~alpha:alpha_h1;
    degree_h2 =
      derive_degree ~berge:(Berge.acyclic h2) ~gamma:(Gamma.acyclic h2)
        ~beta:(Beta.acyclic h2) ~alpha:alpha_h2;
  }
