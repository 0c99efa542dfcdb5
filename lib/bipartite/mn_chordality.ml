open Graphs
open Hypergraphs

(* A graph is a forest iff m = n - #components; both counts come off
   the CSR, so the compile path's forest check never builds sets. *)
let is_41_chordal g =
  let c = Bigraph.csr g in
  Csr.m c = Csr.n c - List.length (snd (Csr.component_ids c))

let h1_dropping_isolated g = fst (Correspond.h1 g)

let is_62_chordal g = Gamma.acyclic (h1_dropping_isolated g)

let is_61_chordal g = Beta.acyclic (h1_dropping_isolated g)
