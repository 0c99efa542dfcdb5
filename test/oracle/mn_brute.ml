(* Definitional and independent (m, n)-chordality recognisers, kept as
   oracles for [Bipartite.Mn_chordality]'s Theorem 1 recognisers: the
   brute force enumerates cycles and counts chords, and the
   Golumbic–Goss elimination recognises (6,1)-chordal graphs without
   going through hypergraphs. *)

open Graphs
open Bipartite

(* Every cycle of length at least [m] has at least [n] chords.
   Exponential. *)
let is_mn_chordal_brute g ~m ~n =
  not
    (Cycles.exists_cycle_with_few_chords (Bigraph.ugraph g) ~min_len:m
       ~max_chords:(n - 1))

(* Greedily delete bisimplicial edges (edges [(x, y)] with
   [N(x) ∪ N(y)] inducing a complete bipartite subgraph); the graph is
   chordal bipartite iff all edges get deleted. *)
let is_61_chordal_bisimplicial g =
  let bisimplicial gr x y =
    (* Every neighbor of y (left side) must see every neighbor of x
       (right side); the pairs involving x or y themselves hold by
       membership. *)
    Iset.for_all
      (fun a ->
        Iset.for_all (fun b -> Ugraph.mem_edge gr a b) (Ugraph.neighbors gr x))
      (Ugraph.neighbors gr y)
  in
  let rec eliminate gr =
    if Ugraph.m gr = 0 then true
    else
      let candidate =
        List.find_opt (fun (x, y) -> bisimplicial gr x y) (Ugraph.edges gr)
      in
      match candidate with
      | None -> false
      | Some (x, y) -> eliminate (Ugraph.remove_edge gr x y)
  in
  eliminate (Bigraph.ugraph g)
