(** Steiner trees on forests — the (4,1)-chordal / Berge-acyclic row of
    the paper's complexity table, where the minimal connection is
    {e unique}: the union of the tree paths between terminals. Linear
    time, no search. *)

open Graphs

val solve : Ugraph.t -> terminals:Iset.t -> Tree.t option
(** [None] when the graph restricted to the terminals' component is not
    a tree (callers guard with {!Graphs.Cycles.is_acyclic}) or the
    terminals are disconnected. *)

val solve_local : Csr.t -> terminals:int array -> Tree.t option
(** {!solve} on a connected flat adjacency holding the terminals — the
    query path's local component graph ({!Graphs.Csr.induced}) — with
    local [terminals]: an edge count for acyclicity and a leaf worklist
    over a degree array. [None] when the graph is not a tree. Same tree
    as {!solve}. *)
