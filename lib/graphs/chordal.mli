(** Chordal (triangulated) graph recognition.

    A graph is chordal when every cycle of length at least 4 has a
    chord, equivalently when it admits a perfect elimination ordering.
    The recogniser is the classical Rose–Tarjan–Lueker scheme: take a
    LexBFS ordering, reverse it, and verify that the reversal is a
    perfect elimination ordering. The verification runs on a flat
    {!Csr} adjacency. A brute-force chordless-cycle search is provided
    as an independent oracle for the test suite. *)

val is_perfect_elimination_order : ?within:Iset.t -> Ugraph.t -> int list -> bool
(** [is_perfect_elimination_order g order] checks that for each node,
    its neighbors occurring later in [order] form a clique. [order] must
    enumerate exactly the nodes of the induced subgraph. *)

val perfect_elimination_order : ?within:Iset.t -> Ugraph.t -> int list option
(** A perfect elimination ordering if the (induced) graph is chordal,
    [None] otherwise. *)

val is_chordal : ?within:Iset.t -> Ugraph.t -> bool

val is_chordal_brute : ?within:Iset.t -> Ugraph.t -> bool
(** Exhaustive search for a chordless cycle of length >= 4.
    Exponential; test oracle only. *)

val simplicial_nodes : ?within:Iset.t -> Ugraph.t -> Iset.t
(** Nodes whose neighborhood (within the subgraph) is a clique. *)
