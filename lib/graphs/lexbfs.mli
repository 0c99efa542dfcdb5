(** Lexicographic breadth-first search and maximum cardinality search.

    These are the two classical linear-time vertex orderings whose
    reversal is a perfect elimination ordering exactly on chordal
    graphs (Rose–Tarjan–Lueker; Tarjan–Yannakakis). Both are O(n^2)
    label kernels over a flat {!Csr} adjacency with ties broken by the
    smallest node id; the test suite pins them order-for-order against
    a set-based reference. *)

val lexbfs_order : ?within:Iset.t -> ?start:int -> Ugraph.t -> int list
(** Visit order (first visited first). Components are exhausted one at a
    time; [start] selects the first node. *)

val lexbfs_partition_order : ?within:Iset.t -> ?start:int -> Ugraph.t -> int list
(** Independent second implementation by partition refinement (the
    linear-time scheme): maintain an ordered partition of the unvisited
    nodes; visit the head of the first class and split every class into
    neighbors-then-others. Tie-breaking differs from {!lexbfs_order},
    so the orders need not coincide, but both are valid LexBFS orders —
    the chordality test accepts either (property-tested). *)

val mcs_order : ?within:Iset.t -> ?start:int -> Ugraph.t -> int list
(** Maximum cardinality search visit order. *)
