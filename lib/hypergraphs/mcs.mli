(** Maximum cardinality search on hyperedges (Tarjan–Yannakakis).

    Greedily orders the edges, always picking next an edge containing
    the most already-marked nodes. For a connected α-acyclic hypergraph
    the resulting ordering satisfies the running intersection property
    (Tarjan & Yannakakis 1984, Theorem 5) — this is the ordering that
    powers the paper's Algorithm 1 — and conversely any ordering with
    the running intersection property witnesses α-acyclicity, so
    {!alpha_acyclic} is a complete test, independent of {!Gyo}. *)

val edge_order : ?start:int -> Hypergraph.t -> int list
(** Edge indices in selection order. Each connected component is
    exhausted before the next begins. Runs on dense
    [Graphs.Bitset] node sets ([inter_card] per candidate edge). *)

val alpha_acyclic : ?start:int -> Hypergraph.t -> bool
(** [Join_tree.rip_holds h (edge_order h)]. *)

val rip_ordering : Hypergraph.t -> int list option
(** A running-intersection ordering of all edge indices, when one
    exists. *)
