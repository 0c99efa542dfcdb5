(** (m, n)-chordality of bipartite graphs (Definition 4): the fast
    recognisers Theorem 1 delivers for the three classes the paper
    singles out.

    - (4,1)-chordal ⇔ H¹ Berge-acyclic ⇔ the graph is a forest;
    - (6,2)-chordal ⇔ H¹ γ-acyclic;
    - (6,1)-chordal ⇔ H¹ β-acyclic ("chordal bipartite" graphs).

    The definitional brute-force checker (cycle enumeration with chord
    counting) and the independent bisimplicial-elimination recogniser
    (Golumbic–Goss) are test oracles and live with the test suite. *)

val is_41_chordal : Bigraph.t -> bool
(** [m = n - #components], read off the CSR. *)

val is_62_chordal : Bigraph.t -> bool

val is_61_chordal : Bigraph.t -> bool
