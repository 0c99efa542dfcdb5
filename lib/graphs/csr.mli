(** Compressed sparse row adjacency.

    Built once — from a {!Ugraph} ([of_ugraph], O(n + m)) or directly
    from an edge stream ([of_edge_iter] / [of_edges] / {!Builder},
    which never materialise per-node sets) — and then read-only:
    neighbor lists live back to back in one flat array, sorted
    ascending, so traversal is sequential memory access and edge
    membership is a binary search. Pairs with {!Bitset} for the
    [within]-restricted traversals the paper's algorithms use. *)

type t

val of_ugraph : Ugraph.t -> t

val of_edge_iter : n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_edge_iter ~n iter] builds the adjacency directly from an edge
    stream in two passes (degree count, then fill) followed by an
    in-place sort-unique per row — no intermediate sets, no edge list.
    [iter f] must call [f u v] once per undirected edge occurrence and
    must replay the {e same} stream on both invocations (checked:
    a stream that changes length between passes raises). Duplicate and
    out-of-order edges are fine (collapsed by the per-row dedup);
    self-loops and out-of-range endpoints raise [Invalid_argument]. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edge_iter] over a concrete list. Same tolerance for duplicates
    and ordering as {!of_edge_iter}. *)

val replace_rows : t -> n:int -> (int * int array) list -> t
(** [replace_rows t ~n rows] is the adjacency on [n] nodes whose row
    [u] is the array paired with [u] in [rows], and [t]'s row [u]
    otherwise (empty for [u >= n t]; rows of [t] at or above [n] are
    dropped). Each given row must be ascending, duplicate-free, in
    range and free of [u], and the result must be symmetric — the
    edits of an edge appear in both endpoints' rows; violations raise
    [Invalid_argument] (checked on the changed and dropped rows only,
    which is enough because [t] is symmetric). Untouched rows move as
    whole runs: O(n + m) array copies plus O(Σ changed degrees ×
    log degree), no per-edge callback and no sort — the cost of a
    small edit to a large graph. *)

val equal : t -> t -> bool
(** Structural equality — and canonical: any two constructions of the
    same graph (whatever edge order or duplication built them) yield
    identical arrays. *)

val component_ids : t -> int array * Iset.t list
(** Flat O(n + m) connected-component labelling: [ids.(v)] indexes
    [v]'s component in the returned list. Components are numbered by
    ascending minimum element, matching [Traverse.component_ids]. *)

val n : t -> int
val m : t -> int

val rows : t -> int array
(** The offsets array itself (length [n t + 1]): node [u]'s neighbors
    are [cols t] at positions [rows.(u)] to [rows.(u + 1) - 1],
    ascending. Not a copy — read it, never write it. The allocation-free
    query kernels in [lib/steiner] index these arrays directly. *)

val cols : t -> int array
(** The neighbor array itself (length [2 * m t]); see {!rows}. *)

val local_index : int array -> int -> int
(** [local_index ids v] is the position of [v] in the ascending array
    [ids] (binary search), or [-1] when absent. *)

val induced : t -> int array -> t
(** [induced t ids] is the subgraph induced by the ascending node
    array [ids], with local node [i] standing for [ids.(i)]. The
    renumbering is monotone, so a solver run on the result takes the
    decisions it would take on [t] restricted to [ids]. O(Σ degree ×
    log |ids|), no sort. Raises [Invalid_argument] unless [ids] is
    strictly ascending and in range. *)

val of_ugraph_within : Ugraph.t -> Iset.t -> t * int array
(** The subgraph of a set-based graph induced by [within], as a flat
    adjacency over local nodes [0 .. card within - 1] plus the
    ascending id array mapping them back — the entry the set-based
    Steiner front doors use to reach the flat kernels. *)

val degree : t -> int -> int

val sorted_neighbors : t -> int -> int array
(** Fresh copy of the neighbor row, ascending. Prefer
    {!iter_neighbors} / {!fold_neighbors} in hot loops. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Ascending order, no allocation. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val mem_edge : t -> int -> int -> bool
(** Binary search in the neighbor row: O(log degree). *)

val adj_within : t -> Bitset.t -> int -> Bitset.t
(** [adj_within t within u]: neighbors of [u] restricted to [within]
    (which must have length [n t]), as a fresh bitset. *)

val degree_within : t -> Bitset.t -> int -> int
(** [card (adj_within t within u)] without allocating. *)

val to_ugraph : t -> Ugraph.t
(** Round-trip back to the set-based representation. Linear: each
    sorted row becomes an adjacency set without per-edge AVL inserts. *)

module Builder : sig
  type csr := t
  type t

  val create : ?hint:int -> int -> t
  (** [create ?hint n]: an empty edge buffer over nodes [0..n-1];
      [hint] pre-sizes the buffer (edge count, not bytes). *)

  val add_edge : t -> int -> int -> unit
  (** Append one undirected edge. Duplicates are fine (collapsed at
      {!build}); self-loops and out-of-range endpoints raise. *)

  val length : t -> int
  (** Edges appended so far (before dedup). *)

  val build : t -> csr
  (** Two-pass count/fill over the buffered edges plus per-row
      sort-unique — the buffer is the only intermediate state. *)
end
