(** Algorithm 2 (Theorem 5): Steiner trees on (6,2)-chordal bipartite
    graphs in O(|V|·|A|).

    For every node outside the terminal set, in any order, drop it if
    the remainder still covers the terminals; finish with a spanning
    tree. Lemma 5 shows that on (6,2)-chordal graphs {e every}
    nonredundant cover is minimum, so this one-pass elimination is
    exact there (Corollary 5: all orderings are good). On arbitrary
    graphs the function still returns a tree over the terminals — just
    without the optimality guarantee — which is exactly how the paper's
    Theorem 6 discussion exercises it. *)

open Graphs
open Bipartite

val solve :
  ?order:int list ->
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Ugraph.t ->
  p:Iset.t ->
  Tree.t option
(** [None] when the terminals do not share a component. The elimination
    is restricted to the component containing [p]; [order] defaults to
    increasing node ids and may mention any subset of nodes (missing
    nodes are appended in increasing order, terminals are skipped).
    [budget] is spent by the underlying {!Cover.eliminate_redundant}
    fixpoint, one fuel unit per elimination candidate. [trace] records
    an ["algorithm2"] span (component size, survivor count); [metrics]
    counts elimination steps ([elimination.steps] counter and
    [elimination.steps_per_solve] histogram). *)

val solve_bigraph :
  ?order:int list ->
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Bigraph.t ->
  p:Iset.t ->
  Tree.t option

val solve_in :
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Ugraph.t ->
  comp:Iset.t ->
  order:int list ->
  p:Iset.t ->
  Tree.t option
(** The elimination on an already-located component: [comp] must be the
    connected component containing [p] and [order] a complete
    elimination order over it. Sessions answering many queries compute
    both once per component ({!complete_order} builds the default
    order) and skip {!solve}'s per-call component search. *)

val solve_local :
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Csr.t ->
  order:int array ->
  terminals:int array ->
  Tree.t option
(** {!solve_in} on a flat adjacency that is the component itself (the
    query path's local graph, {!Graphs.Csr.induced}), with [order] and
    [terminals] in local node ids. Same tree, span, metrics and budget
    checks as {!solve_in}; the elimination runs on flat arrays
    ({!Cover.eliminate_local}). *)

val complete_order : comp:Iset.t -> int list option -> int list
(** [complete_order ~comp order] appends the nodes of [comp] missing
    from [order] in increasing id order — the completion {!solve}
    applies to its [?order] argument. *)
