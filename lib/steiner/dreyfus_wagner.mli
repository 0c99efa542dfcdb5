(** Exact unweighted Steiner trees via the Dreyfus–Wagner dynamic
    program (1971), minimising the number of edges — equivalently, for a
    tree, the number of nodes.

    Complexity O(3^t · n + 2^t · n · m) for [t] terminals: exponential
    in the terminal count only, which is exactly the baseline shape the
    paper's NP-hardness results predict (Theorem 2) and against which
    the polynomial Algorithms 1 and 2 are benchmarked. *)

open Graphs

val max_terminals : int
(** Guard on [2^t] table size (17). *)

val solve :
  ?within:Iset.t ->
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Ugraph.t ->
  terminals:Iset.t ->
  Tree.t option
(** A minimum-node tree of the induced subgraph spanning the terminals;
    [None] when the terminals are not connected. Raises
    [Invalid_argument] beyond {!max_terminals}. Zero or one terminal
    yield the trivial tree. One fuel unit of [budget] is spent per DP
    subset expansion (a settled node in a relax pass or a merge cell);
    exhaustion raises the internal [Runtime.Budget.Exhausted] signal
    for the runtime boundary to catch. [trace] records a
    ["dreyfus_wagner"] span (terminal count, mask count, table cells);
    [metrics] fills the [dp.table_size] histogram. A reconstruction
    inconsistency degrades to [None] rather than crashing. *)

val optimum_nodes :
  ?within:Iset.t ->
  ?budget:Runtime.Budget.t ->
  Ugraph.t ->
  terminals:Iset.t ->
  int option
(** Just the optimal node count. *)

val solve_local :
  ?budget:Runtime.Budget.t ->
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  Csr.t ->
  terminals:int array ->
  Tree.t option
(** {!solve} on a flat adjacency whose every node is in play — the
    query path's local component graph ({!Graphs.Csr.induced}).
    [terminals] is ascending and duplicate-free. Same tree, budget
    checks, span and histogram as {!solve} on the same graph; the DP
    table, reconstruction tags and bucket queue are flat int arrays,
    and distances are computed from the terminals only. *)
