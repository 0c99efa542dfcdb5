(** Covers of a node set (Definition 10) and (non)redundant paths.

    All node sets are expressed as underlying-graph indices. The
    "minimum" predicates are brute force and exist as oracles for
    Lemmas 4/5 and the test suite. *)

open Graphs

val is_cover : Ugraph.t -> p:Iset.t -> Iset.t -> bool
(** The induced subgraph is connected and contains [p]. *)

val is_nonredundant_cover : Ugraph.t -> p:Iset.t -> Iset.t -> bool
(** A cover from which no single node can be dropped. *)

val is_side_nonredundant_cover :
  Ugraph.t -> p:Iset.t -> side:Iset.t -> Iset.t -> bool
(** No node {e of the given side} can be dropped (the paper's
    V₁-/V₂-nonredundant covers). *)

val nonredundant_covers_brute :
  Ugraph.t -> within:Iset.t -> p:Iset.t -> Iset.t list
(** All nonredundant covers inside [within]; exponential. *)

val minimum_cover_size_brute : Ugraph.t -> within:Iset.t -> p:Iset.t -> int option
(** Size of a minimum cover; [None] when [p] is not connected within. *)

val side_minimum_brute :
  Ugraph.t -> within:Iset.t -> p:Iset.t -> side:Iset.t -> int option
(** Minimum number of side-nodes over all covers. *)

val eliminate_redundant_once :
  ?order:int list ->
  ?budget:Runtime.Budget.t ->
  ?steps:Observe.Metrics.counter ->
  Ugraph.t ->
  within:Iset.t ->
  p:Iset.t ->
  Iset.t
(** A single scan, exactly as Algorithms 1–2 are printed in the paper.
    Kept for the ablation benchmark: it can leave a redundant node
    behind (see DESIGN.md §7) and is {e not} used by the solvers. *)

val eliminate_redundant :
  ?order:int list ->
  ?budget:Runtime.Budget.t ->
  ?steps:Observe.Metrics.counter ->
  Ugraph.t ->
  within:Iset.t ->
  p:Iset.t ->
  Iset.t
(** Scan the nodes (in [order], default increasing; terminals are
    skipped) and drop each whose removal leaves a cover of [p] — the
    core move of Algorithm 2 and of Definition 11's "good orderings".
    Requires [p] connected within; returns a nonredundant cover. One
    fuel unit is spent per elimination candidate; exhaustion raises
    the internal [Runtime.Budget.Exhausted] signal (callers at the
    runtime boundary catch it; the fixpoint leaves no partial
    state behind — inputs are immutable). [steps] (default inert) is
    bumped once per considered elimination candidate. *)

val eliminate_local :
  ?budget:Runtime.Budget.t ->
  ?steps:Observe.Metrics.counter ->
  ?once:bool ->
  ?feasible:bool ->
  Csr.t ->
  order:int array ->
  terminal:bool array ->
  bool array
(** {!eliminate_redundant} over a flat adjacency whose nodes all start
    in the cover: scans [order] (local nodes; repeats allowed), skips
    [terminal] nodes, and returns the surviving cover as marks. [once]
    stops after one scan ({!eliminate_redundant_once}); [feasible]
    (default [true]) is [false] when some terminal lies outside the
    graph, in which case no removal ever leaves a cover. Each candidate
    costs one BFS over flat arrays; budget checks and [steps] bumps are
    those of the set-based scan. *)

val is_nonredundant_path : Ugraph.t -> int list -> bool
(** The path's node set induces a nonredundant cover of its two
    endpoints. *)

val all_paths : ?max_len:int -> Ugraph.t -> int -> int -> int list list
(** All simple paths between two nodes; exponential. *)

val nonredundant_nonminimum_pair :
  Ugraph.t -> (int * int * int list) option
(** A witness for Lemma 4's criterion failing: endpoints plus a
    nonredundant path strictly longer than their distance. *)
