(** Text formats for the CLI and the examples.

    Bipartite graph files:
    {v
    # comment
    bipartite
    left  A B C
    right r1 r2
    edge  A r1
    edge  B r1
    v}

    Schema files:
    {v
    schema
    relation works    emp dept
    relation located  dept floor
    v}

    Hypergraph files:
    {v
    hypergraph
    nodes a b c d
    edge  e1  a b
    edge  e2  b c d
    v}

    Delta files (applied against a bipartite graph file's schema):
    {v
    deltas
    +edge A r1
    -edge B r1
    +relation r9 A C
    -relation r2
    v}

    Node/relation names may be any whitespace-free strings; [left] and
    [right] lines may repeat and accumulate. *)

open Graphs
open Hypergraphs

type named_bigraph = {
  graph : Bipartite.Bigraph.t;
  left_names : string array;
  right_names : string array;
}

type error = Runtime.Errors.t
(** Parse failures are always [Runtime.Errors.Parse_error {line; col; msg}]
    with 1-based line and column; [col = 0] (or [line = 0]) means the
    position is unknown (e.g. a whole-file property like a duplicate
    name). Sharing the runtime taxonomy lets callers thread parse
    errors straight to the CLI error boundary. *)

val max_input_bytes : int
(** Hard cap on total input size for every [*_of_string] parser
    (8 MiB). Larger inputs are rejected up front with a typed
    [Parse_error] instead of being tokenized into memory — these
    parsers sit on attacker-reachable boundaries (CLI files, server
    request bodies). *)

val max_line_bytes : int
(** Hard cap on a single line (64 KiB); the typed rejection names the
    offending line. *)

val bigraph_of_string : string -> (named_bigraph, error) result

val schema_of_string : string -> (Datamodel.Schema.t, error) result

val hypergraph_of_string :
  string -> (Hypergraph.t * string array * string array, error) result
(** Returns the hypergraph plus node names and edge names. *)

val database_of_string :
  ?semantics:Relalg.Relation.semantics ->
  string ->
  (Relalg.Database.t, error) result
(** Populated database files:
    {v
    database
    relation works  emp dept
    row works  alice toys
    row works  bob   books
    v}
    Under the default [Set] semantics duplicate [row] lines collapse;
    pass [~semantics:Bag] to preserve multiplicities. *)

(** {2 Name resolution}

    Terminal lists and delta files name nodes; the engine speaks
    underlying indices. Every resolution goes through one {!Names}
    index: left names are searched before relation names, and on each
    side the first occurrence of a name wins. *)

module Names : sig
  type t
  (** A hashed index over a schema's names: one flat int table of about
      two words per name holding node ids, never written after it is
      built, so lock-free readers may share it. The strings stay in the
      schema's own name arrays, which every lookup reads. *)

  val build : named_bigraph -> t
  (** O(n) expected. *)

  val resolve : t -> named_bigraph -> string list -> (Iset.t, string) result
  (** [resolve t nb names] is {!name_set}[ nb names] in O(Σ |name|)
      expected, for [t] built from [nb] or carried along [nb]'s
      evolution by {!resolve_deltas}. Raises [Invalid_argument] when [t]
      indexes a schema with another number of left names. *)
end

val name_set : named_bigraph -> string list -> (Iset.t, string) result
(** Resolve a list of names to underlying indices; [Error name] on the
    first unknown one. One-shot: builds a {!Names} index per call, so
    resolve many lists through one [Names.resolve] instead. *)

val resolve_deltas :
  Names.t ->
  named_bigraph ->
  string ->
  (Bipartite.Delta.op list * string array * Names.t, error) result
(** [resolve_deltas names nb text] parses a delta file against [nb]
    (indexed by [names]), resolving each line's names in the schema
    {e as evolved by the preceding lines} — a [+relation] three lines
    up is a legal [+edge] endpoint here. Returns the index ops exactly
    as [Delta.apply_all] (and the engine's [Compiled.apply_deltas])
    expect them, the evolved relation names (left names never change;
    [+relation] appends one, [-relation] removes one) and the index
    over the evolved names. No graph is edited: the caller applies the
    ops once. Every op's indices come from names of the evolved schema,
    so they are in range. The index costs nothing extra for [±edge],
    O(1) for [+relation] and for removing the last relation (appended
    relations are scanned until more than a few dozen accumulate, then
    the index is rebuilt), and one O(n) rebuild for an interior
    [-relation]. Typed [Parse_error] with line/col on unknown
    directives, unknown names or a duplicate [+relation] name. *)

val deltas_of_string :
  named_bigraph ->
  string ->
  (Bipartite.Delta.op list * named_bigraph, error) result
(** One-shot {!resolve_deltas} (with an index built for the call)
    followed by [Delta.apply_all] on [nb]'s graph: the ops and the
    fully evolved schema with its name tables. *)

val query_of_string :
  string -> (string list * (string * string) list, error) result
(** The interface's tiny query language:
    [connect emp, manager where dept = toys and floor = 1] returns the
    object names and the equality selections. *)

val bigraph_to_string : named_bigraph -> string
(** Inverse of {!bigraph_of_string}. Names are spread over repeated
    [left]/[right] lines of at most 4 KiB each, so the output parses
    back at any size. *)

val schema_to_string : Datamodel.Schema.t -> string

val hypergraph_to_string :
  Hypergraph.t -> node_names:string array -> edge_names:string array -> string

val database_to_string : Relalg.Database.t -> string

val pp_error : Format.formatter -> error -> unit
