open Graphs
open Bipartite

type component = {
  nodes : Iset.t;
  order : int list;
  cprofile : Classify.profile;
  alg1_prep : (Steiner.Algorithm1.prep, Steiner.Algorithm1.error) result;
}

type t = {
  graph : Bigraph.t;
  profile : Classify.profile;
  comp_id : int array;
  components : component array;
}

type delta_stats = {
  op : Delta.op;
  noop : bool;
  fallback : bool;
  recompiled : int list;
  reused : int;
}

let graph t = t.graph
let ugraph t = Bigraph.ugraph t.graph
let csr t = Bigraph.csr t.graph
let profile t = t.profile
let n_components t = Array.length t.components

let local_id ids v =
  let i = Csr.local_index ids v in
  if i < 0 then raise Not_found else i

(* Components are closed under adjacency, so every neighbor read off
   the CSR row of a member is a member too: the induced graph costs
   O(|component| log |component|) and touches no other row. *)
let local t comp =
  let ids = Array.make (Iset.cardinal comp.nodes) 0 in
  let i = ref 0 in
  Iset.iter
    (fun v ->
      ids.(!i) <- v;
      incr i)
    comp.nodes;
  (Csr.induced (csr t) ids, ids)

(* ------------------------------------------------- serialization *)

(* Canonical schema rendering: sizes plus the ascending edge list.
   Bigraph.iter_edges visits left nodes in order and neighbors
   ascending, so two structurally equal graphs render identically
   whatever insertion order built them — without materialising a
   million-pair list. *)
let schema_hash g =
  let b = Buffer.create 256 in
  Printf.bprintf b "bipartite %d %d" (Bigraph.nl g) (Bigraph.nr g);
  Bigraph.iter_edges g (fun i j -> Printf.bprintf b " %d-%d" i j);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Marshal-safety audit (pinned by test/test_cache.ml): every field of
   [t] is first-order data — Bigraph is a record of two ints and a Csr
   (two ints and two int arrays), Classify.profile is bools plus
   Acyclicity.degree variants, and each component holds an Iset
   (Set.Make(Int): plain AVL blocks), an int list, a profile and an
   [(Algorithm1.prep, error) result] whose prep is {comp; w_order} —
   no closures, lazies, mutable caches or custom blocks anywhere. The
   lazy compiled handles live in Datamodel.Schema/Layered (outside
   [t]) and the mutable solver scratch lives in Session, rebuilt by
   [Session.create]; neither is ever marshaled. The graph's CSR arrays
   are canonical per graph, so equal plans from [compile] marshal to
   equal bytes (pinned by test_cache's save/load round-trip). *)
let to_bytes t = Marshal.to_string t [ Marshal.No_sharing ]

(* Structural sanity net under the payload checksum: catches an
   envelope that validated but framed bytes marshaled by an
   incompatible build into a plausible-looking block. *)
let coherent t =
  let n = Bigraph.n t.graph in
  Csr.n (Bigraph.csr t.graph) = n
  && Array.length t.comp_id = n
  && (let k = Array.length t.components in
      Array.for_all (fun c -> c >= 0 && c < k) t.comp_id)
  && Array.for_all
       (fun comp ->
         Iset.for_all (fun v -> v >= 0 && v < n) comp.nodes
         && List.for_all (fun v -> v >= 0 && v < n) comp.order)
       t.components

let of_bytes s =
  match (Marshal.from_string s 0 : t) with
  | exception _ -> None
  | t -> if coherent t then Some t else None

(* --------------------------------------------------- compilation *)

(* Everything a single connected component contributes to the plan:
   the Algorithm 2 elimination order, the Algorithm 1 join-tree prep,
   and — new with delta support — its own classification profile, so a
   schema edit can replace one component's slice and re-derive the
   global profile by [Classify.combine] instead of reclassifying the
   whole graph. The component profile is computed on the materialised
   induced sub-bigraph (identical to the graph itself when the graph
   is connected, so the single-component fast path pays no copy). *)
let prep_component tr graph nodes =
  let sub =
    if Iset.cardinal nodes = Bigraph.n graph then graph
    else fst (Bigraph.induced graph nodes)
  in
  {
    nodes;
    (* Increasing node ids: the completion Algorithm 2 applies
       when no order is supplied, so session answers match the
       one-shot path node for node. *)
    order = Iset.elements nodes;
    cprofile = Classify.profile ~trace:tr sub;
    alg1_prep = Steiner.Algorithm1.prepare ~trace:tr graph ~comp:nodes;
  }

(* Per-component prep: one pool task per component when there are
   several, otherwise inline. Per-task trace forks are merged in
   component order to keep ids stable. *)
let build_components ?pool ~trace graph comps =
  match pool with
  | Some p when Parallel.Pool.domains p > 1 && Array.length comps > 1 ->
    let forks = Array.map (fun _ -> Observe.Trace.fork trace) comps in
    let out =
      Parallel.Pool.mapi_worker p
        (fun ~worker:_ ~index nodes -> prep_component forks.(index) graph nodes)
        comps
    in
    Array.iter (Observe.Trace.merge trace) forks;
    out
  | _ -> Array.map (prep_component trace graph) comps

let compile ?pool ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) graph =
  let c = Bigraph.csr graph in
  Observe.Trace.span trace "compile"
    ~attrs:
      [
        ("nodes", Observe.Trace.Int (Csr.n c));
        ("edges", Observe.Trace.Int (Csr.m c));
      ]
  @@ fun () ->
  let comp_id, comps =
    Observe.Trace.span trace "compile.components" (fun () ->
        Csr.component_ids c)
  in
  let components =
    Observe.Trace.span trace "compile.orderings" @@ fun () ->
    build_components ?pool ~trace graph (Array.of_list comps)
  in
  let profile =
    Classify.combine (Array.map (fun c -> c.cprofile) components)
  in
  Observe.Trace.add_attr trace "components"
    (Observe.Trace.Int (Array.length components));
  Observe.Metrics.incr (Observe.Metrics.counter metrics "engine.compiles");
  { graph; profile; comp_id; components }

(* ------------------------------------------------ delta application *)

(* Rebuild the plan around a mix of reused and freshly prepped
   components. The array is renormalised to the order a fresh compile
   would produce — [Traverse.component_ids] lists components by
   ascending minimum element — so a patched plan and a from-scratch
   plan agree component index for component index. [kept] is a
   subsequence of the old plan and so already in that order: only the
   few rebuilt components are sorted, then merged in. *)
let replan ?pool ~trace ~metrics graph ~kept ~rebuilt_sets =
  let rebuilt = build_components ?pool ~trace graph rebuilt_sets in
  let key c = Iset.min_elt c.nodes in
  Array.sort (fun a b -> Int.compare (key a) (key b)) rebuilt;
  let nk = Array.length kept and nr = Array.length rebuilt in
  let i = ref 0 and j = ref 0 and recompiled = ref [] in
  let components =
    Array.init (nk + nr) (fun k ->
        if !j < nr && (!i >= nk || key rebuilt.(!j) < key kept.(!i)) then begin
          recompiled := k :: !recompiled;
          incr j;
          rebuilt.(!j - 1)
        end
        else begin
          incr i;
          kept.(!i - 1)
        end)
  in
  let n = Bigraph.n graph in
  let comp_id = Array.make n (-1) in
  Array.iteri
    (fun k c -> Iset.iter (fun v -> comp_id.(v) <- k) c.nodes)
    components;
  let profile =
    Classify.combine (Array.map (fun c -> c.cprofile) components)
  in
  Observe.Metrics.incr ~by:nr
    (Observe.Metrics.counter metrics "engine.delta.recompiled_components");
  ({ graph; profile; comp_id; components }, List.rev !recompiled)

(* The connected components of the subgraph induced by [nodes], as
   node sets of [g]: labelled on the induced slice's CSR, so a split
   costs the old component, not the graph. The slice's renumbering is
   ascending, so mapping each piece back through [ids] keeps it
   sorted. *)
let split g nodes =
  let sub, ids = Bigraph.induced g nodes in
  List.map
    (fun piece ->
      Iset.of_list (List.map (Array.get ids) (Iset.elements piece)))
    (snd (Csr.component_ids (Bigraph.csr sub)))

let apply_delta ?pool ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) t op =
  match Delta.apply t.graph op with
  | Error msg -> Error msg
  | Ok g' when g' == t.graph ->
    (* Physically unchanged graph: the delta was a no-op (re-adding a
       present edge, removing an absent one) and must not dirty any
       component — the plan itself is returned untouched. *)
    Observe.Metrics.incr (Observe.Metrics.counter metrics "engine.delta.noops");
    Ok
      ( t,
        {
          op;
          noop = true;
          fallback = false;
          recompiled = [];
          reused = Array.length t.components;
        } )
  | Ok g' ->
    Observe.Trace.span trace "apply_delta"
      ~attrs:[ ("op", Observe.Trace.Str (Delta.to_string op)) ]
    @@ fun () ->
    Observe.Metrics.incr (Observe.Metrics.counter metrics "engine.delta.applied");
    let nl = Bigraph.nl t.graph in
    let total = Array.length t.components in
    (* Removing an interior relation shifts every higher underlying
       index, invalidating the node sets, orderings and join-tree preps
       of untouched components wholesale — the conservative fallback
       the delta contract reserves for edits that break cached
       invariants. Only last-index removal is incremental. *)
    let interior_removal =
      match op with
      | Delta.Remove_relation j -> j < Bigraph.nr t.graph - 1
      | _ -> false
    in
    if interior_removal then begin
      Observe.Metrics.incr
        (Observe.Metrics.counter metrics "engine.delta.fallbacks");
      Observe.Trace.add_attr trace "fallback" (Observe.Trace.Bool true);
      let c = compile ?pool ~trace ~metrics g' in
      Ok
        ( c,
          {
            op;
            noop = false;
            fallback = true;
            recompiled = List.init (Array.length c.components) Fun.id;
            reused = 0;
          } )
    end
    else begin
      (* Which old components does the edit touch, and what node sets
         replace them?  Insertion merges the endpoints' components;
         deletion may split one component into several (recomputed by a
         traversal restricted to the old component's nodes). *)
      let dirty, rebuilt_sets =
        match op with
        | Delta.Add_edge (i, j) ->
          let a = t.comp_id.(i) and b = t.comp_id.(nl + j) in
          if a = b then ([ a ], [ t.components.(a).nodes ])
          else
            ( [ a; b ],
              [ Iset.union t.components.(a).nodes t.components.(b).nodes ] )
        | Delta.Remove_edge (i, _) ->
          let a = t.comp_id.(i) in
          ([ a ], split g' t.components.(a).nodes)
        | Delta.Add_relation attrs ->
          let v = Bigraph.n t.graph in
          let cids =
            Iset.fold
              (fun i acc ->
                if List.mem t.comp_id.(i) acc then acc else t.comp_id.(i) :: acc)
              attrs []
          in
          let nodes =
            List.fold_left
              (fun acc c -> Iset.union acc t.components.(c).nodes)
              (Iset.singleton v) cids
          in
          (cids, [ nodes ])
        | Delta.Remove_relation j ->
          let v = nl + j in
          let a = t.comp_id.(v) in
          let rest = Iset.remove v t.components.(a).nodes in
          ([ a ], split g' rest)
      in
      let kept =
        Array.of_seq
          (Seq.filter_map
             (fun (k, c) -> if List.mem k dirty then None else Some c)
             (Array.to_seqi t.components))
      in
      let t', recompiled =
        replan ?pool ~trace ~metrics g' ~kept
          ~rebuilt_sets:(Array.of_list rebuilt_sets)
      in
      Observe.Trace.add_attr trace "recompiled"
        (Observe.Trace.Int (List.length recompiled));
      Observe.Trace.add_attr trace "reused"
        (Observe.Trace.Int (total - List.length dirty));
      Ok
        ( t',
          {
            op;
            noop = false;
            fallback = false;
            recompiled;
            reused = total - List.length dirty;
          } )
    end

let apply_deltas ?pool ?trace ?metrics t ops =
  let rec go t acc k = function
    | [] -> Ok (t, List.rev acc)
    | op :: rest -> (
      match apply_delta ?pool ?trace ?metrics t op with
      | Ok (t', stats) -> go t' (stats :: acc) (k + 1) rest
      | Error msg ->
        Error
          (Printf.sprintf "delta %d (%s): %s" k (Delta.to_string op) msg))
  in
  go t [] 1 ops
