open Graphs
open Bipartite
open Hypergraphs

let log_src =
  Logs.Src.create "minconn.algorithm1" ~doc:"Algorithm 1 (Theorem 3/4)"

module Log = (val Logs.src_log log_src : Logs.LOG)

type error = Disconnected_terminals | Not_alpha_acyclic

type result = {
  tree : Tree.t;
  v2_count : int;
  elimination_order : int list;
}

(* The flat-kernel elimination keeps all its working state in a scratch
   record so a session serving many queries over the same graph builds
   the CSR adjacency and the bitset/array buffers exactly once. *)
type scratch = {
  csr : Csr.t;
  current : Bitset.t;
  pb : Bitset.t;
  doomed : Bitset.t;
  candidate : Bitset.t;
  queue : int array;
  seen : int array;
  mutable generation : int;
}

let make_scratch_csr csr =
  let n = Csr.n csr in
  {
    csr;
    current = Bitset.create n;
    pb = Bitset.create n;
    doomed = Bitset.create n;
    candidate = Bitset.create n;
    queue = Array.make n 0;
    seen = Array.make n 0;
    generation = 0;
  }

(* Array-based BFS from [start] over the CSR rows restricted to
   [within], each row visited ascending; [on_edge x y] sees every tree
   edge in discovery order. Returns the number of nodes reached. *)
let bfs s within start on_edge =
  let { csr; queue; seen; _ } = s in
  s.generation <- s.generation + 1;
  let gen = s.generation in
  seen.(start) <- gen;
  queue.(0) <- start;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    Csr.iter_neighbors csr x (fun y ->
        if seen.(y) <> gen && Bitset.mem within y then begin
          seen.(y) <- gen;
          queue.(!tail) <- y;
          incr tail;
          on_edge x y
        end)
  done;
  !tail

(* Step 2 of the algorithm: scan the Lemma 1 ordering and delete each
   right node together with its private left neighbors whenever the
   remainder still covers the terminals. A single pass can leave a
   right node that was only blocked by structure deleted later in the
   same pass (covers must be connected as a whole); re-scan in the same
   W order until a fixpoint so the result is V2-nonredundant as
   Theorem 3's proof requires. Adjacency comes from CSR rows, node sets
   are dense bitsets and connectivity is an array-based BFS; the
   set-based reference in the test oracle takes the same decisions. *)
let eliminate_kernel_with s ~comp ~p w_order =
  let { csr; current; pb; doomed; candidate; _ } = s in
  Bitset.clear current;
  Iset.iter (Bitset.add current) comp;
  Bitset.clear pb;
  Iset.iter (Bitset.add pb) p;
  let connected within =
    match Bitset.min_elt_opt within with
    | None -> true
    | Some start -> bfs s within start (fun _ _ -> ()) = Bitset.card within
  in
  let step v =
    if Bitset.mem current v then begin
      Bitset.clear doomed;
      Bitset.add doomed v;
      Csr.iter_neighbors csr v (fun u ->
          if Bitset.mem current u then begin
            let private_to_v = ref true in
            Csr.iter_neighbors csr u (fun w ->
                if w <> v && Bitset.mem current w then private_to_v := false);
            if !private_to_v then Bitset.add doomed u
          end);
      if Bitset.disjoint doomed pb then begin
        Bitset.assign ~dst:candidate ~src:current;
        Bitset.diff_into candidate doomed;
        if Bitset.subset pb candidate && connected candidate then begin
          Log.debug (fun m ->
              m "eliminating right node %d with Adj* %a" v Bitset.pp
                (let adj = Bitset.copy doomed in
                 Bitset.remove adj v;
                 adj));
          Bitset.assign ~dst:current ~src:candidate;
          true
        end
        else false
      end
      else false
    end
    else false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter (fun v -> if step v then changed := true) w_order
  done;
  Bitset.to_iset current

(* Step 3: a BFS spanning tree of the survivors, which
   [eliminate_kernel_with] left in [s.current]. Started at the smallest
   survivor with every row ascending, it visits in the order of
   [Spanning.spanning_tree] and so returns the same edges; [None] when
   the survivors are disconnected. *)
let spanning_tree s survivors =
  match Iset.min_elt_opt survivors with
  | None -> Some []
  | Some start ->
    let edges = ref [] in
    let reached =
      bfs s s.current start (fun x y -> edges := (x, y) :: !edges)
    in
    if reached = Iset.cardinal survivors then Some (List.rev !edges) else None

(* ------------------------------------------------------------------ *)
(* Compile-once preprocessing: the Lemma 1 ordering depends only on
   the component, not on the terminal set, so a session answering many
   queries computes the join tree and W once per component.           *)
(* ------------------------------------------------------------------ *)

type prep = {
  comp : Iset.t;
  w_order : int list;  (* [] for trivial (<= 1 node) components *)
}

let prep_order p = p.w_order

let prepare ?(trace = Observe.Trace.disabled) g ~comp =
  if Iset.cardinal comp <= 1 then Ok { comp; w_order = [] }
  else begin
    let c = Bigraph.csr g in
    let nl = Bigraph.nl g in
    let right_in_comp =
      List.filter (fun v -> v >= nl) (Iset.elements comp)
    in
    (* H¹ of the component: one hyperedge per right node, over the left
       universe. Right nodes in the component always have at least one
       neighbor (they would otherwise be isolated and the component
       would be a singleton). Adjacency comes straight from the sorted
       CSR rows — preparing every component of a stream-built schema
       never forces the set view or an O(nr) right-node set. *)
    let family =
      List.map
        (fun v -> Iset.of_list (Array.to_list (Csr.sorted_neighbors c v)))
        right_in_comp
    in
    let h = Hypergraph.create ~n_nodes:(Bigraph.nl g) family in
    match
      Observe.Trace.span trace "algorithm1.join_tree" (fun () ->
          Gyo.join_tree h)
    with
    | None -> Error Not_alpha_acyclic
    | Some jt ->
      let rip = Join_tree.preorder jt in
      let right_arr = Array.of_list right_in_comp in
      (* Lemma 1's W is the reverse of the running-intersection
         ordering. *)
      let w_order = List.rev_map (fun i -> right_arr.(i)) rip in
      Log.debug (fun m ->
          m "Lemma 1 ordering W = [%s]"
            (String.concat "; " (List.map string_of_int w_order)));
      Ok { comp; w_order }
  end

(* Step 2 + Step 3 on an already-prepared component. [p] must lie
   inside [prep.comp] (the caller established connectivity). V2 nodes
   are counted by index instead of through an O(nr) right-node set. *)
let solve_prepared ?(trace = Observe.Trace.disabled) ?scratch g prep ~p =
  let nl = Bigraph.nl g in
  let v2_count nodes = Iset.cardinal (Iset.filter (fun v -> v >= nl) nodes) in
  let comp = prep.comp in
  if Iset.cardinal comp <= 1 then
    Ok
      {
        tree = { Tree.nodes = comp; edges = [] };
        v2_count = v2_count comp;
        elimination_order = [];
      }
  else begin
    Observe.Trace.span trace "algorithm1"
      ~attrs:[ ("component", Observe.Trace.Int (Iset.cardinal comp)) ]
    @@ fun () ->
    let s =
      match scratch with
      | Some s -> s
      | None -> make_scratch_csr (Bigraph.csr g)
    in
    let survivors =
      Observe.Trace.span trace "algorithm1.eliminate" (fun () ->
          eliminate_kernel_with s ~comp ~p prep.w_order)
    in
    match spanning_tree s survivors with
    | Some edges ->
      Ok
        {
          tree = { Tree.nodes = survivors; edges };
          v2_count = v2_count survivors;
          elimination_order = prep.w_order;
        }
    | None ->
      (* Defensive: every accepted elimination candidate is a
         connected cover, so a spanning tree must exist; degrade
         instead of crashing if that invariant is ever broken. *)
      Error Disconnected_terminals
  end

let solve ?trace g ~p =
  match Traverse.component_containing (Bigraph.ugraph g) p with
  | None -> Error Disconnected_terminals
  | Some comp -> (
    match prepare ?trace g ~comp with
    | Error e -> Error e
    | Ok prep -> solve_prepared ?trace g prep ~p)

let solve_wrt_v1 g ~p =
  let flipped = Bigraph.flip g in
  let to_flipped v =
    match Bigraph.node_of_index g v with
    | Bigraph.L i -> Bigraph.index flipped (Bigraph.R i)
    | Bigraph.R j -> Bigraph.index flipped (Bigraph.L j)
  in
  let to_original v =
    match Bigraph.node_of_index flipped v with
    | Bigraph.L j -> Bigraph.index g (Bigraph.R j)
    | Bigraph.R i -> Bigraph.index g (Bigraph.L i)
  in
  match solve flipped ~p:(Iset.map to_flipped p) with
  | Error e -> Error e
  | Ok r ->
    let nodes = Iset.map to_original r.tree.Tree.nodes in
    let edges =
      List.map
        (fun (a, b) ->
          let a = to_original a and b = to_original b in
          (min a b, max a b))
        r.tree.Tree.edges
    in
    Ok
      {
        tree = { Tree.nodes; edges };
        v2_count = r.v2_count;
        elimination_order = List.map to_original r.elimination_order;
      }
