open Graphs

(* The CSR adjacency and BFS queue shared by the per-terminal BFS
   passes of one call; the dist/parent rows depend on |terminals|. *)
type scratch = { csr : Csr.t; n : int; queue : int array }

let make_scratch g =
  let csr = Csr.of_ugraph g in
  let n = Csr.n csr in
  { csr; n; queue = Array.make n 0 }

(* BFS over the CSR rows, recording distances and parent pointers in
   one pass. Neighbor iteration is ascending, like [Traverse.bfs], so
   the distances — and the parent-pointer paths — match the
   [Traverse.shortest_path] expansion this replaces. *)
let bfs_into s ~dist ~parent start =
  Array.fill dist 0 s.n (-1);
  dist.(start) <- 0;
  parent.(start) <- -1;
  s.queue.(0) <- start;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = s.queue.(!head) in
    incr head;
    Csr.iter_neighbors s.csr u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          s.queue.(!tail) <- v;
          incr tail
        end)
  done

(* The caller has already established that the terminals share a
   component (|terminals| >= 2). *)
let solve_connected ?(trace = Observe.Trace.disabled) g ~terminals =
  if Iset.cardinal terminals <= 1 then
    Some { Tree.nodes = terminals; edges = [] }
  else
  let s = make_scratch g in
  Observe.Trace.span trace "mst_approx"
    ~attrs:[ ("terminals", Observe.Trace.Int (Iset.cardinal terminals)) ]
  @@ fun () ->
  let terms = Array.of_list (Iset.elements terminals) in
  let t = Array.length terms in
  let dists = Array.init t (fun _ -> Array.make s.n 0) in
  let parents = Array.init t (fun _ -> Array.make s.n (-1)) in
  for j = 0 to t - 1 do
    bfs_into s ~dist:dists.(j) ~parent:parents.(j) terms.(j)
  done;
  (* Prim's algorithm on the terminal metric closure. *)
  let in_tree = Array.make t false in
  let best_dist = Array.make t max_int in
  let best_from = Array.make t 0 in
  in_tree.(0) <- true;
  for j = 1 to t - 1 do
    best_dist.(j) <- dists.(0).(terms.(j));
    best_from.(j) <- 0
  done;
  let mst_edges = ref [] in
  for _round = 1 to t - 1 do
    let pick = ref (-1) in
    for j = 0 to t - 1 do
      if (not in_tree.(j)) && (!pick < 0 || best_dist.(j) < best_dist.(!pick))
      then pick := j
    done;
    let j = !pick in
    in_tree.(j) <- true;
    mst_edges := (best_from.(j), j) :: !mst_edges;
    for k = 0 to t - 1 do
      if (not in_tree.(k)) && dists.(j).(terms.(k)) < best_dist.(k) then begin
        best_dist.(k) <- dists.(j).(terms.(k));
        best_from.(k) <- j
      end
    done
  done;
  (* Expand MST edges into shortest paths by walking the parent
     pointers of the source terminal's BFS. The terminals share a
     component, so every expansion terminates at the source; an
     unreachable endpoint would mean the graph changed under us, and
     skipping it degrades to a disconnected node set that the final
     [of_node_set] rejects with [None] instead of crashing. *)
  let nodes = ref terminals in
  List.iter
    (fun (a, b) ->
      if dists.(a).(terms.(b)) >= 0 then begin
        let v = ref terms.(b) in
        while !v >= 0 do
          nodes := Iset.add !v !nodes;
          v := parents.(a).(!v)
        done
      end)
    !mst_edges;
  match Tree.of_node_set g !nodes with
  | None -> None
  | Some tree -> (
    let pruned = Tree.prune_leaves g ~keep:terminals tree in
    match Tree.of_node_set g pruned.Tree.nodes with
    | Some t ->
      Observe.Trace.add_attr trace "tree_nodes"
        (Observe.Trace.Int (Tree.node_count t));
      Some t
    | None -> None)

let solve ?trace g ~terminals =
  if Iset.cardinal terminals <= 1 then
    Some { Tree.nodes = terminals; edges = [] }
  else if not (Traverse.connects g terminals) then None
  else solve_connected ?trace g ~terminals
