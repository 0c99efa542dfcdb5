open Graphs
open Bipartite

let log_src =
  Logs.Src.create "minconn.algorithm2" ~doc:"Algorithm 2 (Theorem 5)"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The elimination fixpoint and the final spanning tree, both over the
   flat local adjacency [c] whose nodes are the component. *)
let run ?budget ~trace ~metrics ~feasible c ~order ~terminal =
  let k = Csr.n c in
  Observe.Trace.span trace "algorithm2"
    ~attrs:[ ("component", Observe.Trace.Int k) ]
    (fun () ->
      let steps = Observe.Metrics.counter metrics "elimination.steps" in
      let before = Observe.Metrics.count steps in
      let alive =
        Cover.eliminate_local ?budget ~steps ~feasible c ~order ~terminal
      in
      Observe.Metrics.observe
        (Observe.Metrics.histogram metrics "elimination.steps_per_solve")
        (float_of_int (Observe.Metrics.count steps - before));
      let survivors =
        Array.fold_left (fun n a -> if a then n + 1 else n) 0 alive
      in
      Observe.Trace.add_attr trace "survivors" (Observe.Trace.Int survivors);
      Log.debug (fun m ->
          m "eliminated %d of %d component nodes" (k - survivors) k);
      Tree.of_csr_subset c ~inside:(Array.get alive))

let solve_local ?budget ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) c ~order ~terminals =
  let terminal = Array.make (Csr.n c) false in
  Array.iter (fun v -> terminal.(v) <- true) terminals;
  run ?budget ~trace ~metrics ~feasible:true c ~order ~terminal

(* [comp] is the component containing [p] and [order] a complete
   elimination order over it; the component is renumbered into a flat
   local graph (monotone, so the scan takes the same decisions) and the
   tree mapped back. *)
let solve_in ?budget ?(trace = Observe.Trace.disabled)
    ?(metrics = Observe.Metrics.disabled) g ~comp ~order ~p =
  let c, ids = Csr.of_ugraph_within g comp in
  let order =
    Array.of_list
      (List.filter_map
         (fun v ->
           let i = Csr.local_index ids v in
           if i >= 0 then Some i else None)
         order)
  in
  let terminal = Array.map (fun v -> Iset.mem v p) ids in
  Option.map (Tree.lift ids)
    (run ?budget ~trace ~metrics ~feasible:(Iset.subset p comp) c ~order
       ~terminal)

let complete_order ~comp order =
  let listed = match order with Some o -> o | None -> [] in
  let missing = Iset.elements (Iset.diff comp (Iset.of_list listed)) in
  listed @ missing

let solve ?order ?budget ?trace ?metrics g ~p =
  match Traverse.component_containing g p with
  | None -> None
  | Some comp ->
    solve_in ?budget ?trace ?metrics g ~comp
      ~order:(complete_order ~comp order)
      ~p

let solve_bigraph ?order ?budget ?trace ?metrics g ~p =
  solve ?order ?budget ?trace ?metrics (Bigraph.ugraph g) ~p
