(* Set-based reference implementations of the query rungs — the
   Dreyfus–Wagner DP, Algorithm 2's elimination fixpoint and the forest
   prune — as they ran on the query path over AVL-set graphs. The
   library now runs flat-array versions of each (Dreyfus_wagner.solve_local,
   Cover.eliminate_local, Forest_steiner.solve_local); test/test_kernels.ml
   asserts that both return the same trees on random graphs. *)

open Graphs

(* ------------------------------------------------- Dreyfus–Wagner *)

let inf = max_int / 4

(* Reconstruction tags for dp.(mask).(v). *)
type choice =
  | Leaf  (** base case: path from the mask's single terminal *)
  | Merge of int  (** split into submask / complement at [v] *)
  | Via of int  (** tree at [u] extended by a shortest u–v path *)

(* Raised (and caught below) when tree reconstruction hits a state the
   DP invariants say is impossible; degrading to [None] lets the
   runtime ladder fall through instead of crashing the process. *)
exception Reconstruction_failed

let dw_solve ?within ?(budget = Runtime.Budget.unlimited) g ~terminals =
  let w = match within with Some w -> w | None -> Ugraph.nodes g in
  if not (Iset.subset terminals w) then None
  else if Iset.cardinal terminals <= 1 then
    Some { Steiner.Tree.nodes = terminals; edges = [] }
  else if not (Traverse.connects ~within:w g terminals) then None
  else begin
    let terms = Array.of_list (Iset.elements terminals) in
    let t = Array.length terms in
    if t > Steiner.Dreyfus_wagner.max_terminals then
      invalid_arg "Dreyfus_wagner.solve: too many terminals";
    let n = Ugraph.n g in
    let full = (1 lsl t) - 1 in
    (* Distances restricted to [w], from every node (sparse: only nodes
       in w are sources we need, but indexing by node id is simplest). *)
    let dist = Array.init n (fun s -> if Iset.mem s w then Traverse.bfs ~within:w g s else Array.make n (-1)) in
    let d u v = if dist.(u).(v) < 0 then inf else dist.(u).(v) in
    let dp = Array.make_matrix (full + 1) n inf in
    let how = Array.make_matrix (full + 1) n Leaf in
    for i = 0 to t - 1 do
      let mask = 1 lsl i in
      Iset.iter (fun v -> dp.(mask).(v) <- d terms.(i) v) w
    done;
    (* Bucket-queue Dijkstra pass: propagate dp.(mask) along edges of
       unit weight so that dp.(mask).(v) accounts for "grow by a path"
       transitions. *)
    let relax mask =
      let maxd = n + 1 in
      let buckets = Array.make (maxd + 1) [] in
      Iset.iter
        (fun v ->
          let dv = dp.(mask).(v) in
          if dv <= maxd then buckets.(dv) <- v :: buckets.(dv))
        w;
      let settled = Array.make n false in
      for dist_now = 0 to maxd do
        let rec drain () =
          match buckets.(dist_now) with
          | [] -> ()
          | v :: rest ->
            buckets.(dist_now) <- rest;
            if (not settled.(v)) && dp.(mask).(v) = dist_now then begin
              Runtime.Budget.check budget;
              settled.(v) <- true;
              Iset.iter
                (fun u ->
                  if dist_now + 1 < dp.(mask).(u) then begin
                    dp.(mask).(u) <- dist_now + 1;
                    how.(mask).(u) <- Via v;
                    if dist_now + 1 <= maxd then
                      buckets.(dist_now + 1) <- u :: buckets.(dist_now + 1)
                  end)
                (Ugraph.adj_within g ~within:w v)
            end;
            drain ()
        in
        drain ()
      done
    in
    for i = 0 to t - 1 do
      relax (1 lsl i)
    done;
    let rec submasks m sub acc =
      if sub = 0 then acc else submasks m ((sub - 1) land m) (sub :: acc)
    in
    for mask = 1 to full do
      if mask land (mask - 1) <> 0 then begin
        (* Merge transitions: to avoid double work, force the submask to
           contain the mask's lowest terminal. *)
        let low = mask land -mask in
        let subs =
          submasks mask mask []
          |> List.filter (fun sub ->
                 sub <> mask && sub land low <> 0)
        in
        Iset.iter
          (fun v ->
            Runtime.Budget.check budget;
            List.iter
              (fun sub ->
                let cost = dp.(sub).(v) + dp.(mask lxor sub).(v) in
                if cost < dp.(mask).(v) then begin
                  dp.(mask).(v) <- cost;
                  how.(mask).(v) <- Merge sub
                end)
              subs)
          w;
        relax mask
      end
    done;
    (* Best root. *)
    let root = ref (-1) and best = ref inf in
    Iset.iter
      (fun v ->
        if dp.(full).(v) < !best then begin
          best := dp.(full).(v);
          root := v
        end)
      w;
    if !best >= inf then None
    else begin
      let nodes = ref Iset.empty in
      let add_path u v =
        (* Walk from v back toward u along decreasing distance. *)
        let rec go x =
          nodes := Iset.add x !nodes;
          if x <> u then begin
            let pred =
              Iset.fold
                (fun y acc ->
                  match acc with
                  | Some _ -> acc
                  | None -> if d u y = d u x - 1 then Some y else None)
                (Ugraph.adj_within g ~within:w x)
                None
            in
            match pred with
            | Some y -> go y
            | None -> raise Reconstruction_failed
          end
        in
        go v
      in
      let rec rebuild mask v =
        match how.(mask).(v) with
        | Leaf ->
          let i =
            let rec find i = if mask = 1 lsl i then i else find (i + 1) in
            find 0
          in
          add_path terms.(i) v
        | Via u ->
          nodes := Iset.add v !nodes;
          rebuild mask u
        | Merge sub ->
          rebuild sub v;
          rebuild (mask lxor sub) v
      in
      match rebuild full !root with
      | exception Reconstruction_failed -> None
      | () -> (
        (* The collected node set is connected and has exactly opt + 1
           nodes (the reconstruction walks at most opt distinct edges and
           any connected cover needs at least that many), so a spanning
           tree of it is an optimal Steiner tree. *)
        match Spanning.spanning_tree ~within:!nodes g with
        | Some tree_edges -> Some { Steiner.Tree.nodes = !nodes; edges = tree_edges }
        | None -> None)
    end
  end


(* ------------------------------------------- elimination fixpoint *)

let elimination_pass ?order ?(budget = Runtime.Budget.unlimited)
    ?(steps = Observe.Metrics.inert) g ~p current =
  let order =
    match order with Some o -> o | None -> Iset.elements current
  in
  List.fold_left
    (fun current v ->
      if Iset.mem v p || not (Iset.mem v current) then current
      else begin
        Runtime.Budget.check budget;
        Observe.Metrics.incr steps;
        let candidate = Iset.remove v current in
        if Steiner.Cover.is_cover g ~p candidate then candidate else current
      end)
    current order

let eliminate_redundant_once ?order ?budget ?steps g ~within ~p =
  elimination_pass ?order ?budget ?steps g ~p within

(* One pass in the given order is not enough for nonredundancy: a node
   may be kept only because it connects a non-terminal that is itself
   deleted later in the pass (covers must be connected as a whole,
   Definition 10). Re-scan until a fixpoint, as Theorem 5's claim that
   Step 1 yields a nonredundant cover requires. *)
let eliminate_redundant ?order ?budget ?steps g ~within ~p =
  let rec fixpoint current =
    let next = elimination_pass ?order ?budget ?steps g ~p current in
    if Iset.equal next current then current else fixpoint next
  in
  fixpoint within


(* Algorithm 2 on an already-located component. *)
let algorithm2_solve_in g ~comp ~order ~p =
  Steiner.Tree.of_node_set g (eliminate_redundant ~order g ~within:comp ~p)

(* ---------------------------------------------------- forest prune *)

let forest_solve g ~terminals =
  if Iset.is_empty terminals then Some Steiner.Tree.empty
  else
    match Traverse.component_containing g terminals with
    | None -> None
    | Some comp ->
      if not (Cycles.is_acyclic ~within:comp g) then None
      else begin
        (* In a tree, the minimal connection is the union of pairwise
           paths; equivalently, prune non-terminal leaves repeatedly. *)
        let rec prune nodes =
          let removable =
            Iset.filter
              (fun v ->
                (not (Iset.mem v terminals))
                && Iset.cardinal (Ugraph.adj_within g ~within:nodes v) <= 1)
              nodes
          in
          if Iset.is_empty removable then nodes
          else prune (Iset.diff nodes removable)
        in
        Steiner.Tree.of_node_set g (prune comp)
      end
