open Graphs

(* In a tree the minimal connection is the union of the pairwise
   terminal paths: prune non-terminal leaves until none is left. The
   pruned set is unique, so a worklist of current leaves over a flat
   degree array reaches the set that pruning round by round does. *)
let solve_local c ~terminals =
  let k = Csr.n c in
  if Array.length terminals = 0 then Some Tree.empty
  else if Csr.m c <> k - 1 then None
  else begin
    let row = Csr.rows c and col = Csr.cols c in
    let alive = Array.make k true and terminal = Array.make k false in
    Array.iter (fun v -> terminal.(v) <- true) terminals;
    let degree = Array.init k (fun u -> row.(u + 1) - row.(u)) in
    let leaves = Array.make k 0 and tail = ref 0 in
    for u = 0 to k - 1 do
      if (not terminal.(u)) && degree.(u) <= 1 then begin
        leaves.(!tail) <- u;
        incr tail
      end
    done;
    let head = ref 0 in
    while !head < !tail do
      let u = leaves.(!head) in
      incr head;
      alive.(u) <- false;
      for p = row.(u) to row.(u + 1) - 1 do
        let v = col.(p) in
        if alive.(v) then begin
          degree.(v) <- degree.(v) - 1;
          if (not terminal.(v)) && degree.(v) = 1 then begin
            leaves.(!tail) <- v;
            incr tail
          end
        end
      done
    done;
    Tree.of_csr_subset c ~inside:(Array.get alive)
  end

let solve g ~terminals =
  if Iset.is_empty terminals then Some Tree.empty
  else
    match Traverse.component_containing g terminals with
    | None -> None
    | Some comp ->
      let c, ids = Csr.of_ugraph_within g comp in
      let terminals =
        Array.of_list
          (List.map (Csr.local_index ids) (Iset.elements terminals))
      in
      Option.map (Tree.lift ids) (solve_local c ~terminals)
