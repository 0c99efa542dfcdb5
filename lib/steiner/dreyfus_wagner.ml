open Graphs

let max_terminals = 17

let inf = max_int / 4

(* Reconstruction tags for cell (mask, v), packed into one int so the
   table is a flat unboxed array: [leaf] is the base case (a path from
   the mask's single terminal), [u >= 0] is "the tree at [u] extended
   by a shortest u–v path", and [merge_tag sub <= -3] is "split into
   [sub] and its complement at v". *)
let leaf = -1
let merge_tag sub = -2 - sub

(* Raised (and caught below) when tree reconstruction hits a state the
   DP invariants say is impossible; degrading to [None] lets the
   runtime ladder fall through instead of crashing the process. *)
exception Reconstruction_failed

(* The DP over a flat adjacency whose every node is in play: [dp] and
   [how] are (2^t × k) int matrices stored row-major, distances come
   from one BFS per terminal (the reconstruction only ever asks for
   distances from a terminal), and each relax pass is a bucket queue
   threaded through two int arrays. Tie-breaking — ascending node
   scans, LIFO buckets, ascending submasks, first strict improvement —
   is that of the set-based reference (test/oracle/set_rungs.ml),
   so the two return the same tree. *)
let solve_local ?(budget = Runtime.Budget.unlimited)
    ?(trace = Observe.Trace.disabled) ?(metrics = Observe.Metrics.disabled) c
    ~terminals:terms =
  let t = Array.length terms in
  if t <= 1 then
    Some { Tree.nodes = Iset.of_array terms; edges = [] }
  else begin
    let k = Csr.n c in
    let row = Csr.rows c and col = Csr.cols c in
    let queue = Array.make (max k 1) 0 in
    (* dist.(i * k + v): BFS distance from terminal i, -1 unreachable. *)
    let dist = Array.make (t * k) (-1) in
    for i = 0 to t - 1 do
      let base = i * k in
      dist.(base + terms.(i)) <- 0;
      queue.(0) <- terms.(i);
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        for p = row.(u) to row.(u + 1) - 1 do
          let v = col.(p) in
          if dist.(base + v) < 0 then begin
            dist.(base + v) <- dist.(base + u) + 1;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done
    done;
    let connected = ref true in
    for i = 1 to t - 1 do
      if dist.(terms.(i)) < 0 then connected := false
    done;
    if not !connected then None
    else begin
      if t > max_terminals then
        invalid_arg "Dreyfus_wagner.solve: too many terminals";
      let full = (1 lsl t) - 1 in
      Observe.Trace.span trace "dreyfus_wagner"
        ~attrs:
          [
            ("terminals", Observe.Trace.Int t);
            ("masks", Observe.Trace.Int (full + 1));
            ("table_cells", Observe.Trace.Int ((full + 1) * k));
          ]
      @@ fun () ->
      Observe.Metrics.observe
        (Observe.Metrics.histogram metrics "dp.table_size"
           ~bounds:[| 1e2; 1e3; 1e4; 1e5; 1e6; 1e7 |])
        (float_of_int ((full + 1) * k));
      let d i v =
        let x = dist.((i * k) + v) in
        if x < 0 then inf else x
      in
      let dp = Array.make ((full + 1) * k) inf in
      let how = Array.make ((full + 1) * k) leaf in
      for i = 0 to t - 1 do
        let base = (1 lsl i) * k in
        for v = 0 to k - 1 do
          dp.(base + v) <- d i v
        done
      done;
      (* Unit-weight Dijkstra for one mask: buckets are LIFO stacks
         threaded through [entry_node]/[entry_next] (at most one push
         per node plus one per improvement, and a node improves at most
         once per pass), and a node is settled for this pass when
         [settled.(v) = mask]. *)
      let maxd = k + 1 in
      let bucket = Array.make (maxd + 1) (-1) in
      let entry_node = Array.make (max (2 * k) 1) 0 in
      let entry_next = Array.make (max (2 * k) 1) 0 in
      let settled = Array.make k 0 in
      let relax mask =
        let base = mask * k in
        let used = ref 0 in
        let push d v =
          entry_node.(!used) <- v;
          entry_next.(!used) <- bucket.(d);
          bucket.(d) <- !used;
          incr used
        in
        for v = 0 to k - 1 do
          let dv = dp.(base + v) in
          if dv <= maxd then push dv v
        done;
        for dist_now = 0 to maxd do
          while bucket.(dist_now) >= 0 do
            let e = bucket.(dist_now) in
            bucket.(dist_now) <- entry_next.(e);
            let v = entry_node.(e) in
            if settled.(v) <> mask && dp.(base + v) = dist_now then begin
              Runtime.Budget.check budget;
              settled.(v) <- mask;
              for p = row.(v) to row.(v + 1) - 1 do
                let u = col.(p) in
                if dist_now + 1 < dp.(base + u) then begin
                  dp.(base + u) <- dist_now + 1;
                  how.(base + u) <- v;
                  if dist_now + 1 <= maxd then push (dist_now + 1) u
                end
              done
            end
          done
        done
      in
      for i = 0 to t - 1 do
        relax (1 lsl i)
      done;
      for mask = 1 to full do
        if mask land (mask - 1) <> 0 then begin
          (* Merge transitions: to avoid double work, the submask must
             contain the mask's lowest terminal. Submasks are visited
             in ascending order via [(sub - mask) land mask]. *)
          let low = mask land -mask in
          let base = mask * k in
          for v = 0 to k - 1 do
            Runtime.Budget.check budget;
            let sub = ref ((0 - mask) land mask) in
            while !sub <> mask do
              let s = !sub in
              if s land low <> 0 then begin
                let cost = dp.((s * k) + v) + dp.(((mask lxor s) * k) + v) in
                if cost < dp.(base + v) then begin
                  dp.(base + v) <- cost;
                  how.(base + v) <- merge_tag s
                end
              end;
              sub := (s - mask) land mask
            done
          done;
          relax mask
        end
      done;
      (* Best root: the first node of minimum cost. *)
      let root = ref (-1) and best = ref inf in
      let fbase = full * k in
      for v = 0 to k - 1 do
        if dp.(fbase + v) < !best then begin
          best := dp.(fbase + v);
          root := v
        end
      done;
      if !best >= inf then None
      else begin
        let in_tree = Array.make k false in
        (* Walk from [v] back to terminal [i] along decreasing
           distance, taking the first such neighbor. *)
        let rec add_path i x =
          in_tree.(x) <- true;
          if x <> terms.(i) then begin
            let dx = d i x in
            let p = ref row.(x) and pred = ref (-1) in
            while !pred < 0 && !p < row.(x + 1) do
              let y = col.(!p) in
              if d i y = dx - 1 then pred := y;
              incr p
            done;
            if !pred < 0 then raise Reconstruction_failed;
            add_path i !pred
          end
        in
        let rec rebuild mask v =
          let tag = how.((mask * k) + v) in
          if tag = leaf then begin
            let i = ref 0 in
            while !i < t && mask <> 1 lsl !i do
              incr i
            done;
            if !i = t then raise Reconstruction_failed;
            add_path !i v
          end
          else if tag >= 0 then begin
            in_tree.(v) <- true;
            rebuild mask tag
          end
          else begin
            let sub = -2 - tag in
            rebuild sub v;
            rebuild (mask lxor sub) v
          end
        in
        match rebuild full !root with
        | exception Reconstruction_failed -> None
        | () ->
          (* The collected node set is connected and has exactly
             opt + 1 nodes (the reconstruction walks at most opt
             distinct edges and any connected cover needs at least
             that many), so a spanning tree of it is an optimal
             Steiner tree. *)
          Tree.of_csr_subset c ~inside:(Array.get in_tree)
      end
    end
  end

let solve ?within ?budget ?trace ?metrics g ~terminals =
  let w = match within with Some w -> w | None -> Ugraph.nodes g in
  if not (Iset.subset terminals w) then None
  else if Iset.cardinal terminals <= 1 then
    Some { Tree.nodes = terminals; edges = [] }
  else
    (* Nodes outside the terminals' component keep infinite cost in
       every cell, so the DP on that component alone takes the same
       decisions. *)
    match Traverse.component_containing ~within:w g terminals with
    | None -> None
    | Some comp ->
      let c, ids = Csr.of_ugraph_within g comp in
      let terms =
        Array.of_list
          (List.map (Csr.local_index ids) (Iset.elements terminals))
      in
      Option.map (Tree.lift ids)
        (solve_local ?budget ?trace ?metrics c ~terminals:terms)

let optimum_nodes ?within ?budget g ~terminals =
  Option.map Tree.node_count (solve ?within ?budget g ~terminals)
