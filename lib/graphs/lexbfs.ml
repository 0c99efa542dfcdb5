let members_array g within =
  let inw = Array.make (Ugraph.n g) (within = None) in
  (match within with
  | Some w -> Iset.iter (fun v -> inw.(v) <- true) w
  | None -> ());
  inw

(* Generic greedy search over a flat CSR adjacency: repeatedly pick an
   unvisited node with the best label (ties broken by smallest id:
   ascending scan, strictly-better replaces), then let each unvisited
   neighbor absorb the visit timestamp into its label. LexBFS compares
   timestamp lists lexicographically; MCS compares their lengths.
   Visited/within are plain arrays and labels live in per-node int
   buffers. The set-based reference in the test oracle uses the same
   rule and tie-breaking, so the orders are identical. *)
let greedy_order_kernel ~better ~absorb csr inw start =
  let n = Csr.n csr in
  let visited = Array.make n false in
  let order = ref [] in
  let count = ref 0 in
  let visit time v =
    visited.(v) <- true;
    order := v :: !order;
    incr count;
    Csr.iter_neighbors csr v (fun u ->
        if inw.(u) && not visited.(u) then absorb u time)
  in
  (match start with
  | Some s when s >= 0 && s < n && inw.(s) -> visit 0 s
  | Some _ | None -> ());
  let time = ref !count in
  let running = ref true in
  while !running do
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if inw.(v) && not visited.(v) && (!best < 0 || better v !best) then
        best := v
    done;
    match !best with
    | -1 -> running := false
    | v ->
      visit !time v;
      incr time
  done;
  List.rev !order

let lexbfs_order ?within ?start g =
  let n = Ugraph.n g in
  let csr = Csr.of_ugraph g in
  let inw = members_array g within in
  let lab = Array.make n [||] in
  let len = Array.make n 0 in
  let absorb v time =
    if len.(v) = Array.length lab.(v) then begin
      let a = Array.make (max 4 (2 * Array.length lab.(v))) 0 in
      Array.blit lab.(v) 0 a 0 len.(v);
      lab.(v) <- a
    end;
    lab.(v).(len.(v)) <- time;
    len.(v) <- len.(v) + 1
  in
  let better u v =
    let la = lab.(u) and lb = lab.(v) in
    let na = len.(u) and nb = len.(v) in
    let rec go i =
      if i >= na then false
      else if i >= nb then true
      else if la.(i) <> lb.(i) then la.(i) < lb.(i)
      else go (i + 1)
    in
    go 0
  in
  greedy_order_kernel ~better ~absorb csr inw start

let mcs_order ?within ?start g =
  let csr = Csr.of_ugraph g in
  let inw = members_array g within in
  let count = Array.make (Ugraph.n g) 0 in
  let absorb v _time = count.(v) <- count.(v) + 1 in
  let better u v = count.(u) > count.(v) in
  greedy_order_kernel ~better ~absorb csr inw start

let lexbfs_partition_order ?within ?start g =
  let w = match within with Some w -> w | None -> Ugraph.nodes g in
  let initial =
    match start with
    | Some s when Iset.mem s w ->
      [ [ s ]; Iset.elements (Iset.remove s w) ]
    | Some _ | None -> [ Iset.elements w ]
  in
  let rec go classes order =
    match classes with
    | [] -> List.rev order
    | [] :: rest -> go rest order
    | (v :: vs) :: rest ->
      let remaining = if vs = [] then rest else vs :: rest in
      let nb = Ugraph.adj_within g ~within:w v in
      let refined =
        List.concat_map
          (fun cls ->
            let inside, outside =
              List.partition (fun u -> Iset.mem u nb) cls
            in
            List.filter (fun l -> l <> []) [ inside; outside ])
          remaining
      in
      go refined (v :: order)
  in
  go initial []
