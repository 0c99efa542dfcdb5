open Graphs

(* The graph is its flat adjacency: [csr] lives on [nl + nr] underlying
   nodes with right node [j] at index [nl + j]. Constructors stream
   their edges into [Csr.of_edge_iter] and edits replace the touched
   rows ([Csr.replace_rows]), so a value is immutable and has exactly
   one representation — equal graphs have identical arrays, marshal
   identically, and no read ever fills a cache. Set-based callers
   convert explicitly with [ugraph]. *)
type t = { nl : int; nr : int; csr : Csr.t }

type side = V1 | V2
type node = L of int | R of int

let csr g = g.csr
let ugraph g = Csr.to_ugraph g.csr

let check_sizes name ~nl ~nr = if nl < 0 || nr < 0 then invalid_arg name

let check_left g i =
  if i < 0 || i >= g.nl then invalid_arg "Bigraph: left index out of range"

let check_right g j =
  if j < 0 || j >= g.nr then invalid_arg "Bigraph: right index out of range"

(* Every edge once as underlying indices (left endpoint first), lefts
   ascending and each row ascending: a replayable stream. *)
let iter_underlying g f =
  for i = 0 to g.nl - 1 do
    Csr.iter_neighbors g.csr i (f i)
  done

let stream ~nl ~nr iter = { nl; nr; csr = Csr.of_edge_iter ~n:(nl + nr) iter }

let of_edge_iter ~nl ~nr iter =
  check_sizes "Bigraph.of_edge_iter" ~nl ~nr;
  stream ~nl ~nr (fun f ->
      iter (fun i j ->
          if i < 0 || i >= nl then
            invalid_arg "Bigraph: left index out of range";
          if j < 0 || j >= nr then
            invalid_arg "Bigraph: right index out of range";
          f i (nl + j)))

let of_edges ~nl ~nr edges =
  of_edge_iter ~nl ~nr (fun f -> List.iter (fun (i, j) -> f i j) edges)

let create ~nl ~nr = of_edges ~nl ~nr []

let of_csr ~nl ~nr c =
  check_sizes "Bigraph.of_csr" ~nl ~nr;
  if Csr.n c <> nl + nr then invalid_arg "Bigraph.of_csr: size mismatch";
  for u = 0 to nl - 1 do
    Csr.iter_neighbors c u (fun v ->
        if v < nl then invalid_arg "Bigraph.of_csr: left-left edge")
  done;
  for v = nl to nl + nr - 1 do
    Csr.iter_neighbors c v (fun w ->
        if w >= nl then invalid_arg "Bigraph.of_csr: right-right edge")
  done;
  { nl; nr; csr = c }

let of_bipartite_ugraph ~nl u =
  let n = Ugraph.n u in
  if nl < 0 || nl > n then invalid_arg "Bigraph.of_bipartite_ugraph";
  Ugraph.fold_edges
    (fun x y () ->
      if (x < nl) = (y < nl) then
        invalid_arg "Bigraph.of_bipartite_ugraph: edge within one side")
    u ();
  { nl; nr = n - nl; csr = Csr.of_ugraph u }

(* An edit rewrites only the rows it touches; the others are copied
   as whole runs, so a delta on a 10^5-node schema costs two array
   copies. *)
let edit g ~nr rows =
  { g with nr; csr = Csr.replace_rows g.csr ~n:(g.nl + nr) rows }

let row g u = Csr.sorted_neighbors g.csr u

let insert x r =
  let n = Array.length r in
  let k = ref 0 in
  while !k < n && r.(!k) < x do
    incr k
  done;
  Array.concat [ Array.sub r 0 !k; [| x |]; Array.sub r !k (n - !k) ]

let remove x r = Array.of_seq (Seq.filter (fun y -> y <> x) (Array.to_seq r))

let add_edge g i j =
  check_left g i;
  check_right g j;
  let v = g.nl + j in
  if Csr.mem_edge g.csr i v then g
  else edit g ~nr:g.nr [ (i, insert v (row g i)); (v, insert i (row g v)) ]

let remove_edge g i j =
  check_left g i;
  check_right g j;
  let v = g.nl + j in
  if not (Csr.mem_edge g.csr i v) then g
  else edit g ~nr:g.nr [ (i, remove v (row g i)); (v, remove i (row g v)) ]

let nl g = g.nl
let nr g = g.nr
let n g = g.nl + g.nr
let m g = Csr.m g.csr

let index g = function
  | L i ->
    check_left g i;
    i
  | R j ->
    check_right g j;
    g.nl + j

let node_of_index g v =
  if v < 0 || v >= g.nl + g.nr then invalid_arg "Bigraph.node_of_index";
  if v < g.nl then L v else R (v - g.nl)

let side_of_index g v =
  match node_of_index g v with L _ -> V1 | R _ -> V2

let left_nodes g = Iset.range g.nl

let right_nodes g =
  Iset.of_list (List.init g.nr (fun j -> g.nl + j))

let nodes_of_side g = function V1 -> left_nodes g | V2 -> right_nodes g

let mem_edge g i j =
  check_left g i;
  check_right g j;
  Csr.mem_edge g.csr i (g.nl + j)

let right_neighbors g i =
  check_left g i;
  Iset.of_list
    (Csr.fold_neighbors g.csr i (fun acc v -> (v - g.nl) :: acc) [])

let left_neighbors g j =
  check_right g j;
  Iset.of_list (Array.to_list (Csr.sorted_neighbors g.csr (g.nl + j)))

let iter_edges g f = iter_underlying g (fun i v -> f i (v - g.nl))

let edges g =
  let acc = ref [] in
  iter_edges g (fun i j -> acc := (i, j) :: !acc);
  List.rev !acc

(* Rights live at the top of the index space, so appending a relation
   (at underlying index [nl + nr]) moves no other index, and the new
   node sorts last in each of its attributes' rows. *)
let add_relation g attrs =
  Iset.iter (fun i -> check_left g i) attrs;
  let v = g.nl + g.nr in
  let attrs = Iset.elements attrs in
  edit g ~nr:(g.nr + 1)
    ((v, Array.of_list attrs)
    :: List.map (fun i -> (i, Array.append (row g i) [| v |])) attrs)

(* Removing the last relation drops its row and moves no index; any
   other removal shifts every higher underlying index down by one and
   rebuilds from the renumbered edge stream. *)
let remove_relation g j =
  check_right g j;
  let v = g.nl + j in
  if j = g.nr - 1 then
    edit g ~nr:j
      (List.map (fun i -> (i, remove v (row g i))) (Array.to_list (row g v)))
  else
    stream ~nl:g.nl ~nr:(g.nr - 1) (fun f ->
        iter_underlying g (fun x y ->
            if y <> v then f x (if y > v then y - 1 else y)))

let induced g w =
  (* Renumbering is ascending, exactly as [Ugraph.induced]: every left
     index precedes every right index, so the result is again in
     bipartite layout with members below [nl] as the new lefts. The
     extraction runs over the CSR rows, so slicing one component out of
     a million-node schema costs the component, not the graph. *)
  let ids = Array.of_list (Iset.elements w) in
  let k = Array.length ids in
  let back = Hashtbl.create (max k 1) in
  Array.iteri (fun i v -> Hashtbl.replace back v i) ids;
  let nl' =
    let acc = ref 0 in
    Array.iter (fun v -> if v < g.nl then incr acc) ids;
    !acc
  in
  let sub =
    Csr.of_edge_iter ~n:k (fun f ->
        Array.iteri
          (fun i v ->
            Csr.iter_neighbors g.csr v (fun u ->
                match Hashtbl.find_opt back u with
                | Some j when i < j -> f i j
                | Some _ | None -> ()))
          ids)
  in
  ({ nl = nl'; nr = k - nl'; csr = sub }, ids)

let flip g =
  stream ~nl:g.nr ~nr:g.nl (fun f ->
      iter_underlying g (fun i v -> f (v - g.nl) (g.nr + i)))

let of_ugraph u =
  let n = Ugraph.n u in
  let color = Array.make n (-1) in
  let ok = ref true in
  let bfs s =
    color.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let x = Queue.pop q in
      Iset.iter
        (fun y ->
          if color.(y) = -1 then begin
            color.(y) <- 1 - color.(x);
            Queue.add y q
          end
          else if color.(y) = color.(x) then ok := false)
        (Ugraph.neighbors u x)
    done
  in
  for s = 0 to n - 1 do
    if color.(s) = -1 then
      if Iset.is_empty (Ugraph.neighbors u s) then color.(s) <- 0 else bfs s
  done;
  if not !ok then None
  else begin
    let mapping = Array.make n (L 0) in
    let next_l = ref 0 and next_r = ref 0 in
    for v = 0 to n - 1 do
      if color.(v) = 0 then begin
        mapping.(v) <- L !next_l;
        incr next_l
      end
      else begin
        mapping.(v) <- R !next_r;
        incr next_r
      end
    done;
    let nl = !next_l in
    let under v = match mapping.(v) with L i -> i | R j -> nl + j in
    let g =
      stream ~nl ~nr:!next_r (fun f ->
          Ugraph.fold_edges (fun x y () -> f (under x) (under y)) u ())
    in
    Some (g, mapping)
  end

(* CSR arrays are canonical per graph, so comparing them is structural
   graph equality whatever edit history built either side. *)
let equal a b = a.nl = b.nl && a.nr = b.nr && Csr.equal a.csr b.csr

let pp_node ppf = function
  | L i -> Format.fprintf ppf "L%d" i
  | R j -> Format.fprintf ppf "R%d" j

let pp ppf g =
  Format.fprintf ppf "@[<v>bipartite %d+%d nodes, %d edges" g.nl g.nr (m g);
  List.iter (fun (i, j) -> Format.fprintf ppf "@,  L%d -- R%d" i j) (edges g);
  Format.fprintf ppf "@]"
