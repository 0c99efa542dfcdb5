(* Set-based reference twins of the flat CSR/bitset kernels. Each one
   takes the same greedy rule and tie-breaking as its kernel, so
   test/test_kernels.ml asserts identical results (orders element for
   element, witnesses triple for triple), and the bench's kernels
   section times the pair. *)

open Graphs
open Hypergraphs

let default_within g = function Some w -> w | None -> Ugraph.nodes g

(* ---------------------------------------------------- LexBFS and MCS *)

(* Generic greedy search: repeatedly pick an unvisited node with the
   best label (ties broken by smallest id), then let each unvisited
   neighbor absorb the visit timestamp into its label. LexBFS compares
   timestamp lists lexicographically; MCS compares their lengths. *)
let greedy_order ~better ?within ?start g =
  let w = default_within g within in
  let labels = Hashtbl.create 16 in
  let label v =
    match Hashtbl.find_opt labels v with Some l -> l | None -> []
  in
  let visited = Array.make (Ugraph.n g) false in
  let order = ref [] in
  let pick () =
    Iset.fold
      (fun v acc ->
        if visited.(v) then acc
        else
          match acc with
          | None -> Some v
          | Some u -> if better (label v) (label u) then Some v else Some u)
      w None
  in
  let visit time v =
    visited.(v) <- true;
    order := v :: !order;
    Iset.iter
      (fun u ->
        if not visited.(u) then Hashtbl.replace labels u (label u @ [ time ]))
      (Ugraph.adj_within g ~within:w v)
  in
  (match start with
  | Some s when Iset.mem s w -> visit 0 s
  | Some _ | None -> ());
  let time = ref (List.length !order) in
  let rec loop () =
    match pick () with
    | None -> ()
    | Some v ->
      visit !time v;
      incr time;
      loop ()
  in
  loop ();
  List.rev !order

(* Labels are increasing timestamp lists (earliest visited neighbor
   first). The LexBFS rule treats earlier timestamps as lexicographically
   greater symbols, and a proper extension of a label beats the label. *)
let rec lex_gt a b =
  match (a, b) with
  | [], _ -> false
  | _ :: _, [] -> true
  | x :: a', y :: b' -> x < y || (x = y && lex_gt a' b')

let lexbfs_order_sets ?within ?start g =
  greedy_order ~better:lex_gt ?within ?start g

let mcs_order_sets ?within ?start g =
  let better a b = List.length a > List.length b in
  greedy_order ~better ?within ?start g

(* -------------------------------------------------------- Chordality *)

let is_perfect_elimination_order_sets ?within g order =
  let w = default_within g within in
  let pos = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) order;
  Iset.equal w (Iset.of_list order)
  && List.length order = Iset.cardinal w
  && List.for_all
       (fun v ->
         let i = Hashtbl.find pos v in
         let later =
           Iset.filter
             (fun u -> Hashtbl.find pos u > i)
             (Ugraph.adj_within g ~within:w v)
         in
         match Iset.min_elt_opt later with
         | None -> true
         | Some _ ->
           (* The earliest later neighbor must see all the others; this
              suffices by induction (Rose–Tarjan–Lueker). *)
           let parent =
             Iset.fold
               (fun u best ->
                 if Hashtbl.find pos u < Hashtbl.find pos best then u
                 else best)
               later (Iset.max_elt later)
           in
           Iset.subset
             (Iset.remove parent later)
             (Ugraph.adj_within g ~within:w parent))
       order

let is_chordal_sets ?within g =
  let w = default_within g within in
  let candidate = List.rev (lexbfs_order_sets ~within:w g) in
  is_perfect_elimination_order_sets ~within:w g candidate

(* ------------------------------------------------- Cycle/chord scan *)

(* Full cycle enumeration with chords counted per cycle. *)
let exists_cycle_with_few_chords_sets g ~min_len ~max_chords =
  let exception Found in
  try
    Cycles.iter_simple_cycles ~min_len g (fun c ->
        if List.length (Cycles.chords g c) <= max_chords then raise Found);
    false
  with Found -> true

(* ----------------------------------------------------- Hypergraphs *)

let gilmore_violation_sets h =
  let q = Hypergraph.n_edges h in
  let e = Hypergraph.edge h in
  let contained_in_some s =
    let rec go i = i < q && (Iset.subset s (e i) || go (i + 1)) in
    go 0
  in
  let result = ref None in
  for i = 0 to q - 1 do
    for j = i + 1 to q - 1 do
      for k = j + 1 to q - 1 do
        if !result = None then begin
          let s =
            Iset.union
              (Iset.inter (e i) (e j))
              (Iset.union (Iset.inter (e j) (e k)) (Iset.inter (e i) (e k)))
          in
          if not (contained_in_some s) then result := Some (i, j, k)
        end
      done
    done
  done;
  !result

let edge_order_sets ?start h =
  let q = Hypergraph.n_edges h in
  let selected = Array.make q false in
  let marked = ref Iset.empty in
  let order = ref [] in
  let score i = Iset.cardinal (Iset.inter (Hypergraph.edge h i) !marked) in
  let select i =
    selected.(i) <- true;
    marked := Iset.union !marked (Hypergraph.edge h i);
    order := i :: !order
  in
  (match start with
  | Some i when i >= 0 && i < q -> select i
  | Some _ -> invalid_arg "Mcs.edge_order: start out of range"
  | None -> ());
  let rec loop () =
    let best = ref (-1) and best_score = ref (-1) in
    for i = 0 to q - 1 do
      if not selected.(i) then begin
        let s = score i in
        if s > !best_score then begin
          best := i;
          best_score := s
        end
      end
    done;
    if !best >= 0 then begin
      select !best;
      loop ()
    end
  in
  loop ();
  List.rev !order

(* ------------------------------------------------------- Algorithm 1 *)

(* Step 2 on sets: scan W and delete each right node with its private
   left neighbors while the remainder still covers the terminals,
   re-scanning to a fixpoint. *)
let eliminate_sets u ~comp ~p w_order =
  let step current v =
    if not (Iset.mem v current) then current
    else begin
      let doomed = Iset.add v (Ugraph.private_neighbors u ~within:current v) in
      if not (Iset.is_empty (Iset.inter doomed p)) then current
      else
        let candidate = Iset.diff current doomed in
        if Steiner.Cover.is_cover u ~p candidate then candidate else current
    end
  in
  let rec fixpoint current =
    let next = List.fold_left step current w_order in
    if Iset.equal next current then current else fixpoint next
  in
  fixpoint comp

(* Algorithm 1 with the set-based elimination and the set-based
   spanning tree ([Tree.of_node_set]), around the library's Step 1
   ([Algorithm1.prepare]). *)
let solve_sets g ~p =
  let open Steiner.Algorithm1 in
  let u = Bipartite.Bigraph.ugraph g in
  let nl = Bipartite.Bigraph.nl g in
  let v2_count nodes = Iset.cardinal (Iset.filter (fun v -> v >= nl) nodes) in
  match Traverse.component_containing u p with
  | None -> Error Disconnected_terminals
  | Some comp when Iset.cardinal comp <= 1 ->
    Ok
      {
        tree = { Steiner.Tree.nodes = comp; edges = [] };
        v2_count = v2_count comp;
        elimination_order = [];
      }
  | Some comp -> (
    match prepare g ~comp with
    | Error e -> Error e
    | Ok prep -> (
      let survivors = eliminate_sets u ~comp ~p (prep_order prep) in
      match Steiner.Tree.of_node_set u survivors with
      | Some tree ->
        Ok
          {
            tree;
            v2_count = v2_count tree.Steiner.Tree.nodes;
            elimination_order = prep_order prep;
          }
      | None -> Error Disconnected_terminals))
