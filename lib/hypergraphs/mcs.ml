open Graphs

(* Bitset kernel: every hyperedge becomes a dense bitset once, the
   marked-node set is a single mutable bitset, and each score is one
   allocation-free [inter_card] sweep. The greedy rule (smallest index
   wins ties) is the set-based reference's in the test oracle, so the
   orderings are identical. *)
let edge_order ?start h =
  let q = Hypergraph.n_edges h in
  let nn = Hypergraph.n_nodes h in
  let edge_bits =
    Array.init q (fun i -> Bitset.of_iset ~len:nn (Hypergraph.edge h i))
  in
  let marked = Bitset.create nn in
  let selected = Array.make q false in
  let order = ref [] in
  let select i =
    selected.(i) <- true;
    Bitset.union_into marked edge_bits.(i);
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
        let s = Bitset.inter_card edge_bits.(i) marked in
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

let alpha_acyclic ?start h =
  Join_tree.rip_holds h (edge_order ?start h)

let rip_ordering h =
  let order = edge_order h in
  if Join_tree.rip_holds h order then Some order else None
