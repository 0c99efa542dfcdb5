let default_within g = function
  | Some w -> w
  | None -> Ugraph.nodes g

let bfs ?within g s =
  let w = default_within g within in
  let dist = Array.make (Ugraph.n g) (-1) in
  if Iset.mem s w then begin
    dist.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Iset.iter
        (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        (Ugraph.adj_within g ~within:w u)
    done
  end;
  dist

(* Depth-first sweep that keeps the visited nodes in the set it
   returns: no n-sized array and no scan over all n nodes, so the cost
   is O(|component| log n) however large the graph around [within]. *)
let component ?within g s =
  let inside, nbrs =
    match within with
    | Some w -> (Iset.mem s w, Ugraph.adj_within g ~within:w)
    | None -> (s >= 0 && s < Ugraph.n g, Ugraph.neighbors g)
  in
  let rec go seen = function
    | [] -> seen
    | u :: stack ->
      let seen, stack =
        Iset.fold
          (fun v ((seen, stack) as acc) ->
            if Iset.mem v seen then acc else (Iset.add v seen, v :: stack))
          (nbrs u) (seen, stack)
      in
      go seen stack
  in
  if inside then go (Iset.singleton s) [ s ] else Iset.empty

let components ?within g =
  let w = default_within g within in
  let rec go remaining acc =
    match Iset.min_elt_opt remaining with
    | None -> List.rev acc
    | Some s ->
      let c = component ~within:remaining g s in
      go (Iset.diff remaining c) (c :: acc)
  in
  go w []

let component_ids ?within g =
  let comps = components ?within g in
  let id = Array.make (Ugraph.n g) (-1) in
  List.iteri (fun k c -> Iset.iter (fun v -> id.(v) <- k) c) comps;
  (id, comps)

let is_connected ?within g =
  let w = default_within g within in
  match Iset.min_elt_opt w with
  | None -> true
  | Some s -> Iset.equal (component ~within:w g s) w

let connects ?within g p =
  let w = default_within g within in
  Iset.subset p w
  &&
  match Iset.min_elt_opt p with
  | None -> true
  | Some s -> Iset.subset p (component ~within:w g s)

let component_containing ?within g p =
  let w = default_within g within in
  if not (Iset.subset p w) then None
  else
    match Iset.min_elt_opt p with
    | None -> (
      match Iset.min_elt_opt w with
      | None -> Some Iset.empty
      | Some s -> Some (component ~within:w g s))
    | Some s ->
      let c = component ~within:w g s in
      if Iset.subset p c then Some c else None

let shortest_path ?within g s t =
  let w = default_within g within in
  if not (Iset.mem s w && Iset.mem t w) then None
  else begin
    let parent = Array.make (Ugraph.n g) (-1) in
    let seen = Array.make (Ugraph.n g) false in
    seen.(s) <- true;
    let q = Queue.create () in
    Queue.add s q;
    let found = ref (s = t) in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      Iset.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            parent.(v) <- u;
            if v = t then found := true else Queue.add v q
          end)
        (Ugraph.adj_within g ~within:w u)
    done;
    if not !found then None
    else begin
      let rec build v acc =
        if v = s then s :: acc else build parent.(v) (v :: acc)
      in
      Some (build t [])
    end
  end

let distance ?within g s t =
  let w = default_within g within in
  if not (Iset.mem s w) then None
  else
    let d = (bfs ~within:w g s).(t) in
    if d < 0 then None else Some d

let all_pairs_distances g =
  Array.init (Ugraph.n g) (fun s -> bfs g s)
