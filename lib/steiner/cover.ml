open Graphs

let is_cover g ~p nodes =
  Iset.subset p nodes && Traverse.is_connected ~within:nodes g

let is_nonredundant_cover g ~p nodes =
  is_cover g ~p nodes
  && Iset.for_all (fun v -> not (is_cover g ~p (Iset.remove v nodes))) nodes

let is_side_nonredundant_cover g ~p ~side nodes =
  is_cover g ~p nodes
  && Iset.for_all
       (fun v -> not (is_cover g ~p (Iset.remove v nodes)))
       (Iset.inter nodes side)

let subsets_of ?(ascending = false) set =
  let elements = Array.of_list (Iset.elements set) in
  let k = Array.length elements in
  if k > 22 then invalid_arg "Cover: brute-force subset enumeration too large";
  let all = ref [] in
  for mask = 0 to (1 lsl k) - 1 do
    let s = ref Iset.empty in
    for b = 0 to k - 1 do
      if mask land (1 lsl b) <> 0 then s := Iset.add elements.(b) !s
    done;
    all := !s :: !all
  done;
  let l = List.rev !all in
  if ascending then
    List.sort (fun a b -> compare (Iset.cardinal a) (Iset.cardinal b)) l
  else l

let nonredundant_covers_brute g ~within ~p =
  let optional = Iset.diff within p in
  subsets_of optional
  |> List.filter_map (fun extra ->
         let nodes = Iset.union p extra in
         if is_nonredundant_cover g ~p nodes then Some nodes else None)

let minimum_cover_size_brute g ~within ~p =
  let optional = Iset.diff within p in
  let rec first = function
    | [] -> None
    | extra :: rest ->
      let nodes = Iset.union p extra in
      if is_cover g ~p nodes then Some (Iset.cardinal nodes)
      else first rest
  in
  first (subsets_of ~ascending:true optional)

let side_minimum_brute g ~within ~p ~side =
  let all_covers =
    subsets_of (Iset.diff within p)
    |> List.filter_map (fun extra ->
           let nodes = Iset.union p extra in
           if is_cover g ~p nodes then
             Some (Iset.cardinal (Iset.inter nodes side))
           else None)
  in
  match all_covers with
  | [] -> None
  | l -> Some (List.fold_left min max_int l)

(* The elimination over a flat adjacency, every node initially in the
   cover: [alive] marks the current cover, and each candidate removal is
   tested by one BFS over the alive nodes with an epoch-stamped visited
   array, so a pass allocates nothing. [feasible = false] (some terminal
   lies outside the graph) makes every candidate fail, as [is_cover]
   does on the set-based path. *)
let eliminate_local ?(budget = Runtime.Budget.unlimited)
    ?(steps = Observe.Metrics.inert) ?(once = false) ?(feasible = true) c
    ~order ~terminal =
  let k = Csr.n c in
  let row = Csr.rows c and col = Csr.cols c in
  let alive = Array.make k true and size = ref k in
  let stamp = Array.make k 0 and epoch = ref 0 in
  let queue = Array.make (max k 1) 0 in
  let connected () =
    if !size = 0 then true
    else begin
      incr epoch;
      let s = ref 0 in
      while not alive.(!s) do
        incr s
      done;
      stamp.(!s) <- !epoch;
      queue.(0) <- !s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        for p = row.(u) to row.(u + 1) - 1 do
          let v = col.(p) in
          if alive.(v) && stamp.(v) <> !epoch then begin
            stamp.(v) <- !epoch;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done;
      !tail = !size
    end
  in
  let pass () =
    let changed = ref false in
    Array.iter
      (fun v ->
        if (not terminal.(v)) && alive.(v) then begin
          Runtime.Budget.check budget;
          Observe.Metrics.incr steps;
          alive.(v) <- false;
          decr size;
          if feasible && connected () then changed := true
          else begin
            alive.(v) <- true;
            incr size
          end
        end)
      order;
    !changed
  in
  (* One pass in the given order is not enough for nonredundancy: a
     node may be kept only because it connects a non-terminal that is
     itself deleted later in the pass (covers must be connected as a
     whole, Definition 10). Re-scan until a fixpoint, as Theorem 5's
     claim that Step 1 yields a nonredundant cover requires. *)
  if once then ignore (pass () : bool) else while pass () do () done;
  alive

let eliminate ~once ?order ?budget ?steps g ~within ~p =
  let c, ids = Csr.of_ugraph_within g within in
  let order =
    match order with Some o -> o | None -> Iset.elements within
  in
  let order =
    Array.of_list
      (List.filter_map
         (fun v ->
           let i = Csr.local_index ids v in
           if i >= 0 then Some i else None)
         order)
  in
  let terminal = Array.map (fun v -> Iset.mem v p) ids in
  let alive =
    eliminate_local ?budget ?steps ~once ~feasible:(Iset.subset p within) c
      ~order ~terminal
  in
  let out = ref Iset.empty in
  Array.iteri (fun i v -> if alive.(i) then out := Iset.add v !out) ids;
  !out

let eliminate_redundant_once ?order ?budget ?steps g ~within ~p =
  eliminate ~once:true ?order ?budget ?steps g ~within ~p

let eliminate_redundant ?order ?budget ?steps g ~within ~p =
  eliminate ~once:false ?order ?budget ?steps g ~within ~p

let is_nonredundant_path g path =
  match path with
  | [] -> false
  | [ _ ] -> true
  | first :: _ ->
    let last = List.nth path (List.length path - 1) in
    let p = Iset.add first (Iset.singleton last) in
    is_nonredundant_cover g ~p (Iset.of_list path)

let all_paths ?max_len g s t =
  let bound = match max_len with Some b -> b | None -> Ugraph.n g in
  let acc = ref [] in
  let on_path = Array.make (Ugraph.n g) false in
  let rec extend path len last =
    if last = t then acc := List.rev path :: !acc
    else if len < bound then
      Iset.iter
        (fun v ->
          if not on_path.(v) then begin
            on_path.(v) <- true;
            extend (v :: path) (len + 1) v;
            on_path.(v) <- false
          end)
        (Ugraph.neighbors g last)
  in
  on_path.(s) <- true;
  extend [ s ] 1 s;
  on_path.(s) <- false;
  !acc

let nonredundant_nonminimum_pair g =
  let n = Ugraph.n g in
  let result = ref None in
  for s = 0 to n - 1 do
    for t = s + 1 to n - 1 do
      if !result = None then
        match Traverse.distance g s t with
        | None -> ()
        | Some d ->
          let witness =
            List.find_opt
              (fun path ->
                List.length path - 1 > d && is_nonredundant_path g path)
              (all_paths g s t)
          in
          (match witness with
          | Some path -> result := Some (s, t, path)
          | None -> ())
    done
  done;
  !result
