(* Compressed sparse row adjacency: one flat [col] array holding every
   neighbor list back to back, delimited by [row]. Built once — from a
   {!Ugraph} or directly from an edge stream — and then read-only, so
   traversals are cache-friendly and membership is a binary search
   instead of a balanced-tree descent. *)

type t = { n : int; m : int; row : int array; col : int array }

let cmp_int (a : int) (b : int) = compare a b

let check_edge n u v =
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Csr: node out of range";
  if u = v then invalid_arg "Csr: self-loop"

(* Direct two-pass construction over a replayable edge stream: pass 1
   counts degrees, pass 2 fills the rows, then each row is sorted and
   deduplicated in place. No per-node set is ever materialised — the
   working state is three int arrays — which is what makes million-node
   construction cheap. The stream must replay identically (the builder
   below and the workload generators both guarantee this). *)
let of_edge_iter ~n iter =
  if n < 0 then invalid_arg "Csr.of_edge_iter: negative size";
  let row = Array.make (n + 1) 0 in
  iter (fun u v ->
      check_edge n u v;
      row.(u + 1) <- row.(u + 1) + 1;
      row.(v + 1) <- row.(v + 1) + 1);
  for u = 1 to n do
    row.(u) <- row.(u) + row.(u - 1)
  done;
  let total = row.(n) in
  let col = Array.make total 0 in
  let cursor = Array.sub row 0 (max n 1) in
  iter (fun u v ->
      col.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      col.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1);
  for u = 0 to n - 1 do
    if cursor.(u) <> row.(u + 1) then
      invalid_arg "Csr.of_edge_iter: stream changed between passes"
  done;
  (* Sort each row, then compact duplicates in place: the write cursor
     never overtakes the read position, so one [col] array suffices.
     Short rows — the common case in the bounded-degree scale
     workloads — are insertion-sorted directly inside [col], so the
     whole sorting pass allocates nothing; only genuinely long rows pay
     for a scratch copy and the general-purpose sort. *)
  for u = 0 to n - 1 do
    let s = row.(u) and e = row.(u + 1) in
    if e - s > 1 then
      if e - s <= 32 then
        for k = s + 1 to e - 1 do
          let v = col.(k) in
          let j = ref (k - 1) in
          while !j >= s && col.(!j) > v do
            col.(!j + 1) <- col.(!j);
            decr j
          done;
          col.(!j + 1) <- v
        done
      else begin
        let tmp = Array.sub col s (e - s) in
        Array.sort cmp_int tmp;
        Array.blit tmp 0 col s (e - s)
      end
  done;
  let out_row = Array.make (n + 1) 0 in
  let w = ref 0 in
  for u = 0 to n - 1 do
    out_row.(u) <- !w;
    let prev = ref min_int in
    for k = row.(u) to row.(u + 1) - 1 do
      let v = col.(k) in
      if v <> !prev then begin
        col.(!w) <- v;
        incr w;
        prev := v
      end
    done
  done;
  out_row.(n) <- !w;
  let col = if !w = total then col else Array.sub col 0 !w in
  { n; m = !w / 2; row = out_row; col }

let of_edges ~n edges =
  of_edge_iter ~n (fun f -> List.iter (fun (u, v) -> f u v) edges)

(* Growable flat edge buffer feeding the two-pass build: the only
   allocation per edge is the occasional doubling, so streaming a
   million edges through it stays a few flat arrays end to end. *)
module Builder = struct
  type t = {
    bn : int;
    mutable len : int;
    mutable src : int array;
    mutable dst : int array;
  }

  let create ?(hint = 16) bn =
    if bn < 0 then invalid_arg "Csr.Builder.create: negative size";
    let cap = max hint 1 in
    { bn; len = 0; src = Array.make cap 0; dst = Array.make cap 0 }

  let add_edge b u v =
    check_edge b.bn u v;
    if b.len = Array.length b.src then begin
      let cap = 2 * b.len in
      let src = Array.make cap 0 and dst = Array.make cap 0 in
      Array.blit b.src 0 src 0 b.len;
      Array.blit b.dst 0 dst 0 b.len;
      b.src <- src;
      b.dst <- dst
    end;
    b.src.(b.len) <- u;
    b.dst.(b.len) <- v;
    b.len <- b.len + 1

  let length b = b.len

  let build b =
    of_edge_iter ~n:b.bn (fun f ->
        for k = 0 to b.len - 1 do
          f b.src.(k) b.dst.(k)
        done)
end

let of_ugraph g =
  let n = Ugraph.n g in
  let row = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row.(u + 1) <- row.(u) + Ugraph.degree g u
  done;
  let col = Array.make row.(n) 0 in
  let cursor = Array.copy row in
  for u = 0 to n - 1 do
    (* Iset.iter is ascending, so each row comes out sorted. *)
    Iset.iter
      (fun v ->
        col.(cursor.(u)) <- v;
        cursor.(u) <- cursor.(u) + 1)
      (Ugraph.neighbors g u)
  done;
  { n; m = Ugraph.m g; row; col }

let n t = t.n
let m t = t.m
let rows t = t.row
let cols t = t.col

(* Index of [v] in the ascending array [ids], or -1. *)
let local_index ids v =
  let lo = ref 0 and hi = ref (Array.length ids - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = ids.(mid) in
    if w = v then found := mid
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* Two passes over the member rows — count, then fill — with every
   neighbor renumbered by binary search in [ids]. The renumbering is
   monotone, so each row comes out ascending without a sort. *)
let induced t ids =
  let k = Array.length ids in
  let row = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    let u = ids.(i) in
    if u < 0 || u >= t.n || (i > 0 && ids.(i - 1) >= u) then
      invalid_arg "Csr.induced: ids must be ascending and in range";
    let d = ref 0 in
    for p = t.row.(u) to t.row.(u + 1) - 1 do
      if local_index ids t.col.(p) >= 0 then incr d
    done;
    row.(i + 1) <- row.(i) + !d
  done;
  let col = Array.make row.(k) 0 in
  let w = ref 0 in
  for i = 0 to k - 1 do
    let u = ids.(i) in
    for p = t.row.(u) to t.row.(u + 1) - 1 do
      let j = local_index ids t.col.(p) in
      if j >= 0 then begin
        col.(!w) <- j;
        incr w
      end
    done
  done;
  { n = k; m = row.(k) / 2; row; col }

let of_ugraph_within g within =
  let ids = Array.of_list (Iset.elements within) in
  let k = Array.length ids in
  let row = Array.make (k + 1) 0 in
  let local =
    Array.map (fun u -> Iset.inter (Ugraph.neighbors g u) within) ids
  in
  Array.iteri (fun i s -> row.(i + 1) <- row.(i) + Iset.cardinal s) local;
  let col = Array.make row.(k) 0 in
  Array.iteri
    (fun i s ->
      let w = ref row.(i) in
      Iset.iter
        (fun v ->
          col.(!w) <- local_index ids v;
          incr w)
        s)
    local;
  ({ n = k; m = row.(k) / 2; row; col }, ids)

let row_valid n u r =
  let ok = ref true in
  Array.iteri
    (fun k v ->
      if v < 0 || v >= n || v = u || (k > 0 && r.(k - 1) >= v) then
        ok := false)
    r;
  !ok

(* Binary search for [v] in [col.(lo .. hi - 1)]. *)
let mem_sorted col lo hi v =
  let lo = ref lo and hi = ref (hi - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = col.(mid) in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* A few rows change and the rest move as whole runs: one blit per run
   of untouched rows plus a shifted copy of their offsets, so an edit
   costs two array copies instead of a per-edge rebuild. Symmetry is
   checked on the changed rows only, which suffices: an asymmetric pair
   of the result has a changed endpoint, since [t] was symmetric. *)
let replace_rows t ~n rows =
  if n < 0 then invalid_arg "Csr.replace_rows: negative size";
  let rows = List.sort (fun (a, _) (b, _) -> Int.compare a b) rows in
  let rec check_rows = function
    | (u, _) :: ((u', _) :: _ as rest) ->
      if u = u' then invalid_arg "Csr.replace_rows: duplicate row";
      check_rows rest
    | _ -> ()
  in
  check_rows rows;
  List.iter
    (fun (u, r) ->
      if u < 0 || u >= n || not (row_valid n u r) then
        invalid_arg "Csr.replace_rows: invalid row")
    rows;
  let old_len u = if u < t.n then t.row.(u + 1) - t.row.(u) else 0 in
  let total =
    List.fold_left
      (fun acc (u, r) -> acc - old_len u + Array.length r)
      t.row.(min n t.n) rows
  in
  let row = Array.make (n + 1) 0 and col = Array.make total 0 in
  let w = ref 0 in
  (* Rows [lo .. hi - 1] unchanged: [t]'s rows, empty past [t.n]. *)
  let copy_run lo hi =
    let top = max lo (min hi t.n) in
    if lo < top then begin
      let shift = !w - t.row.(lo) in
      for u = lo to top - 1 do
        row.(u) <- t.row.(u) + shift
      done;
      let len = t.row.(top) - t.row.(lo) in
      Array.blit t.col t.row.(lo) col !w len;
      w := !w + len
    end;
    for u = top to hi - 1 do
      row.(u) <- !w
    done
  in
  let next =
    List.fold_left
      (fun lo (u, r) ->
        copy_run lo u;
        row.(u) <- !w;
        Array.blit r 0 col !w (Array.length r);
        w := !w + Array.length r;
        u + 1)
      0 rows
  in
  copy_run next n;
  row.(n) <- !w;
  (* Every edge [t] had at a changed or dropped row [u] must be gone
     from the other endpoint too, and every edge of a changed row must
     be present there. *)
  let has u v = mem_sorted col row.(u) row.(u + 1) v in
  let asymmetric () = invalid_arg "Csr.replace_rows: asymmetric" in
  let check_old u =
    if u < t.n then
      for k = t.row.(u) to t.row.(u + 1) - 1 do
        let v = t.col.(k) in
        if v < n && (u >= n || not (has u v)) && has v u then asymmetric ()
      done
  in
  List.iter
    (fun (u, r) ->
      Array.iter (fun v -> if not (has v u) then asymmetric ()) r;
      check_old u)
    rows;
  for u = n to t.n - 1 do
    check_old u
  done;
  { n; m = total / 2; row; col }

let check t u =
  if u < 0 || u >= t.n then invalid_arg "Csr: node out of range"

let degree t u =
  check t u;
  t.row.(u + 1) - t.row.(u)

let sorted_neighbors t u =
  check t u;
  Array.sub t.col t.row.(u) (t.row.(u + 1) - t.row.(u))

let iter_neighbors t u f =
  check t u;
  for k = t.row.(u) to t.row.(u + 1) - 1 do
    f t.col.(k)
  done

let fold_neighbors t u f acc =
  check t u;
  let acc = ref acc in
  for k = t.row.(u) to t.row.(u + 1) - 1 do
    acc := f !acc t.col.(k)
  done;
  !acc

let mem_edge t u v =
  check t u;
  check t v;
  mem_sorted t.col t.row.(u) t.row.(u + 1) v

let adj_within t within u =
  check t u;
  if Bitset.length within <> t.n then invalid_arg "Csr.adj_within: length";
  let out = Bitset.create t.n in
  for k = t.row.(u) to t.row.(u + 1) - 1 do
    let v = t.col.(k) in
    if Bitset.mem within v then Bitset.add out v
  done;
  out

let degree_within t within u =
  check t u;
  let acc = ref 0 in
  for k = t.row.(u) to t.row.(u + 1) - 1 do
    if Bitset.mem within t.col.(k) then incr acc
  done;
  !acc

(* Rows are sorted and duplicate-free, so each adjacency set can be
   assembled by [Iset.of_list] on an already-sorted list and handed to
   the trusted [Ugraph.of_adjacency] constructor: linear in n + m
   instead of an AVL insertion per directed edge. *)
let to_ugraph t =
  let adj =
    Array.init t.n (fun u ->
        Iset.of_list
          (Array.to_list (Array.sub t.col t.row.(u) (t.row.(u + 1) - t.row.(u)))))
  in
  Ugraph.of_adjacency adj ~m:t.m

let equal a b = a.n = b.n && a.m = b.m && a.row = b.row && a.col = b.col

(* Flat component labelling: one array-based BFS sweep over the rows,
   no per-component distance arrays or set differences, so a graph made
   of many small components is labelled in O(n + m) total. Components
   are numbered by ascending minimum element — the same order
   [Traverse.component_ids] produces. *)
let component_ids t =
  let id = Array.make t.n (-1) in
  let queue = Array.make (max t.n 1) 0 in
  let k = ref 0 in
  for s = 0 to t.n - 1 do
    if id.(s) < 0 then begin
      let cid = !k in
      incr k;
      id.(s) <- cid;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        for p = t.row.(u) to t.row.(u + 1) - 1 do
          let v = t.col.(p) in
          if id.(v) < 0 then begin
            id.(v) <- cid;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done
    end
  done;
  let acc = Array.make (max !k 1) [] in
  for v = t.n - 1 downto 0 do
    acc.(id.(v)) <- v :: acc.(id.(v))
  done;
  (id, List.init !k (fun c -> Iset.of_list acc.(c)))
