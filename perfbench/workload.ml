(* The three workloads and their seeded inputs.

   Each workload is one [Gen_scale] instance at n ~ 10^5 (a disjoint
   union of ~10-node blocks of one chordality class), a mix of
   in-block terminal-set queries with their brute-force optima, and a
   mix of self-cancelling schema deltas on blocks no query touches.
   Everything here is a pure function of (workload, n, seed): the
   launcher and the load generator rebuild the same schema and name
   tables independently, and the server only ever sees the generated
   request bodies. *)

open Graphs
module Gen_scale = Workloads.Gen_scale
module Bigraph = Bipartite.Bigraph
module Parse = Mc_io.Parse

type spec = {
  name : string;
  family : Gen_scale.family;
  warm : bool;  (** plan cache filled in the untimed preparation step *)
  why : string;
}

let all =
  [
    {
      name = "cold-chordal62";
      family = Gen_scale.Chordal62;
      warm = false;
      why =
        "empty plan cache, so setup compiles and classify dominates it; \
         queries run the Algorithm 2 rung";
    };
    {
      name = "warm-forest";
      family = Gen_scale.Forest;
      warm = true;
      why =
        "pre-filled plan cache, so setup is a plan load that bypasses \
         classify; queries run the forest rung's traversals";
    };
    {
      name = "evolve-alpha";
      family = Gen_scale.Alpha;
      warm = true;
      why =
        "cheap component-scoped queries between schema-delta blocks, so \
         /solve is mostly the serving path and the rebase after a delta";
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let default_n = 100_000

(* ------------------------------------------------------------ schema *)

let named g =
  {
    Parse.graph = g;
    left_names = Array.init (Bigraph.nl g) (Printf.sprintf "a%d");
    right_names = Array.init (Bigraph.nr g) (Printf.sprintf "r%d");
  }

let instance spec ~n ~seed = Gen_scale.make spec.family ~target_n:n ~seed

let schema gen = named (Gen_scale.to_bigraph gen)

(* The block of [v]: blocks are exactly the connected components. *)
let component g v =
  let c = Bigraph.csr g in
  let seen = Hashtbl.create 32 in
  let rec go acc = function
    | [] -> acc
    | u :: rest ->
      let next = ref rest in
      Csr.iter_neighbors c u (fun w ->
          if not (Hashtbl.mem seen w) then begin
            Hashtbl.replace seen w ();
            next := w :: !next
          end);
      go (Iset.add u acc) !next
  in
  Hashtbl.replace seen v ();
  go Iset.empty [ v ]

(* ----------------------------------------------------------- queries *)

type query = {
  block : int;
  p : Iset.t;  (** terminals, underlying indices *)
  names : string list;
  body : string;  (** the [/solve] request body *)
  optimum : int;  (** minimum node count, by exhaustive search *)
}

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(* The block holding the terminals [p] as a graph of its own, and [p]
   renumbered into it. *)
let block_graph g p =
  let sub, ids = Bigraph.induced g (component g (Iset.min_elt p)) in
  let back = Hashtbl.create 32 in
  Array.iteri (fun i v -> Hashtbl.replace back v i) ids;
  (Bigraph.ugraph sub, Iset.map (Hashtbl.find back) p)

(* Minimum Steiner node count on the block's induced subgraph: blocks
   have at most ~17 nodes, so subset enumeration is cheap, and the
   optimum does not depend on which solver rung the server picks. *)
let brute_optimum g p =
  let sub, p' = block_graph g p in
  match Steiner.Brute.steiner sub ~terminals:p' with
  | Some t -> Steiner.Tree.node_count t
  | None -> failwith "brute_optimum: terminals disconnected"

(* [count] queries on seeded random blocks outside [reserved] (the
   delta blocks), k = 2..5 terminals each. *)
let queries gen nb ~seed ~count ~reserved =
  let st = rng ~seed ~salt:0x51 in
  let blocks = Gen_scale.n_blocks gen in
  Array.init count (fun _ ->
      let rec draw () =
        let block = Random.State.int st blocks in
        let k = 2 + Random.State.int st 4 in
        let p = Gen_scale.block_terminals gen ~block ~k in
        if Iset.cardinal p >= 2 && not (List.mem block reserved) then (block, p)
        else draw ()
      in
      let block, p = draw () in
      let names = List.map (Serve.Render.name_of nb) (Iset.elements p) in
      {
        block;
        p;
        names;
        body = String.concat "," names;
        optimum = brute_optimum nb.Parse.graph p;
      })

(* ------------------------------------------------------------ deltas *)

type delta = { text : string  (** a whole delta file: one directive *) }

let delta_file line = { text = "deltas\n" ^ line ^ "\n" }

(* A left node of degree one and its only relation. Every block family
   has one (forest: the chain's first attribute; chordal62: a private
   attribute of R2; alpha: attribute 3 of R1), and cutting or
   re-adding that edge, or hanging a one-attribute relation off it,
   creates no cycle — so the deltas never change any block's class. *)
let pendant g comp =
  let c = Bigraph.csr g in
  let nl = Bigraph.nl g in
  Iset.fold
    (fun v acc ->
      match acc with
      | Some _ -> acc
      | None ->
        if v < nl && Csr.degree c v = 1 then
          Some (v, (Csr.sorted_neighbors c v).(0) - nl)
        else None)
    comp None

(* [count] distinct seeded random blocks for the delta mix; the
   queries keep off them. *)
let delta_blocks gen ~seed ~count =
  let st = rng ~seed ~salt:0xde17a in
  let n_blocks = Gen_scale.n_blocks gen in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let b = Random.State.int st n_blocks in
      if List.mem b acc then draw acc k else draw (b :: acc) (k - 1)
  in
  draw [] (min count (n_blocks / 2))

(* One self-cancelling sequence per block, on blocks disjoint from the
   query blocks:
   nine [-edge]/[+edge] pairs of a pendant edge, then one
   [+relation]/[-relation] pair of a fresh relation — the appended,
   last one, so its removal never renumbers an interior relation.
   Each sequence returns the schema to where it began, so any
   concatenation of whole sequences applies to the generated schema.

   Relation deltas cost several times what edge deltas do, so the
   latency distribution has two modes. With one relation delta in ten
   the median sits well inside the edge mode and the p95 near the
   middle of the relation mode; a split near even would put a
   percentile on the gap between the modes, where it jumps from run
   to run. *)
let deltas gen nb ~blocks =
  let g = nb.Parse.graph in
  blocks
  |> List.map (fun b ->
         let v = Iset.min_elt (Gen_scale.block_terminals gen ~block:b ~k:1) in
         match pendant g (component g v) with
         | None -> failwith "deltas: block without a pendant attribute"
         | Some (i, j) ->
           let a = nb.Parse.left_names.(i) and r = nb.Parse.right_names.(j) in
           let cut = delta_file (Printf.sprintf "-edge %s %s" a r)
           and restore = delta_file (Printf.sprintf "+edge %s %s" a r) in
           List.concat (List.init 9 (fun _ -> [ cut; restore ]))
           @ [
               delta_file (Printf.sprintf "+relation rx %s" a);
               delta_file "-relation rx";
             ]
           |> Array.of_list)
  |> Array.of_list
