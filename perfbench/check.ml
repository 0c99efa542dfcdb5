(* The answer checker. A [/solve] body must be the canonical solution
   block ([method: ...], [tree nodes (K): ...], one [  x -- y] line
   per edge) describing a tree that uses only schema edges, contains
   every terminal, and has exactly the brute-force optimum node count.
   A [/schema/delta] reply must be 200 and must not have fallen back
   to recompiling every component. *)

open Graphs
module Bigraph = Bipartite.Bigraph
module Parse = Mc_io.Parse

(* Name -> underlying index over the original schema. Query blocks are
   never touched by the delta mix, so their names and edges stay valid
   while the schema evolves elsewhere. *)
type index = { nb : Parse.named_bigraph; ids : (string, int) Hashtbl.t }

let index (nb : Parse.named_bigraph) =
  let nl = Array.length nb.Parse.left_names in
  let ids = Hashtbl.create (nl + Array.length nb.Parse.right_names) in
  Array.iteri (fun i s -> Hashtbl.replace ids s i) nb.Parse.left_names;
  Array.iteri (fun j s -> Hashtbl.replace ids s (nl + j)) nb.Parse.right_names;
  { nb; ids }

let ( let* ) = Result.bind

let resolve ix name =
  match Hashtbl.find_opt ix.ids name with
  | Some v -> Ok v
  | None -> Error ("unknown node " ^ name)

let rec all_ok f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = all_ok f xs in
    Ok (y :: ys)

let schema_edge ix x y =
  let nl = Bigraph.nl ix.nb.Parse.graph in
  let l, r = if x < nl then (x, y) else (y, x) in
  l < nl && r >= nl && Bigraph.mem_edge ix.nb.Parse.graph l (r - nl)

let parse_header line =
  match (String.index_opt line ')', String.index_opt line ':') with
  | Some p, Some c
    when p < c && String.length line > 12 && String.sub line 0 12 = "tree nodes (" ->
    let k = String.sub line 12 (p - 12) in
    let rest = String.sub line (c + 1) (String.length line - c - 1) in
    let names =
      String.split_on_char ',' rest |> List.map String.trim
      |> List.filter (( <> ) "")
    in
    (match int_of_string_opt k with
    | Some k -> Ok (k, names)
    | None -> Error "bad node count")
  | _ -> Error ("bad tree header: " ^ line)

let parse_edge line =
  let s = String.trim line in
  match String.split_on_char ' ' s with
  | [ a; "--"; b ] -> Ok (a, b)
  | _ -> Error ("bad edge line: " ^ line)

(* Union-find connectivity over the listed nodes. *)
let connected nodes edges =
  let parent = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace parent v v) nodes;
  let rec root v =
    let p = Hashtbl.find parent v in
    if p = v then v else root p
  in
  List.iter
    (fun (x, y) -> Hashtbl.replace parent (root x) (root y))
    edges;
  match nodes with
  | [] -> true
  | v :: _ ->
    let r = root v in
    List.for_all (fun u -> root u = r) nodes

let solve_answer ix (q : Workload.query) body =
  match String.split_on_char '\n' body |> List.filter (( <> ) "") with
  | meth :: header :: edge_lines
    when String.length meth > 8 && String.sub meth 0 8 = "method: " ->
    let* k, names = parse_header header in
    let* nodes = all_ok (resolve ix) names in
    let* edges =
      all_ok
        (fun l ->
          let* a, b = parse_edge l in
          let* x = resolve ix a in
          let* y = resolve ix b in
          Ok (x, y))
        edge_lines
    in
    let set = Iset.of_list nodes in
    if k <> List.length nodes || Iset.cardinal set <> k then
      Error "node count does not match the listed nodes"
    else if not (Iset.subset q.Workload.p set) then
      Error "a terminal is missing from the tree"
    else if
      not
        (List.for_all
           (fun (x, y) -> Iset.mem x set && Iset.mem y set && schema_edge ix x y)
           edges)
    then Error "an edge is not a schema edge between tree nodes"
    else if List.length edges <> k - 1 || not (connected nodes edges) then
      Error "the answer is not a tree"
    else if k <> q.Workload.optimum then
      Error
        (Printf.sprintf "tree has %d nodes, the optimum is %d" k
           q.Workload.optimum)
    else Ok ()
  | _ -> Error "not a solution block"

let delta_reply ~code ~recompiled =
  if code <> 200 then Error (Printf.sprintf "delta answered %d" code)
  else
    match recompiled with
    | None -> Error "delta reply without X-Minconn-Recompiled-Components"
    | Some "all" -> Error "delta fell back to recompiling all components"
    | Some _ -> Ok ()
