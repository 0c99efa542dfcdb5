(* The linear name scan the parser resolved names with before its
   hashed index (Mc_io.Parse.Names), kept as the reference
   test/test_mc_io.ml pins the index against: left names before
   relation names, first occurrence wins, one O(n) scan per name. *)

open Graphs
module Parse = Mc_io.Parse
module B = Bipartite.Bigraph
module D = Bipartite.Delta

let index_of arr name =
  let rec go i =
    if i >= Array.length arr then None
    else if arr.(i) = name then Some i
    else go (i + 1)
  in
  go 0

let name_set (nb : Parse.named_bigraph) names =
  let rec go acc = function
    | [] -> Ok acc
    | n :: rest -> (
      match index_of nb.Parse.left_names n with
      | Some i -> go (Iset.add (B.index nb.Parse.graph (B.L i)) acc) rest
      | None -> (
        match index_of nb.Parse.right_names n with
        | Some j -> go (Iset.add (B.index nb.Parse.graph (B.R j)) acc) rest
        | None -> Error n))
  in
  go Iset.empty names

type directive =
  | Add_edge of string * string
  | Remove_edge of string * string
  | Add_relation of string * string list
  | Remove_relation of string

let to_line = function
  | Add_edge (a, r) -> Printf.sprintf "+edge %s %s" a r
  | Remove_edge (a, r) -> Printf.sprintf "-edge %s %s" a r
  | Add_relation (r, attrs) -> String.concat " " ("+relation" :: r :: attrs)
  | Remove_relation r -> "-relation " ^ r

let remove_at j arr =
  Array.of_list (List.filteri (fun k _ -> k <> j) (Array.to_list arr))

(* Resolve the directives in order against the names as evolved so
   far, applying each op to the graph as it goes. [Error k] names the
   first directive (1-based) that does not resolve. *)
let deltas (nb : Parse.named_bigraph) directives =
  let left nb a = index_of nb.Parse.left_names a in
  let right nb r = index_of nb.Parse.right_names r in
  let rec go nb ops k = function
    | [] -> Ok (List.rev ops, nb)
    | d :: rest -> (
      let step op rename =
        match D.apply nb.Parse.graph op with
        | Error _ -> Error k
        | Ok graph ->
          go (rename { nb with Parse.graph }) (op :: ops) (k + 1) rest
      in
      match d with
      | Add_edge (a, r) | Remove_edge (a, r) -> (
        match (left nb a, right nb r) with
        | Some i, Some j ->
          step
            (match d with
            | Add_edge _ -> D.Add_edge (i, j)
            | _ -> D.Remove_edge (i, j))
            Fun.id
        | _ -> Error k)
      | Add_relation (r, attrs) ->
        if left nb r <> None || right nb r <> None then Error k
        else
          let set =
            List.fold_left
              (fun acc a ->
                match (acc, left nb a) with
                | Some s, Some i -> Some (Iset.add i s)
                | _ -> None)
              (Some Iset.empty) attrs
          in
          (match set with
          | None -> Error k
          | Some s ->
            step (D.Add_relation s) (fun nb ->
                {
                  nb with
                  Parse.right_names = Array.append nb.Parse.right_names [| r |];
                }))
      | Remove_relation r -> (
        match right nb r with
        | None -> Error k
        | Some j ->
          step (D.Remove_relation j) (fun nb ->
              {
                nb with
                Parse.right_names = remove_at j nb.Parse.right_names;
              })))
  in
  go nb [] 1 directives
