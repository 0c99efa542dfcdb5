open Graphs
open Hypergraphs

type named_bigraph = {
  graph : Bipartite.Bigraph.t;
  left_names : string array;
  right_names : string array;
}

type error = Runtime.Errors.t

let pp_error = Runtime.Errors.pp

(* Hard input caps, checked before tokenization: parsers sit on
   attacker-reachable boundaries (CLI files, server request bodies),
   so unbounded input must become a typed error before it becomes a
   resident list of tokens. The limits are far above any legitimate
   instance file while keeping the worst-case allocation proportional
   to a small constant times the cap. *)
let max_input_bytes = 8 * 1024 * 1024
let max_line_bytes = 64 * 1024

let oversized text =
  let n = String.length text in
  if n > max_input_bytes then
    Some
      (Runtime.Errors.Parse_error
         {
           line = 0;
           col = 0;
           msg =
             Printf.sprintf "input exceeds %d bytes (%d)" max_input_bytes n;
         })
  else begin
    (* One pass for the longest line; no splitting before the check. *)
    let bad = ref None in
    let line = ref 1 and start = ref 0 and i = ref 0 in
    while !bad = None && !i <= n do
      if !i = n || text.[!i] = '\n' then begin
        if !i - !start > max_line_bytes then
          bad :=
            Some
              (Runtime.Errors.Parse_error
                 {
                   line = !line;
                   col = 0;
                   msg =
                     Printf.sprintf "line exceeds %d bytes (%d)"
                       max_line_bytes (!i - !start);
                 });
        incr line;
        start := !i + 1
      end;
      incr i
    done;
    !bad
  end

let guarded parse text =
  match oversized text with Some e -> Error e | None -> parse text

(* Every token carries its 1-based starting column so parse errors can
   point at the offending token, not just its line. A line is
   [(lineno, cols, tokens)] with [cols] parallel to [tokens]. *)
let tokenize text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (i, line) ->
         let line =
           match String.index_opt line '#' with
           | Some k -> String.sub line 0 k
           | None -> line
         in
         let n = String.length line in
         let rec scan j acc =
           if j >= n then List.rev acc
           else if line.[j] = ' ' || line.[j] = '\t' then scan (j + 1) acc
           else begin
             let k = ref j in
             while !k < n && line.[!k] <> ' ' && line.[!k] <> '\t' do
               incr k
             done;
             scan !k ((j + 1, String.sub line j (!k - j)) :: acc)
           end
         in
         match scan 0 [] with
         | [] -> None
         | toks -> Some (i, List.map fst toks, List.map snd toks))

(* Column of the [k]-th token on a line; 0 (column unknown) past the end. *)
let col_at cols k =
  match List.nth_opt cols k with Some c -> c | None -> 0

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let err line col fmt =
  Printf.ksprintf
    (fun msg -> Error (Runtime.Errors.Parse_error { line; col; msg }))
    fmt

let expect_header want = function
  | (_, _, [ h ]) :: rest when h = want -> Ok rest
  | (i, cs, _) :: _ ->
    err i (col_at cs 0) "expected a single '%s' header line" want
  | [] -> err 0 0 "empty input (expected '%s' header)" want

(* ------------------------------------------------------- name index *)

module Names = struct
  (* Open addressing with linear probing over node ids: a slot holds
     the underlying index of a name ([i] for left node [i], [nl + j] for
     relation [j]) or -1. The strings stay in the schema's own name
     arrays, so the table is one int array of about two words per name,
     never written after [build]. Ids go in ascending, so a repeated
     name sits further along its probe run than its first occurrence
     and a lookup, taking the first match on its side, gives the answer
     the linear scan gives; building compares no strings.

     Relations appended after the build sit at [valid_nr] and above and
     are found by a scan of those few names; dropping the last relation
     lowers [valid_nr], which turns the table's entry for it stale
     (skipped). Neither edit touches the table. *)
  type t = { slots : int array; nl : int; valid_nr : int }

  (* Past this many appended relations, the next delta file rebuilds
     the table instead of growing the scan. *)
  let max_tail = 64

  let start slots name = Hashtbl.hash name mod Array.length slots
  let next slots s = if s + 1 = Array.length slots then 0 else s + 1

  let build_over left right nr =
    let nl = Array.length left in
    let slots = Array.make ((2 * (nl + nr)) + 1) (-1) in
    for id = 0 to nl + nr - 1 do
      let name = if id < nl then left.(id) else right.(id - nl) in
      let s = ref (start slots name) in
      while slots.(!s) >= 0 do
        s := next slots !s
      done;
      slots.(!s) <- id
    done;
    { slots; nl; valid_nr = nr }

  let build nb =
    build_over nb.left_names nb.right_names (Array.length nb.right_names)

  (* Left node index of [name], or -1. *)
  let find_left t left name =
    let rec go s =
      let id = t.slots.(s) in
      if id < 0 then -1
      else if id < t.nl && String.equal left.(id) name then id
      else go (next t.slots s)
    in
    go (start t.slots name)

  (* Relation index of [name] among [right.(0 .. nr - 1)], or -1. *)
  let find_right t right ~nr name =
    let rec scan j =
      if j >= nr then -1
      else if String.equal right.(j) name then j
      else scan (j + 1)
    in
    let rec go s =
      let id = t.slots.(s) in
      if id < 0 then scan t.valid_nr
      else
        let j = id - t.nl in
        if j >= 0 && j < t.valid_nr && j < nr && String.equal right.(j) name
        then j
        else go (next t.slots s)
    in
    go (start t.slots name)

  let check t nb =
    if Array.length nb.left_names <> t.nl then
      invalid_arg "Parse.Names: index of another schema"

  let resolve t nb names =
    check t nb;
    let module B = Bipartite.Bigraph in
    let nr = Array.length nb.right_names in
    let rec go acc = function
      | [] -> Ok acc
      | n :: rest ->
        let i = find_left t nb.left_names n in
        if i >= 0 then go (Iset.add (B.index nb.graph (B.L i)) acc) rest
        else
          let j = find_right t nb.right_names ~nr n in
          if j >= 0 then go (Iset.add (B.index nb.graph (B.R j)) acc) rest
          else Error n
    in
    go Iset.empty names
end

let bigraph_of_string_unguarded text =
  match expect_header "bipartite" (tokenize text) with
  | Error e -> Error e
  | Ok lines ->
    let left = ref [] and right = ref [] and edges = ref [] in
    let rec consume = function
      | [] -> Ok ()
      | (i, cs, "left" :: names) :: rest ->
        left := List.rev_append names !left;
        if names = [] then err i (col_at cs 0) "'left' line with no names"
        else consume rest
      | (i, cs, "right" :: names) :: rest ->
        right := List.rev_append names !right;
        if names = [] then err i (col_at cs 0) "'right' line with no names"
        else consume rest
      | (i, cs, [ "edge"; a; b ]) :: rest ->
        edges := (i, cs, a, b) :: !edges;
        consume rest
      | (i, cs, t :: _) :: _ ->
        err i (col_at cs 0) "unknown directive '%s'" t
      | (i, _, []) :: _ -> err i 0 "empty line slipped through"
    in
    (match consume lines with
    | Error e -> Error e
    | Ok () ->
      let left = List.rev !left and right = List.rev !right in
      let dup l = List.length (List.sort_uniq compare l) <> List.length l in
      if dup left || dup right || dup (left @ right) then
        err 0 0 "duplicate node name"
      else begin
        let left_names = Array.of_list left in
        let right_names = Array.of_list right in
        let nr = Array.length right_names in
        (* Hashed name lookup: a linear scan per edge endpoint is
           quadratic on large schemas. *)
        let names = Names.build_over left_names right_names nr in
        let rec resolve acc = function
          | [] -> Ok (List.rev acc)
          | (i, cs, a, b) :: rest -> (
            match
              ( Names.find_left names left_names a,
                Names.find_right names right_names ~nr b )
            with
            | la, rb when la >= 0 && rb >= 0 -> resolve ((la, rb) :: acc) rest
            | -1, _ -> err i (col_at cs 1) "unknown left node '%s'" a
            | _ -> err i (col_at cs 2) "unknown right node '%s'" b)
        in
        match resolve [] (List.rev !edges) with
        | Error e -> Error e
        | Ok pairs ->
          let graph =
            Bipartite.Bigraph.of_edges ~nl:(Array.length left_names) ~nr pairs
          in
          Ok { graph; left_names; right_names }
      end)

let schema_of_string_unguarded text =
  match expect_header "schema" (tokenize text) with
  | Error e -> Error e
  | Ok lines ->
    let rec consume acc = function
      | [] -> Ok (List.rev acc)
      | (i, cs, "relation" :: name :: attrs) :: rest ->
        if attrs = [] then
          err i (col_at cs 1) "relation '%s' has no attributes" name
        else consume ((name, attrs) :: acc) rest
      | (i, cs, t :: _) :: _ ->
        err i (col_at cs 0) "unknown directive '%s'" t
      | (i, _, []) :: _ -> err i 0 "empty line slipped through"
    in
    (match consume [] lines with
    | Error e -> Error e
    | Ok rels -> (
      try Ok (Datamodel.Schema.make rels)
      with Invalid_argument m -> err 0 0 "%s" m))

let hypergraph_of_string_unguarded text =
  match expect_header "hypergraph" (tokenize text) with
  | Error e -> Error e
  | Ok lines ->
    let nodes = ref [] and edges = ref [] in
    let rec consume = function
      | [] -> Ok ()
      | (i, cs, "nodes" :: names) :: rest ->
        nodes := List.rev_append names !nodes;
        if names = [] then err i (col_at cs 0) "'nodes' line with no names"
        else consume rest
      | (i, cs, "edge" :: name :: members) :: rest ->
        if members = [] then err i (col_at cs 1) "edge '%s' is empty" name
        else begin
          (* members start at token index 2; keep their columns paired *)
          edges := (i, name, List.combine (drop 2 cs) members) :: !edges;
          consume rest
        end
      | (i, cs, t :: _) :: _ ->
        err i (col_at cs 0) "unknown directive '%s'" t
      | (i, _, []) :: _ -> err i 0 "empty line slipped through"
    in
    (match consume lines with
    | Error e -> Error e
    | Ok () ->
      let node_names = Array.of_list (List.rev !nodes) in
      (* Hashed name lookup (first occurrence wins, as a scan would):
         a linear scan per edge member is quadratic on large files. *)
      let index = Hashtbl.create (Array.length node_names) in
      Array.iteri
        (fun v name ->
          if not (Hashtbl.mem index name) then Hashtbl.add index name v)
        node_names;
      let rec build acc = function
        | [] -> Ok (List.rev acc)
        | (i, _, members) :: rest ->
          let rec resolve set = function
            | [] -> Ok set
            | (c, m) :: ms -> (
              match Hashtbl.find_opt index m with
              | Some v -> resolve (Iset.add v set) ms
              | None -> err i c "unknown node '%s'" m)
          in
          (match resolve Iset.empty members with
          | Error e -> Error e
          | Ok set -> build (set :: acc) rest)
      in
      match build [] (List.rev !edges) with
      | Error e -> Error e
      | Ok family ->
        let edge_names =
          Array.of_list (List.rev_map (fun (_, n, _) -> n) !edges)
        in
        (try
           Ok
             ( Hypergraph.create ~n_nodes:(Array.length node_names) family,
               node_names,
               edge_names )
         with Invalid_argument m -> err 0 0 "%s" m))

let database_of_string_unguarded ?semantics text =
  match expect_header "database" (tokenize text) with
  | Error e -> Error e
  | Ok lines ->
    let schemas = ref [] and rows = ref [] in
    let rec consume = function
      | [] -> Ok ()
      | (i, cs, "relation" :: name :: attrs) :: rest ->
        if attrs = [] then
          err i (col_at cs 1) "relation '%s' has no attributes" name
        else begin
          schemas := (name, attrs) :: !schemas;
          consume rest
        end
      | (i, cs, "row" :: name :: values) :: rest ->
        rows := (i, col_at cs 1, name, values) :: !rows;
        consume rest
      | (i, cs, t :: _) :: _ ->
        err i (col_at cs 0) "unknown directive '%s'" t
      | (i, _, []) :: _ -> err i 0 "empty line slipped through"
    in
    (match consume lines with
    | Error e -> Error e
    | Ok () ->
      let schemas = List.rev !schemas in
      let rec check_rows = function
        | [] -> Ok ()
        | (i, c, name, values) :: rest -> (
          match List.assoc_opt name schemas with
          | None -> err i c "row for unknown relation '%s'" name
          | Some attrs when List.length attrs <> List.length values ->
            err i c "row arity mismatch for '%s'" name
          | Some _ -> check_rows rest)
      in
      (match check_rows (List.rev !rows) with
      | Error e -> Error e
      | Ok () -> (
        (* Relation.make can also reject (duplicate attributes), so the
           whole construction sits inside the boundary. *)
        try
          let rels =
            List.map
              (fun (name, attrs) ->
                let data =
                  List.rev !rows
                  |> List.filter_map (fun (_, _, n, values) ->
                         if n = name then Some values else None)
                in
                (name, Relalg.Relation.make ?semantics ~attrs data))
              schemas
          in
          Ok (Relalg.Database.make rels)
        with Invalid_argument m -> err 0 0 "%s" m)))

(* Delta files speak names, the engine speaks indices; each line is
   resolved against the schema *as evolved so far*, so a relation
   added three lines up is a legal edge endpoint here and the
   recorded index ops line up exactly with [Delta.apply_all]'s
   sequential semantics. Only the names evolve here — left names never
   change, relation names sit in a buffer copied on the first write —
   and no graph is edited: every index an op carries comes from a name
   of the evolved schema, so it is in range by construction. *)
let resolve_deltas_unguarded names nb text =
  let module D = Bipartite.Delta in
  match expect_header "deltas" (tokenize text) with
  | Error e -> Error e
  | Ok lines ->
    Names.check names nb;
    let left_names = nb.left_names in
    let rnames = ref nb.right_names in
    let nr = ref (Array.length nb.right_names) in
    let owned = ref false and names = ref names in
    (* Appends go to a private copy that grows by doubling: the
       published array is never written. *)
    let push name =
      if (not !owned) || !nr = Array.length !rnames then begin
        let a = Array.make (max 8 (2 * !nr)) "" in
        Array.blit !rnames 0 a 0 !nr;
        rnames := a;
        owned := true
      end;
      !rnames.(!nr) <- name;
      incr nr
    in
    let find_left a = Names.find_left !names left_names a in
    let find_right r = Names.find_right !names !rnames ~nr:!nr r in
    let rec consume ops = function
      | [] -> Ok ops
      | (i, cs, toks) :: rest ->
        let left c a =
          match find_left a with
          | -1 -> err i c "unknown left node '%s'" a
          | la -> Ok la
        in
        let right c r =
          match find_right r with
          | -1 -> err i c "unknown relation '%s'" r
          | j -> Ok j
        in
        let step op = consume (op :: ops) rest in
        (match toks with
        | [ "+edge"; a; b ] -> (
          match (left (col_at cs 1) a, right (col_at cs 2) b) with
          | Ok la, Ok rb -> step (D.Add_edge (la, rb))
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        | [ "-edge"; a; b ] -> (
          match (left (col_at cs 1) a, right (col_at cs 2) b) with
          | Ok la, Ok rb -> step (D.Remove_edge (la, rb))
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        | "+relation" :: name :: attrs ->
          if find_left name >= 0 || find_right name >= 0 then
            err i (col_at cs 1) "duplicate node name '%s'" name
          else
            let rec resolve set k = function
              | [] -> Ok set
              | a :: more -> (
                match left (col_at cs k) a with
                | Ok la -> resolve (Iset.add la set) (k + 1) more
                | Error e -> Error e)
            in
            (match resolve Iset.empty 2 attrs with
            | Error e -> Error e
            | Ok set ->
              push name;
              step (D.Add_relation set))
        | [ "-relation"; name ] -> (
          match right (col_at cs 1) name with
          | Error e -> Error e
          | Ok j ->
            if j = !nr - 1 then begin
              (* The last relation: the table's entry for it turns
                 stale, nothing is rebuilt. *)
              decr nr;
              if !owned then !rnames.(!nr) <- "";
              names := { !names with Names.valid_nr = min !names.valid_nr j }
            end
            else begin
              (* An interior relation renumbers every later one: the
                 table is rebuilt, as the plan is. *)
              let a = !rnames in
              decr nr;
              rnames :=
                Array.init !nr (fun k -> if k < j then a.(k) else a.(k + 1));
              owned := true;
              names := Names.build_over left_names !rnames !nr
            end;
            step (D.Remove_relation j))
        | t :: _ -> err i (col_at cs 0) "unknown delta directive '%s'" t
        | [] -> err i 0 "empty line slipped through")
    in
    (match consume [] lines with
    | Error e -> Error e
    | Ok ops ->
      let right_names =
        if (not !owned) && !nr = Array.length !rnames then !rnames
        else Array.sub !rnames 0 !nr
      in
      let names =
        if !nr - !names.Names.valid_nr > Names.max_tail then
          Names.build_over left_names right_names !nr
        else !names
      in
      Ok (List.rev ops, right_names, names))

let query_of_string_unguarded text =
  let words =
    String.split_on_char ' ' text
    |> List.concat_map (String.split_on_char ',')
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  match words with
  | "connect" :: rest ->
    let rec split_objects acc = function
      | [] -> (List.rev acc, [])
      | "where" :: conds -> (List.rev acc, conds)
      | w :: rest -> split_objects (w :: acc) rest
    in
    let objects, conds = split_objects [] rest in
    if objects = [] then err 1 0 "no objects to connect"
    else
      let rec parse_conds acc = function
        | [] -> Ok (List.rev acc)
        | attr :: "=" :: value :: rest -> (
          match rest with
          | "and" :: more -> parse_conds ((attr, value) :: acc) more
          | [] -> Ok (List.rev ((attr, value) :: acc))
          | w :: _ -> err 1 0 "expected 'and', found '%s'" w)
        | w :: _ -> err 1 0 "malformed condition near '%s'" w
      in
      (match parse_conds [] conds with
      | Error e -> Error e
      | Ok where -> Ok (objects, where))
  | _ -> err 1 0 "queries start with 'connect'"

let bigraph_of_string = guarded bigraph_of_string_unguarded
let schema_of_string = guarded schema_of_string_unguarded
let hypergraph_of_string = guarded hypergraph_of_string_unguarded
let database_of_string ?semantics text =
  guarded (database_of_string_unguarded ?semantics) text
let query_of_string = guarded query_of_string_unguarded
let resolve_deltas names nb text =
  guarded (resolve_deltas_unguarded names nb) text

(* The one-shot helpers build an index per call and go through the
   same resolution as the server, then apply the ops to the graph once
   at the end. *)
let deltas_of_string nb text =
  guarded
    (fun text ->
      match resolve_deltas_unguarded (Names.build nb) nb text with
      | Error e -> Error e
      | Ok (ops, right_names, _) -> (
        match Bipartite.Delta.apply_all nb.graph ops with
        | Error msg -> err 0 0 "%s" msg
        | Ok graph -> Ok (ops, { nb with graph; right_names })))
    text

let name_set nb names = Names.resolve (Names.build nb) nb names

(* Names go on repeated [left]/[right] lines of at most
   [names_line_bytes] (a longer single name gets a line of its own), so
   a printed graph of any size stays under [max_line_bytes] per line
   and parses back. *)
let names_line_bytes = 4096

let add_name_lines buf directive names =
  let len = ref (-1) in
  Array.iter
    (fun name ->
      if !len < 0 || !len + 1 + String.length name > names_line_bytes then begin
        if !len >= 0 then Buffer.add_char buf '\n';
        Buffer.add_string buf directive;
        len := String.length directive
      end;
      Buffer.add_char buf ' ';
      Buffer.add_string buf name;
      len := !len + 1 + String.length name)
    names;
  if !len >= 0 then Buffer.add_char buf '\n'

let bigraph_to_string nb =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "bipartite\n";
  add_name_lines buf "left" nb.left_names;
  add_name_lines buf "right" nb.right_names;
  List.iter
    (fun (i, j) ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s\n" nb.left_names.(i) nb.right_names.(j)))
    (Bipartite.Bigraph.edges nb.graph);
  Buffer.contents buf

let schema_to_string schema =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "schema\n";
  List.iter
    (fun name ->
      Buffer.add_string buf
        (Printf.sprintf "relation %s %s\n" name
           (String.concat " " (Datamodel.Schema.relation_attrs schema name))))
    (Datamodel.Schema.relation_names schema);
  Buffer.contents buf

let hypergraph_to_string h ~node_names ~edge_names =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "hypergraph\n";
  add_name_lines buf "nodes" node_names;
  Array.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s\n" edge_names.(i)
           (String.concat " "
              (List.map (fun v -> node_names.(v)) (Iset.elements e)))))
    (Hypergraph.edges h);
  Buffer.contents buf

let database_to_string db =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "database\n";
  List.iter
    (fun (name, r) ->
      Buffer.add_string buf
        (Printf.sprintf "relation %s %s\n" name
           (String.concat " " (Relalg.Relation.attrs r))))
    (Relalg.Database.relations db);
  List.iter
    (fun (name, r) ->
      List.iter
        (fun row ->
          Buffer.add_string buf
            (Printf.sprintf "row %s %s\n" name (String.concat " " row)))
        (Relalg.Relation.tuples r))
    (Relalg.Database.relations db);
  Buffer.contents buf
