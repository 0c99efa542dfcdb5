(* Self-test of the benchmark at tiny n. It runs [perfbench run] on
   every workload with tracing off and on, and requires a zero exit,
   a [correct] result with no failed operation, every metric that
   BENCHMARK.json lists for that mode (printed by name with its unit,
   and present in the JSON line with that unit), and the guards
   ([error_rate]; [compiled.delta_fallbacks] when traced) printed as
   0. It then feeds the answer checker corrupted answers and requires
   each to be rejected. *)

open Perfbench_lib
module Json = Observe.Json

let exe = "../perfbench.exe"
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("FAIL " ^ s))
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let member k j =
  match Json.member k j with Some v -> v | None -> failwith ("no field " ^ k)

let str = function Json.Jstr s -> s | _ -> failwith "expected a string"
let arr = function Json.Jarr l -> l | _ -> failwith "expected an array"

let spec = Json.parse_exn (read_file "../../BENCHMARK.json")

let declared key =
  List.map (fun m -> (str (member "name" m), str (member "unit" m))) (arr (member key spec))

let workloads = List.map (fun w -> str (member "name" w)) (arr (member "workloads" spec))

let run_lines args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  (List.filter (( <> ) "") lines, status)

let prints_metric lines (name, unit_) =
  List.exists
    (fun l ->
      match String.split_on_char ' ' l |> List.filter (( <> ) "") with
      | [ n; _; u ] -> n = name && u = unit_
      | _ -> false)
    lines

let check_run workload trace =
  let what = Printf.sprintf "%s --trace %d" workload trace in
  let work = Filename.concat (Sys.getcwd ()) ("selftest-work-" ^ workload) in
  let lines, status =
    run_lines
      [
        "run"; "--workload"; workload; "--seed"; "5"; "--seconds"; "1";
        "--trace"; string_of_int trace; "--n"; "1000"; "--work"; work;
      ]
  in
  if status <> Unix.WEXITED 0 then fail "%s: nonzero exit" what;
  let expected = declared (if trace = 0 then "end_to_end" else "per_layer") in
  let guards =
    ("error_rate", "fraction")
    :: (if trace = 1 then [ ("compiled.delta_fallbacks", "count") ] else [])
  in
  List.iter
    (fun m -> if not (prints_metric lines m) then fail "%s: %s not printed" what (fst m))
    (guards @ expected);
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  List.iter
    (fun (name, unit_) ->
      if not (List.mem [ name; "0"; unit_ ] (List.map words lines)) then
        fail "%s: %s is not 0" what name)
    guards;
  match List.rev lines with
  | [] -> fail "%s: no output" what
  | last :: _ -> (
    match Json.parse last with
    | Error e -> fail "%s: last line is not JSON (%s)" what e
    | Ok j ->
      if member "correct" j <> Json.Jbool true then fail "%s: not correct" what;
      if member "failed" j <> Json.Jnum 0.0 then fail "%s: failed operations" what;
      (match member "attempted" j with
      | Json.Jnum a when a >= 1.0 -> ()
      | _ -> fail "%s: nothing attempted" what);
      let got =
        match member "metrics" j with
        | Json.Jobj fields ->
          List.map (fun (k, v) -> (k, str (member "unit" v))) fields
        | _ -> []
      in
      if List.sort compare got <> List.sort compare expected then
        fail "%s: JSON metrics differ from BENCHMARK.json" what)

(* ------------------------------------------------ corrupted answers *)

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let check_checker workload =
  let spec = Option.get (Workload.find workload) in
  let gen = Workload.instance spec ~n:1000 ~seed:3 in
  let nb = Workload.schema gen in
  let ix = Check.index nb in
  let session = Engine.Session.create (Engine.Compiled.compile nb.Mc_io.Parse.graph) in
  Array.iter
    (fun (q : Workload.query) ->
      match Engine.Session.query session ~p:q.Workload.p with
      | Error _ -> fail "%s: query %s has no answer" workload q.Workload.body
      | Ok sol ->
        let body = Serve.Render.solution_block nb sol in
        if Check.solve_answer ix q body <> Ok () then
          fail "%s: correct answer rejected: %s" workload body;
        let lines = String.split_on_char '\n' body in
        let header = List.nth lines 1 in
        let first = List.hd q.Workload.names in
        let corrupted =
          [
            ("edge dropped", String.concat "\n" (List.filteri (fun i _ -> i <> 2) lines));
            ( "terminal renamed",
              replace_first ~sub:(first ^ ",") ~by:"a999999," body
              |> replace_first ~sub:(first ^ "\n") ~by:"a999999\n" );
            ( "non-schema edge",
              body ^ "  " ^ first ^ " -- " ^ first ^ "\n" );
            ( "node count off",
              replace_first ~sub:header
                ~by:(Printf.sprintf "tree nodes (%d):%s" (Graphs.Iset.cardinal sol.Engine.Session.tree.Steiner.Tree.nodes + 1)
                       (String.sub header (String.index header ':' + 1)
                          (String.length header - String.index header ':' - 1)))
                body );
            ("empty", "");
          ]
        in
        List.iter
          (fun (what, bad) ->
            match Check.solve_answer ix q bad with
            | Ok () -> fail "%s: corrupted answer (%s) accepted" workload what
            | Error _ -> ())
          corrupted)
    (Workload.queries gen nb ~seed:3 ~count:8 ~reserved:[]);
  (* A non-optimal tree: the same query checked against a smaller
     optimum than the answer has. *)
  let q = (Workload.queries gen nb ~seed:4 ~count:1 ~reserved:[]).(0) in
  (match Engine.Session.query session ~p:q.Workload.p with
  | Ok sol ->
    let body = Serve.Render.solution_block nb sol in
    if Check.solve_answer ix { q with Workload.optimum = q.Workload.optimum - 1 } body = Ok ()
    then fail "%s: a tree above the optimum was accepted" workload
  | Error _ -> fail "%s: query has no answer" workload)

let check_delta_checker () =
  if Check.delta_reply ~code:200 ~recompiled:(Some "3,4") <> Ok () then
    fail "delta: a good reply was rejected";
  List.iter
    (fun (code, recompiled) ->
      if Check.delta_reply ~code ~recompiled = Ok () then
        fail "delta: bad reply %d accepted" code)
    [ (200, Some "all"); (400, Some "1"); (200, None); (0, None) ]

let () =
  List.iter (fun w -> List.iter (check_run w) [ 0; 1 ]) workloads;
  List.iter check_checker workloads;
  check_delta_checker ();
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: ok"
