(* perfbench: the repository's end-to-end benchmark.

     perfbench serve --family F --n N --seed S --cache DIR [--trace]
       builds the Gen_scale schema (names a<i>/r<j>) in process and
       serves it through Serve.Server with the plan cache at DIR,
       printing [port=P] once it listens; SIGTERM drains and exits 0.

     perfbench run --workload W --seed S --seconds T --trace 0|1
                   --work DIR [--n N] [--commit C]
       prepares the workload's inputs untimed, then measures it against
       server processes it spawns (trace 0: end-to-end metrics), or
       times each layer's entry points in process (trace 1: per-layer
       metrics). Every answer is checked; the last stdout line is the
       JSON result, and any failed check makes the exit code 1.

   run.py builds this executable and is the benchmark's command. *)

module Gen_scale = Workloads.Gen_scale
module Plan_cache = Cache.Plan_cache
module Server = Serve.Server
module Trace = Observe.Trace
open Perfbench_lib

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* --key value flags, plus bare --flag switches. *)
let parse_flags args =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest
      when String.length k > 2 && String.sub k 0 2 = "--"
           && not (String.length v > 2 && String.sub v 0 2 = "--") ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | k :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), "") :: acc) rest
    | a :: _ -> die "unexpected argument %s" a
  in
  go [] args

let flag flags k = List.assoc_opt k flags

let int_flag flags k ~default =
  match flag flags k with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with Some i -> i | None -> die "--%s: not an integer" k)

let required flags k =
  match flag flags k with Some v -> v | None -> die "missing --%s" k

(* ------------------------------------------------------------ serve *)

let serve flags =
  let family =
    match Gen_scale.family_of_string (required flags "family") with
    | Some f -> f
    | None -> die "unknown family"
  in
  let n = int_flag flags "n" ~default:Workload.default_n in
  let seed = int_flag flags "seed" ~default:0 in
  let nb =
    Workload.schema (Gen_scale.make family ~target_n:n ~seed)
  in
  let cache =
    match Plan_cache.create ~dir:(required flags "cache") () with
    | Ok c -> c
    | Error msg -> die "plan cache: %s" msg
  in
  let trace = if flag flags "trace" <> None then Trace.make () else Trace.disabled in
  match Server.create ~cache ~trace nb with
  | Error msg -> die "server: %s" msg
  | Ok srv ->
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Server.stop srv));
    Printf.printf "port=%d\n%!" (Server.port srv);
    Server.run srv;
    exit 0

(* -------------------------------------------------------------- run *)

let run flags =
  let workload =
    match Workload.find (required flags "workload") with
    | Some w -> w
    | None -> die "unknown workload"
  in
  let trace =
    match flag flags "trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> die "--trace takes 0 or 1"
  in
  let o =
    {
      Bench.workload;
      seed = int_flag flags "seed" ~default:0;
      seconds = max 1 (int_flag flags "seconds" ~default:25);
      trace;
      work = required flags "work";
      n = int_flag flags "n" ~default:Workload.default_n;
      commit = Option.value (flag flags "commit") ~default:"unknown";
    }
  in
  (* A server that drops a connection must surface as a failed request,
     not kill the load generator with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Bench.mkdir_p o.Bench.work;
  let p, prep_s = Stats.time (fun () -> Bench.prepare o) in
  Bench.print_header o p;
  Printf.printf "perfbench: prepared untimed in %.2f s\n%!" prep_s;
  let tally = Bench.new_tally () in
  let exe = Sys.executable_name in
  let metrics, guards =
    if trace then Layers.run ~exe o p tally else (Bench.end_to_end ~exe o p tally, [])
  in
  Bench.finish ~guards tally metrics

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: args -> serve (parse_flags args)
  | _ :: "run" :: args -> exit (run (parse_flags args))
  | _ -> die "usage: perfbench (serve|run) --flags..."
