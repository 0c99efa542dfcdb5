(* One benchmark run: untimed preparation, then either the end-to-end
   measurement against real server processes (trace off) or the traced
   per-layer run ({!Layers}). *)

module Plan_cache = Cache.Plan_cache
module Gen_scale = Workloads.Gen_scale

type options = {
  workload : Workload.spec;
  seed : int;
  seconds : int;
  trace : bool;
  work : string;  (** scratch directory for plan caches and dumps *)
  n : int;
  commit : string;
}

(* ------------------------------------------------------ preparation *)

type prepared = {
  gen : Gen_scale.t;
  nb : Mc_io.Parse.named_bigraph;
  queries : Workload.query array;
  deltas : Workload.delta array array;  (** one sequence per block *)
  ix : Check.index;
  cache_dir : string;
}

let query_count = 256

(* 10 blocks x 20 directives: 200 deltas, enough for a p95 with ten
   samples above it. *)
let delta_blocks = 10

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path

let prefill ~cache_dir g =
  match Plan_cache.create ~dir:cache_dir () with
  | Error msg -> failwith ("plan cache: " ^ msg)
  | Ok cache -> ignore (Plan_cache.find_or_compile ~cache g)

let prepare o =
  let gen = Workload.instance o.workload ~n:o.n ~seed:o.seed in
  let nb = Workload.schema gen in
  let reserved = Workload.delta_blocks gen ~seed:o.seed ~count:delta_blocks in
  let queries = Workload.queries gen nb ~seed:o.seed ~count:query_count ~reserved in
  let deltas = Workload.deltas gen nb ~blocks:reserved in
  let cache_dir = Filename.concat o.work "cache" in
  fresh_dir cache_dir;
  if o.workload.Workload.warm then prefill ~cache_dir nb.Mc_io.Parse.graph;
  Gc.compact ();
  { gen; nb; queries; deltas; ix = Check.index nb; cache_dir }

(* ---------------------------------------------------------- tallies *)

(* Every checked operation lands here; the first few failure messages
   go to stderr. Only touched from the main thread. *)
type tally = { mutable attempted : int; mutable failed : int }

let record t = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error msg ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    if t.failed <= 5 then prerr_endline ("perfbench: check failed: " ^ msg)

let check_solve p q (r : Client.reply) =
  if r.Client.code <> 200 then
    Error (Printf.sprintf "/solve %s answered %d: %s" q.Workload.body r.Client.code
             (String.trim r.Client.body))
  else Check.solve_answer p.ix q r.Client.body

let check_delta (r : Client.reply) =
  Check.delta_reply ~code:r.Client.code ~recompiled:r.Client.recompiled

(* ------------------------------------------------------ server side *)

let server_args o p ~traced =
  [
    "--family"; Gen_scale.family_name o.workload.Workload.family;
    "--n"; string_of_int o.n;
    "--seed"; string_of_int o.seed;
    "--cache"; p.cache_dir;
  ]
  @ if traced then [ "--trace" ] else []

(* Spawn a server and time it to its first answered query. A cold
   workload starts each setup from an empty plan cache. *)
let setup ~exe o p tally ~traced =
  if not o.workload.Workload.warm then fresh_dir p.cache_dir;
  let q = p.queries.(0) in
  let t0 = Stats.now () in
  let srv = Client.spawn ~exe (server_args o p ~traced) in
  let conn = Client.connect srv.Client.port in
  let r = Client.solve conn q.Workload.body in
  let setup_s = Stats.now () -. t0 in
  Client.close conn;
  record tally (check_solve p q r);
  (srv, setup_s)

(* ------------------------------------------------------- load phase *)

type phase = {
  solve_replies : (int * Client.reply) list;  (** query index, reply *)
  delta_replies : Client.reply list;
  wall_s : float;
}

(* Closed loop: each connection sends its next request only after the
   previous reply. Replies are kept and checked after the phase so the
   checker never steals time from a connection that is waiting. At
   least one request is sent, even past [deadline]. [conn] is reopened
   after a transport error. Returns the replies, newest first, and the
   next query index. *)
let solves p ~port conn ~start ~deadline =
  let out = ref [] in
  let i = ref start in
  while !i = start || Stats.now () < deadline do
    let qi = !i mod Array.length p.queries in
    let r = Client.solve !conn p.queries.(qi).Workload.body in
    out := (qi, r) :: !out;
    if r.Client.code = 0 then begin
      Client.close !conn;
      conn := Client.connect port
    end;
    incr i
  done;
  (!out, !i)

let solve_loop p ~port ~start ~deadline () =
  let conn = ref (Client.connect port) in
  let out, _ = solves p ~port conn ~start ~deadline in
  Client.close !conn;
  List.rev out

(* [seconds] of closed-loop traffic on one connection: each request is
   sent only after the previous reply. The window is cut into one slice
   per block sequence of [blocks]; a slice sends the block's deltas and
   then [/solve] until it ends, so the deltas sample the whole window
   without overlapping a solve. [wall_s] counts only the time spent
   solving. *)
let load_phase p ~port ~seconds ~blocks =
  let t0 = Stats.now () in
  let blocks = if blocks = [] then [ [||] ] else blocks in
  let slice = seconds /. float_of_int (List.length blocks) in
  let conn = ref (Client.connect port) in
  let ss = ref [] and ds = ref [] and next = ref 0 and wall_s = ref 0.0 in
  List.iteri
    (fun b (block : Workload.delta array) ->
      Array.iter
        (fun (d : Workload.delta) ->
          let r = Client.delta !conn d.Workload.text in
          ds := r :: !ds;
          if r.Client.code = 0 then begin
            Client.close !conn;
            conn := Client.connect port
          end)
        block;
      let ts = Stats.now () in
      let deadline = t0 +. (slice *. float_of_int (b + 1)) in
      let out, i = solves p ~port conn ~start:!next ~deadline in
      wall_s := !wall_s +. (Stats.now () -. ts);
      ss := out @ !ss;
      next := i)
    blocks;
  Client.close !conn;
  { solve_replies = List.rev !ss; delta_replies = List.rev !ds; wall_s = !wall_s }

(* ------------------------------------------------------------ report *)

(* Servers per run. Each gets its own setup, an equal share of the load
   phase and of the delta mix, so one run's figures pool several
   server processes (heap layouts, GC phases) instead of resting on
   one. *)
let servers o = if o.workload.Workload.warm then 5 else 3

let print_header o p =
  Printf.printf "perfbench: workload=%s seed=%d nproc=%d commit=%s\n"
    o.workload.Workload.name o.seed
    (Domain.recommended_domain_count ())
    o.commit;
  Printf.printf "perfbench: why %s: %s\n" o.workload.Workload.name
    o.workload.Workload.why;
  Printf.printf "perfbench: n=%d m=%d blocks=%d queries=%d delta_blocks=%d trace=%b\n"
    (Gen_scale.n p.gen) (Gen_scale.m p.gen) (Gen_scale.n_blocks p.gen)
    (Array.length p.queries) (Array.length p.deltas) o.trace

let print_metrics ms =
  List.iter
    (fun m -> Printf.printf "  %-34s %.6g %s\n" m.Stats.name m.Stats.value m.Stats.unit_)
    ms

let end_to_end ~exe o p tally =
  let k = servers o in
  let seconds = float_of_int o.seconds /. float_of_int k in
  let runs =
    List.init k (fun r ->
        let srv, setup_s = setup ~exe o p tally ~traced:false in
        (* Server r gets blocks r, r + k, ... of the delta mix. *)
        let blocks = Array.to_list p.deltas |> List.filteri (fun i _ -> i mod k = r) in
        let ph = load_phase p ~port:srv.Client.port ~seconds ~blocks in
        let rss = Client.peak_rss_mb srv in
        Client.stop srv;
        (setup_s, ph, rss))
  in
  let phases = List.map (fun (_, ph, _) -> ph) runs in
  let solves = List.concat_map (fun ph -> ph.solve_replies) phases in
  let deltas = List.concat_map (fun ph -> ph.delta_replies) phases in
  List.iter (fun (qi, r) -> record tally (check_solve p p.queries.(qi) r)) solves;
  List.iter (fun r -> record tally (check_delta r)) deltas;
  let solve_ms = List.map (fun (_, r) -> r.Client.ms) solves in
  let delta_ms = List.map (fun r -> r.Client.ms) deltas in
  let load_s = List.fold_left (fun acc ph -> acc +. ph.wall_s) 0.0 phases in
  Printf.printf "perfbench: servers=%d solves=%d deltas=%d load_s=%.3f\n" k
    (List.length solve_ms) (List.length delta_ms) load_s;
  [
    Stats.metric "setup_s" "s" (Stats.median (List.map (fun (s, _, _) -> s) runs));
    Stats.metric "solve_p50_ms" "ms" (Stats.percentile solve_ms 50.0);
    Stats.metric "solve_p95_ms" "ms" (Stats.percentile solve_ms 95.0);
    Stats.metric "solve_rps" "1/s" (float_of_int (List.length solve_ms) /. load_s);
    Stats.metric "delta_p50_ms" "ms" (Stats.percentile delta_ms 50.0);
    Stats.metric "delta_p95_ms" "ms" (Stats.percentile delta_ms 95.0);
    Stats.metric "server_peak_rss_mb" "MiB"
      (Stats.median (List.map (fun (_, _, m) -> m) runs));
  ]

let new_tally () = { attempted = 0; failed = 0 }

(* Print the metrics by name with their units, then the guards (metrics
   that read 0 on every passing run, [error_rate] among them, so they
   stay out of the JSON line), then the JSON result line last; the exit
   code is 1 when any check failed. *)
let finish ?(guards = []) tally metrics =
  let error_rate =
    float_of_int tally.failed /. float_of_int (max 1 tally.attempted)
  in
  print_metrics metrics;
  print_metrics (guards @ [ Stats.metric "error_rate" "fraction" error_rate ]);
  let finite = List.for_all (fun m -> Float.is_finite m.Stats.value) metrics in
  if not finite then prerr_endline "perfbench: a metric has no samples";
  let correct = tally.failed = 0 && tally.attempted > 0 && finite in
  print_endline
    (Stats.result_line ~correct ~attempted:tally.attempted ~failed:tally.failed
       metrics);
  if correct then 0 else 1

