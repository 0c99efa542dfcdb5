(* The traced per-layer run. Each layer's public entry point is called
   in process on this workload's schema, queries and deltas. Functions
   that take [?trace] get an enabled [Observe.Trace] and record the
   spans they already emit ([classify.*], [compile.orderings],
   [rung:*], [plan_cache], [apply_delta]); the benchmark wraps a few of
   its own calls in [bench.*] spans. The serving path's in-process
   steps (name lookup, session query, render) are timed untraced, as
   the server runs them, and the rung metrics come from a second pass
   of the queries through a traced session. Two short HTTP phases
   against real server processes (one untraced, one traced) give the
   serving residual and the tracing overhead. *)

open Graphs
module Trace = Observe.Trace
module Compiled = Engine.Compiled
module Session = Engine.Session
module Plan_cache = Cache.Plan_cache
module Parse = Mc_io.Parse
module Render = Serve.Render
module Gen_scale = Workloads.Gen_scale
module Classify = Bipartite.Classify

let ms s = s *. 1000.0

(* Median wall time of [reps] calls, plus the last result. *)
let timed_median reps f =
  let rec go k acc last =
    if k = 0 then (Option.get last, Stats.median acc)
    else
      let x, dt = Stats.time f in
      go (k - 1) (dt :: acc) (Some x)
  in
  go reps [] None

(* Total duration of the spans with this name, in ms. *)
let span_total_ms trace name =
  List.fold_left
    (fun acc (s : Trace.span) -> if s.Trace.name = name then acc +. s.Trace.dur_s else acc)
    0.0 (Trace.spans trace)
  |> ms

let fail msg = failwith ("layers: " ^ msg)

(* ----------------------------------------------------------- compile *)

let compile_layers trace (o : Bench.options) (p : Bench.prepared) =
  let g, construct_s =
    timed_median 3 (fun () ->
        Trace.span trace "bench.bigraph.construct" (fun () ->
            Gen_scale.to_bigraph p.Bench.gen))
  in
  let compiled, compile_s = Stats.time (fun () -> Compiled.compile ~trace g) in
  let classify = span_total_ms trace "classify" in
  let dir = Filename.concat o.Bench.work "layers-cache" in
  Bench.fresh_dir dir;
  let cache =
    match Plan_cache.create ~dir () with Ok c -> c | Error m -> fail m
  in
  let (), store_s =
    timed_median 3 (fun () ->
        match Plan_cache.store ~trace cache compiled with
        | Ok () -> ()
        | Error m -> fail m)
  in
  let entry_bytes = Plan_cache.total_bytes cache in
  let loaded, find_s =
    timed_median 3 (fun () ->
        match Plan_cache.find ~trace cache g with
        | Ok c -> c
        | Error m -> fail ("plan cache miss: " ^ Plan_cache.miss_name m))
  in
  (* The plan the server would hold: compiled on a cold cache, loaded
     on a warm one. *)
  let plan = if o.Bench.workload.Workload.warm then loaded else compiled in
  let metrics =
    [
      Stats.metric "bigraph.construct_ms" "ms" (ms construct_s);
      Stats.metric "compiled.compile_ms" "ms" (ms compile_s);
      Stats.metric "compiled.components" "count"
        (float_of_int (Compiled.n_components compiled));
      Stats.metric "classify.total_ms" "ms" classify;
      Stats.metric "classify.h2_gamma_ms" "ms" (span_total_ms trace "classify.h2.gamma");
      Stats.metric "classify.chordal_62_ms" "ms" (span_total_ms trace "classify.chordal_62");
      Stats.metric "classify.h2_conformal_ms" "ms"
        (span_total_ms trace "classify.h2.conformal");
      Stats.metric "compiled.prep_ms" "ms"
        (span_total_ms trace "compile.orderings" -. classify);
      Stats.metric "plan_cache.store_ms" "ms" (ms store_s);
      Stats.metric "plan_cache.find_ms" "ms" (ms find_s);
      Stats.metric "plan_cache.entry_bytes" "bytes" (float_of_int entry_bytes);
    ]
  in
  (plan, metrics)

let live_words plan =
  Gc.compact ();
  float_of_int (Obj.reachable_words (Obj.repr plan))

(* ----------------------------------------------------------- queries *)

let check_solution tally (p : Bench.prepared) (q : Workload.query) = function
  | Error e -> Bench.record tally (Error (Runtime.Errors.to_string e))
  | Ok s ->
    Bench.record tally
      (Check.solve_answer p.Bench.ix q (Render.solution_block p.Bench.nb s))

(* Repeat [f] over the workload's queries in order: at least [min]
   calls, then until [seconds] have passed, at most [max] calls. *)
let over_queries (p : Bench.prepared) ~min ~max ~seconds f =
  let deadline = Stats.now () +. seconds in
  let i = ref 0 in
  while !i < min || (Stats.now () < deadline && !i < max) do
    let qi = !i mod Array.length p.Bench.queries in
    f qi p.Bench.queries.(qi);
    incr i
  done;
  !i

(* The serving path's in-process steps, untraced as the server runs
   them: resolve the terminal names, query the session, render the
   answer. Every answer is checked. Also returns each query's summed
   step time, keyed by query index, for [serve.residual_ms]. *)
let session_layers tally ~seconds (p : Bench.prepared) plan =
  let nb = p.Bench.nb in
  let session, create_s = Stats.time (fun () -> Session.create plan) in
  let q0 = p.Bench.queries.(0) in
  let a0 = Stats.allocated_words () in
  let r0, first_s = Stats.time (fun () -> Session.query session ~p:q0.Workload.p) in
  let first_alloc = Stats.allocated_words () -. a0 in
  check_solution tally p q0 r0;
  let live_after_first = live_words plan in
  let name_set = ref [] and query = ref [] and render = ref [] in
  let allocs = ref [] and exact = ref 0 and answers = ref 0 in
  let path_ms = Hashtbl.create 256 in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let n =
    over_queries p ~min:200 ~max:5000 ~seconds (fun qi q ->
        let pset, t_names = Stats.time (fun () -> Parse.name_set nb q.Workload.names) in
        name_set := ms t_names :: !name_set;
        (match pset with
        | Ok s when Iset.equal s q.Workload.p -> ()
        | _ -> Bench.record tally (Error "name_set resolved the wrong terminals"));
        let a = Stats.allocated_words () in
        let r, t_query = Stats.time (fun () -> Session.query session ~p:q.Workload.p) in
        allocs := (Stats.allocated_words () -. a) :: !allocs;
        query := ms t_query :: !query;
        match r with
        | Ok s ->
          incr answers;
          if s.Session.optimal then incr exact;
          let body, t_render = Stats.time (fun () -> Render.solution_block nb s) in
          render := ms t_render :: !render;
          Hashtbl.add path_ms qi (ms (t_names +. t_query +. t_render));
          Bench.record tally (Check.solve_answer p.Bench.ix q body)
        | Error _ -> check_solution tally p q r)
  in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  let p50 l = Stats.percentile !l 50.0 in
  let metrics =
    [
      Stats.metric "plan.live_words_after_first_query" "words" live_after_first;
      Stats.metric "session.create_ms" "ms" (ms create_s);
      Stats.metric "session.first_query_ms" "ms" (ms first_s);
      Stats.metric "session.first_query_alloc_words" "words" first_alloc;
      Stats.metric "session.query_p50_ms" "ms" (p50 query);
      Stats.metric "session.query_p95_ms" "ms" (Stats.percentile !query 95.0);
      Stats.metric "session.alloc_words_per_query" "words" (Stats.mean !allocs);
      Stats.metric "session.exact_ratio" "fraction"
        (float_of_int !exact /. float_of_int (max 1 !answers));
      Stats.metric "parse.name_set_ms" "ms" (p50 name_set);
      Stats.metric "render.solution_block_ms" "ms" (p50 render);
      Stats.metric "gc.major_per_1k_solves" "count"
        (1000.0 *. float_of_int majors /. float_of_int n);
    ]
  in
  (session, metrics, path_ms)

(* ------------------------------------------------------------- rungs *)

type rung = Forest | Algorithm2 | Dw

(* The rung metric a ladder span belongs to. [rung:exact-structured] is
   the forest solver on a (4,1) schema and Algorithm 2 on a (6,2) one;
   [rung:fixpoint] is Algorithm 2 as well. *)
let rung_of_span plan = function
  | "rung:exact-structured" ->
    Some (if plan.Compiled.profile.Classify.chordal_41 then Forest else Algorithm2)
  | "rung:fixpoint" -> Some Algorithm2
  | "rung:exact-dp" -> Some Dw
  | _ -> None

(* A rung the ladder never selects on this schema leaves no span. Its
   solver is then called directly on the same queries: the forest
   solver and Algorithm 2 on the plan's graph, as the ladder would call
   them (off a (4,1) schema the forest solver's time is its
   out-of-class rejection), and Dreyfus-Wagner on the query's block. *)
let direct_rung ~seconds (p : Bench.prepared) plan rung =
  let u = Compiled.ugraph plan in
  let out = ref [] in
  let (_ : int) =
    over_queries p ~min:20 ~max:(Array.length p.Bench.queries) ~seconds (fun _ q ->
        let pset = q.Workload.p in
        let solve =
          match rung with
          | Forest -> fun () -> Steiner.Forest_steiner.solve u ~terminals:pset
          | Algorithm2 ->
            let c = plan.Compiled.components.(plan.Compiled.comp_id.(Iset.min_elt pset)) in
            fun () ->
              Steiner.Algorithm2.solve_in u ~comp:c.Compiled.nodes ~order:c.Compiled.order
                ~p:pset
          | Dw ->
            let sub, p' = Workload.block_graph p.Bench.nb.Parse.graph pset in
            fun () -> Steiner.Dreyfus_wagner.solve sub ~terminals:p'
        in
        let (_ : Steiner.Tree.t option), dt = Stats.time solve in
        out := ms dt :: !out)
  in
  !out

(* The queries once more through a session with the trace enabled: the
   ladder records one [rung:*] span per rung it attempts. Each rung
   metric is the median duration of its spans; the solver's own span
   ([algorithm2], [dreyfus_wagner]) nests inside and is included. *)
let rung_layers trace tally ~seconds (p : Bench.prepared) plan =
  let session = Session.create ~trace plan in
  let (_ : int) =
    over_queries p ~min:20 ~max:(Array.length p.Bench.queries) ~seconds (fun _ q ->
        check_solution tally p q (Session.query session ~p:q.Workload.p))
  in
  let spans = Trace.spans trace in
  let metric name rung =
    let laddered =
      List.filter_map
        (fun (s : Trace.span) ->
          if rung_of_span plan s.Trace.name = Some rung then Some (ms s.Trace.dur_s)
          else None)
        spans
    in
    let samples, how =
      if laddered <> [] then (laddered, "ladder spans")
      else (direct_rung ~seconds p plan rung, "direct calls (not on the ladder here)")
    in
    Printf.printf "perfbench: %s from %d %s\n" name (List.length samples) how;
    Stats.metric name "ms" (Stats.median samples)
  in
  let forest = metric "steiner.rung_forest_ms" Forest in
  let algorithm2 = metric "steiner.rung_algorithm2_ms" Algorithm2 in
  let dw = metric "steiner.rung_dw_ms" Dw in
  [ forest; algorithm2; dw ]

(* ------------------------------------------------------------ deltas *)

(* The delta mix applied in order, as the server applies it: parse
   against the schema of record, patch the plan, rebase the session. *)
let delta_layers trace tally (p : Bench.prepared) plan session =
  let parse = ref [] and apply = ref [] and rebase = ref [] in
  let recompiled = ref 0 and fallbacks = ref 0 in
  let nb = ref p.Bench.nb and plan = ref plan and session = ref session in
  Array.iter
    (fun (d : Workload.delta) ->
      let r, dt =
        Stats.time (fun () ->
            Trace.span trace "bench.parse.deltas" (fun () ->
                Parse.deltas_of_string !nb d.Workload.text))
      in
      parse := ms dt :: !parse;
      match r with
      | Error e -> Bench.record tally (Error (Runtime.Errors.to_string e))
      | Ok (ops, nb') -> (
        let r, dt = Stats.time (fun () -> Compiled.apply_deltas ~trace !plan ops) in
        apply := ms dt :: !apply;
        match r with
        | Error m -> Bench.record tally (Error m)
        | Ok (plan', stats) ->
          List.iter
            (fun (s : Compiled.delta_stats) ->
              recompiled := !recompiled + List.length s.Compiled.recompiled;
              if s.Compiled.fallback then incr fallbacks)
            stats;
          Bench.record tally
            (if List.exists (fun s -> s.Compiled.fallback) stats then
               Error "delta fell back to a full recompile"
             else Ok ());
          let s', dt =
            Stats.time (fun () ->
                Trace.span trace "bench.session.with_plan" (fun () ->
                    Session.with_plan !session plan'))
          in
          rebase := ms dt :: !rebase;
          nb := nb';
          plan := plan';
          session := s'))
    (Array.concat (Array.to_list p.Bench.deltas));
  let n = List.length !apply in
  ( [
      Stats.metric "parse.deltas_ms" "ms" (Stats.median !parse);
      Stats.metric "compiled.apply_delta_p50_ms" "ms" (Stats.percentile !apply 50.0);
      Stats.metric "compiled.apply_delta_p95_ms" "ms" (Stats.percentile !apply 95.0);
      Stats.metric "compiled.recompiled_per_delta" "count"
        (float_of_int !recompiled /. float_of_int (max 1 n));
      Stats.metric "session.with_plan_ms" "ms" (Stats.median !rebase);
    ],
    Stats.metric "compiled.delta_fallbacks" "count" (float_of_int !fallbacks) )

(* -------------------------------------------------------------- http *)

(* One server, one closed-loop [/solve] connection: setup time and the
   replies, every one checked. *)
let http_phase ~exe o (p : Bench.prepared) tally ~traced ~seconds =
  let srv, setup_s = Bench.setup ~exe o p tally ~traced in
  let replies =
    Bench.solve_loop p ~port:srv.Client.port ~start:0
      ~deadline:(Stats.now () +. seconds) ()
  in
  Client.stop srv;
  List.iter
    (fun (qi, r) -> Bench.record tally (Bench.check_solve p p.Bench.queries.(qi) r))
    replies;
  (setup_s, replies)

let http_p50 replies = Stats.median (List.map (fun (_, r) -> r.Client.ms) replies)

(* What serving adds to the in-process steps: each untraced HTTP
   [/solve] latency minus the in-process step time of the same query,
   median over the pairs. *)
let residual path_ms replies =
  let diffs =
    List.filter_map
      (fun (qi, r) ->
        match Hashtbl.find_all path_ms qi with
        | [] -> None
        | steps -> Some (r.Client.ms -. Stats.median steps))
      replies
  in
  Printf.printf "perfbench: serve.residual_ms over %d paired /solve samples\n"
    (List.length diffs);
  Stats.median diffs

(* The per-layer metrics, and the guards that must read 0 on a passing
   run (printed, not listed in BENCHMARK.json). *)
let run ~exe (o : Bench.options) (p : Bench.prepared) tally =
  let secs = float_of_int o.Bench.seconds in
  let trace = Trace.make () in
  let plan, compile_m = compile_layers trace o p in
  let live = live_words plan in
  let session, session_m, path_ms =
    session_layers tally ~seconds:(0.2 *. secs) p plan
  in
  let rung_m = rung_layers trace tally ~seconds:(0.1 *. secs) p plan in
  let delta_m, fallbacks = delta_layers trace tally p plan session in
  let dump = Filename.concat o.Bench.work "spans.ndjson" in
  Observe.Export.write_trace ~path:dump trace;
  Printf.printf "perfbench: spans=%d dump=%s\n" (Trace.span_count trace) dump;
  let setup_u, http_u = http_phase ~exe o p tally ~traced:false ~seconds:(0.2 *. secs) in
  let setup_t, http_t = http_phase ~exe o p tally ~traced:true ~seconds:(0.2 *. secs) in
  let metrics =
    compile_m
    @ [ Stats.metric "plan.live_words" "words" live ]
    @ session_m @ rung_m @ delta_m
    @ [
        Stats.metric "serve.residual_ms" "ms" (residual path_ms http_u);
        Stats.metric "trace.overhead_ratio" "ratio" (http_p50 http_t /. http_p50 http_u);
        Stats.metric "trace.setup_overhead_ratio" "ratio" (setup_t /. setup_u);
      ]
  in
  (metrics, [ fallbacks ])
