open Graphs
open Bipartite
module Budget = Runtime.Budget
module Degrade = Runtime.Degrade
module Errors = Runtime.Errors
module Fault = Runtime.Fault
module Tree = Steiner.Tree
module Algorithm1 = Steiner.Algorithm1
module Algorithm2 = Steiner.Algorithm2
module Dreyfus_wagner = Steiner.Dreyfus_wagner
module Mst_approx = Steiner.Mst_approx

type method_used =
  | Used_forest
  | Used_algorithm2
  | Used_exact_dp
  | Used_elimination
  | Used_mst_approx

type solution = {
  tree : Tree.t;
  method_used : method_used;
  optimal : bool;
  profile : Classify.profile;
  provenance : Degrade.provenance;
}

type t = {
  compiled : Compiled.t;
  budget : Budget.t;
  degrade : bool;
  trace : Observe.Trace.t;
  metrics : Observe.Metrics.t;
  alg1_scratch : Algorithm1.scratch Lazy.t;
}

let create ?(budget = Budget.unlimited) ?(degrade = true)
    ?(trace = Observe.Trace.disabled) ?(metrics = Observe.Metrics.disabled)
    compiled =
  {
    compiled;
    budget;
    degrade;
    trace;
    metrics;
    (* n-sized, and only [query_relations] reads it: built on first
       use, off the plan's CSR arena alone. *)
    alg1_scratch = lazy (Algorithm1.make_scratch_csr (Compiled.csr compiled));
  }

let compiled t = t.compiled

(* Plan swap for live schema evolution: the Algorithm 1 scratch is
   sized to the plan's CSR arena, so a session observing a new plan
   needs a fresh one — reusing the old scratch against a grown graph
   would read out of bounds. Budget, degradation policy and
   observability sinks carry over; the physical-equality fast path
   makes the per-request resync in lib/serve free when the schema has
   not changed. *)
let with_plan t compiled =
  if compiled == t.compiled then t
  else
    {
      t with
      compiled;
      alg1_scratch =
        lazy (Algorithm1.make_scratch_csr (Compiled.csr compiled));
    }

(* O(|p| + log n) location against the cached component ids — the
   one-shot path pays a BFS here on every call. *)
let locate t ~p =
  let c = t.compiled in
  match (Iset.min_elt_opt p, Iset.max_elt_opt p) with
  | None, _ | _, None ->
    Error (Errors.Invalid_instance "empty terminal set")
  | Some lo, Some hi ->
    if lo < 0 || hi >= Bigraph.n c.Compiled.graph then
      Error (Errors.Invalid_instance "terminal index out of range")
    else begin
      let cid = c.Compiled.comp_id.(lo) in
      if Iset.for_all (fun v -> c.Compiled.comp_id.(v) = cid) p then
        Ok c.Compiled.components.(cid)
      else Error Errors.Disconnected_terminals
    end

(* One rung of the degradation ladder: identity for provenance, the
   method tag and guarantee reported on success, and the solver thunk
   (the only place the internal Budget.Exhausted signal can arise). *)
type rung_spec = {
  rung : Errors.rung;
  meth : method_used;
  guarantee : Degrade.guarantee;
  run : unit -> Tree.t option;
}

(* The per-query ladder, parameterized over the trace sink so a
   parallel batch can hand each task its own fork; [query] passes the
   session's own. Every rung runs on the terminals' component
   materialised as a flat local graph ([Compiled.local]) with
   array-based kernels, so a query costs O(|component|) whatever the
   size of the schema, allocates little beyond the local graph and the
   answer, and the ladder is chosen by that component's own class. *)
let query_in ?budget ?degrade ~trace t ~p =
  let budget = match budget with Some b -> b | None -> t.budget in
  let degrade = match degrade with Some d -> d | None -> t.degrade in
  let metrics = t.metrics in
  match locate t ~p with
  | Error e -> Error e
  | Ok comp ->
    Observe.Trace.span trace "query"
      ~attrs:
        [
          ("terminals", Observe.Trace.Int (Iset.cardinal p));
          ("component", Observe.Trace.Int (Iset.cardinal comp.Compiled.nodes));
        ]
    @@ fun () ->
    Observe.Metrics.incr (Observe.Metrics.counter metrics "engine.queries");
    let profile = comp.Compiled.cprofile in
    let c, ids = Compiled.local t.compiled comp in
    (* [p] ascending maps to ascending local ids: the renumbering is
       monotone. *)
    let terminals = Array.make (Iset.cardinal p) 0 in
    let i = ref 0 in
    Iset.iter
      (fun v ->
        terminals.(!i) <- Compiled.local_id ids v;
        incr i)
      p;
    (* The set-based view of the local graph, for the two consumers
       that still take one: the MST rung and the traced verification. *)
    let sets = lazy (Csr.to_ugraph c, Iset.of_array terminals) in
    let algorithm2 () =
      let order = Array.make (Csr.n c) 0 in
      List.iteri
        (fun i v -> order.(i) <- Compiled.local_id ids v)
        comp.Compiled.order;
      Algorithm2.solve_local ~budget ~trace ~metrics c ~order ~terminals
    in
    let mst_rung =
      {
        rung = Errors.Mst;
        meth = Used_mst_approx;
        guarantee = Degrade.Ratio 2.0;
        run =
          (fun () ->
            let u, lp = Lazy.force sets in
            Mst_approx.solve_connected ~trace u ~terminals:lp);
      }
    in
    let fixpoint_rung =
      {
        rung = Errors.Fixpoint;
        meth = Used_elimination;
        guarantee = Degrade.Heuristic;
        run = algorithm2;
      }
    in
    let pre_attempts, ladder =
      if profile.Classify.chordal_41 then
        ( [],
          [
            {
              rung = Errors.Exact_structured;
              meth = Used_forest;
              guarantee = Degrade.Exact;
              run =
                (fun () -> Steiner.Forest_steiner.solve_local c ~terminals);
            };
            mst_rung;
          ] )
      else if profile.Classify.chordal_62 then
        (* Algorithm 2 is exact here (Theorem 5); its elimination
           fixpoint is what the budget meters, and on exhaustion the
           only rung left is the approximation. *)
        ( [],
          [
            {
              rung = Errors.Exact_structured;
              meth = Used_algorithm2;
              guarantee = Degrade.Exact;
              run = algorithm2;
            };
            mst_rung;
          ] )
      else if Array.length terminals <= Dreyfus_wagner.max_terminals then
        ( [],
          [
            {
              rung = Errors.Exact_dp;
              meth = Used_exact_dp;
              guarantee = Degrade.Exact;
              run =
                (fun () ->
                  Dreyfus_wagner.solve_local ~budget ~trace ~metrics c
                    ~terminals);
            };
            fixpoint_rung;
            mst_rung;
          ] )
      else
        (* The exact DP was never attempted: say so in the provenance
           instead of silently reporting [optimal = false]. *)
        ( [
            {
              Degrade.rung = Errors.Exact_dp;
              why = Degrade.Terminals_over_cap;
            };
          ],
          [ fixpoint_rung; mst_rung ] )
    in
    let abandonments = Observe.Metrics.counter metrics "rung.abandonments" in
    let budget_checks = Observe.Metrics.counter metrics "budget.checks" in
    (* One span per attempted rung: outcome, abandonment reason, and the
       number of cooperative budget checks the rung consumed (a delta of
       [Budget.spent], so the hot path gains no new counter). *)
    let run_rung spec =
      Observe.Trace.span trace ("rung:" ^ Errors.rung_name spec.rung)
      @@ fun () ->
      let checks0 = Budget.spent budget in
      let outcome =
        match spec.run () with
        | Some tree -> `Ran tree
        | None -> `Abandoned Degrade.Out_of_class
        | exception Budget.Exhausted stop ->
          `Exhausted (stop, Degrade.reason_of_stop stop)
      in
      Observe.Metrics.incr ~by:(Budget.spent budget - checks0) budget_checks;
      Observe.Trace.add_attr trace "budget_checks"
        (Observe.Trace.Int (Budget.spent budget - checks0));
      (match outcome with
      | `Ran tree ->
        Observe.Trace.add_attr trace "outcome" (Observe.Trace.Str "ran");
        Observe.Trace.add_attr trace "tree_nodes"
          (Observe.Trace.Int (Tree.node_count tree))
      | `Abandoned why | `Exhausted (_, why) ->
        Observe.Metrics.incr abandonments;
        Observe.Trace.add_attr trace "outcome" (Observe.Trace.Str "abandoned");
        Observe.Trace.add_attr trace "reason"
          (Observe.Trace.Str (Degrade.reason_name why)));
      outcome
    in
    let rec descend attempts = function
      | [] ->
        (* Unreachable with a connected [p]: the MST rung is
           un-budgeted and total. Report the last abandoned rung. *)
        Error
          (Errors.Budget_exhausted
             (match attempts with
             | { Degrade.rung; _ } :: _ -> rung
             | [] -> Errors.Mst))
      | spec :: rest -> (
        match run_rung spec with
        | `Ran tree ->
          let provenance =
            {
              Degrade.ran = spec.rung;
              attempts = List.rev attempts;
              guarantee = spec.guarantee;
            }
          in
          Degrade.trace_ran trace provenance;
          if Observe.Trace.active trace then
            Observe.Trace.span trace "verify" (fun () ->
                Observe.Trace.add_attr trace "covers_terminals"
                  (let u, lp = Lazy.force sets in
                   Observe.Trace.Bool (Tree.verify u ~terminals:lp tree)));
          Ok
            {
              tree = Tree.lift ids tree;
              method_used = spec.meth;
              optimal = spec.guarantee = Degrade.Exact;
              profile;
              provenance;
            }
        | `Abandoned why ->
          let attempt = { Degrade.rung = spec.rung; why } in
          Degrade.trace_abandon trace attempt;
          descend (attempt :: attempts) rest
        | `Exhausted (_, why) ->
          let attempt = { Degrade.rung = spec.rung; why } in
          Degrade.trace_abandon trace attempt;
          if degrade then descend (attempt :: attempts) rest
          else Error (Errors.Budget_exhausted spec.rung))
    in
    List.iter (Degrade.trace_abandon trace) pre_attempts;
    descend (List.rev pre_attempts) ladder

let query ?budget ?degrade t ~p = query_in ?budget ?degrade ~trace:t.trace t ~p

let solve_many ?pool ?budget ?make_budget ?degrade t ps =
  (* Queries must behave identically however they are spread over
     domains, so the batch path — sequential included — snapshots the
     caller's fault plan once and re-derives an independent plan per
     query index. *)
  let fault = Fault.capture () in
  let budget_for i =
    match make_budget with Some f -> Some (f i) | None -> budget
  in
  let run ~trace i p =
    Fault.with_derived fault ~index:i (fun () ->
        query_in ?budget:(budget_for i) ?degrade ~trace t ~p)
  in
  match pool with
  | Some pool when Parallel.Pool.domains pool > 1 && List.length ps > 1 ->
    let effective =
      match budget with Some b -> b | None -> t.budget
    in
    if make_budget = None && not (Budget.is_unlimited effective) then
      invalid_arg
        "Session.solve_many: a pooled batch needs per-query budgets \
         (?make_budget, e.g. fun _ -> Budget.Shared.view handle); one \
         mutable budget cannot be shared across domains";
    let ps = Array.of_list ps in
    (* The plan is immutable and each query builds its own local graph,
       so workers share no mutable state. *)
    let forks = Array.map (fun _ -> Observe.Trace.fork t.trace) ps in
    let out =
      Parallel.Pool.mapi_worker pool
        (fun ~worker:_ ~index p -> run ~trace:forks.(index) index p)
        ps
    in
    Array.iter (Observe.Trace.merge t.trace) forks;
    Array.to_list out
  | _ -> List.mapi (fun i p -> run ~trace:t.trace i p) ps

(* Algorithm 1 against the compiled join-tree ordering: the GYO work
   was paid at compile time, each query only replays the elimination
   on the session scratch. *)
let query_relations t ~p =
  match locate t ~p with
  | Error e -> Error e
  | Ok comp -> (
    match comp.Compiled.alg1_prep with
    | Error Algorithm1.Not_alpha_acyclic ->
      Error
        (Errors.Invalid_instance
           "scheme is not alpha-acyclic (V2-chordal V2-conformal)")
    | Error Algorithm1.Disconnected_terminals ->
      (* prepare never returns this; locate already placed [p]. *)
      Error Errors.Disconnected_terminals
    | Ok prep -> (
      match
        Algorithm1.solve_prepared ~trace:t.trace
          ~scratch:(Lazy.force t.alg1_scratch) t.compiled.Compiled.graph prep
          ~p
      with
      | Ok r -> Ok r
      | Error Algorithm1.Disconnected_terminals ->
        Error Errors.Disconnected_terminals
      | Error Algorithm1.Not_alpha_acyclic ->
        Error
          (Errors.Invalid_instance
             "scheme is not alpha-acyclic (V2-chordal V2-conformal)")))
