(** One-stop classification of a bipartite graph against every class the
    paper studies, plus the solver recommendation that Section 3
    justifies. *)

open Hypergraphs

type profile = {
  chordal_41 : bool;  (** (4,1)-chordal, i.e. a forest *)
  chordal_62 : bool;  (** (6,2)-chordal, i.e. H¹ γ-acyclic *)
  chordal_61 : bool;  (** (6,1)-chordal, i.e. H¹ β-acyclic *)
  v2_chordal : bool;
  v2_conformal : bool;
  v1_chordal : bool;
  v1_conformal : bool;
  alpha_h1 : bool;  (** = v2_chordal && v2_conformal (Theorem 1 (v)) *)
  alpha_h2 : bool;
  degree_h1 : Acyclicity.degree;
  degree_h2 : Acyclicity.degree;
}

(** What Section 3 licenses on this graph. *)
type recommendation =
  | Steiner_polynomial
      (** (6,2)-chordal: Algorithm 2 solves full Steiner exactly
          (Theorem 5). *)
  | Pseudo_steiner_v2
      (** α-acyclic H¹ only: Algorithm 1 minimises V₂ nodes (Theorem 4);
          full Steiner is NP-hard here (Theorem 2). *)
  | Pseudo_steiner_v1
      (** α-acyclic H² only: Algorithm 1 on the flipped graph. *)
  | Pseudo_steiner_both
      (** both sides α-acyclic but not (6,2)-chordal. *)
  | Exact_search_only
      (** no structure: fall back to exponential exact search or the
          MST approximation. *)

val profile : ?trace:Observe.Trace.t -> Bigraph.t -> profile
(** Runs at most nine recognizers and derives every other field:
    - [chordal_41]: forest check;
    - [chordal_62]: γ-acyclicity of H¹, only when not a forest;
    - [chordal_61]: β-acyclicity of H¹, only when not (6,2)-chordal
      (hierarchy (4,1) ⊆ (6,2) ⊆ (6,1));
    - [degree_h1]/[degree_h2]: Berge/γ/β levels from the three verdicts
      above on both sides, since those levels are self-dual
      (Corollary 1);
    - side fields all [true] when (6,1)-chordal (Corollary 2);
      otherwise per side GYO α-acyclicity, then chordality of the
      two-section unless α, then conformality only if neither α nor
      chordal (α ⇔ chordal ∧ conformal, Theorem 1 (v)/(vi)).
    H¹, H² and the two-sections are built only when a check needs
    them. [trace] (default disabled) records a ["classify"] span with
    one child span per recognizer that ran ([classify.chordal_41],
    [classify.h2.conformal], ...) and the headline chordality verdicts
    as attributes. *)

val neutral : profile
(** The profile of the empty graph — identity of {!combine}: every
    check true, both degrees Berge-acyclic. *)

val combine : profile array -> profile
(** Conjunction of per-component profiles: booleans combine by [&&],
    degrees by worst level. Because every recognizer the profile runs
    is component-local, [combine] over the profiles of the induced
    connected components equals the whole-graph profile — the
    decomposition {!Engine.Compiled.apply_delta} exploits to re-profile
    only the components a schema delta touches (pinned by the
    differential suite in test/test_evolve.ml). *)

val recommend : profile -> recommendation

val recommendation_name : recommendation -> string

val theorem1_consistent : profile -> bool
(** Internal consistency demanded by Theorem 1 and Corollary 2:
    [chordal_61 = beta(H¹)] implies both-side chordality+conformity,
    [alpha_h1 = v2_chordal && v2_conformal], etc. The test suite and the
    benchmark harness evaluate this on every generated graph. *)

val pp_profile : Format.formatter -> profile -> unit
