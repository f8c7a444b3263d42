//! Bradley-style IC3/PDR over the incremental stack.
//!
//! One persistent [`IncrementalSolver`] carries a **two-frame** unrolling —
//! `T(0→1)` with the frame constraints of both copies — and every
//! frame-wise reachability query rides on retractable assumptions:
//!
//! * the initial states are asserted under an `init` **activation literal**,
//!   so `F_0 = init` queries assume it and relative-induction queries leave
//!   it retracted;
//! * a frame clause learned at level `l` is asserted as
//!   `act_l → clause@0`; querying `F_j` assumes `act_l` for every `l ≥ j`,
//!   which makes the frame-monotonicity `F_{j+1} ⊆ F_j` a property of the
//!   assumption set instead of a copying discipline.  *Pushing* a clause to
//!   the next frame just re-asserts it under the next level's literal — the
//!   old guarded copy stays valid because the clause also still holds in
//!   every earlier frame.
//!
//! A satisfiable frontier query `F_N ∧ bad` yields a **cube** (the
//! conjunction of the model's state-variable values) and a proof obligation
//! at level `N`.  Blocking an obligation `(s, k)` asks the relative
//! induction query `F_{k-1} ∧ ¬s ∧ T ∧ s′` with the primed cube passed as
//! *individual* assumptions: on UNSAT, [`IncrementalSolver::core_subset`]
//! says which literals the final conflict actually used, and the rest are
//! dropped from the learned clause — unsat-core cube **generalisation** for
//! the price of a filter.  A generalised cube is re-checked against the
//! initial states (a dropped literal may have been what excluded them) and
//! falls back to the ungeneralised cube if it now intersects.
//!
//! The frames converge when some level `i < N` holds no clause of exactly
//! level `i` — then `F_i = F_{i+1}`, and the conjunction of the clauses at
//! level `≥ i` is a 1-inductive invariant.  It ships as a
//! [`ProofCertificate::Inductive`] for the independent self-check.
//!
//! On falsification PDR does **not** reconstruct the trace from its
//! obligation chain (generalised frames make that fragile); it re-runs the
//! bounded checker at the discovered depth and returns *its* witness — the
//! reference path, shortest-first, already wired for witness replay.
//!
//! Cone-of-influence reduction is disabled throughout: cubes range over
//! *all* state variables, and a variable whose next-state update the cone
//! pass dropped would float unconstrained inside them.  Word-level
//! rewriting and the AIG layer stay on (equisatisfiability-preserving).

use std::time::Instant;

use sepe_smt::{IncrementalSolver, SatResult, Sort, StopReason, TermId, TermManager};

use crate::bmc::{Bmc, BmcConfig, BmcMode, BmcResult};
use crate::prove::{ProofCertificate, ProofMethod, ProofRun, ProveStats};
use crate::ts::TransitionSystem;
use crate::unroll::Unroller;

/// One cube literal: a state variable pinned to a model value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CubeLit {
    /// The original (unprimed) state variable.
    var: TermId,
    /// Its value in the model.
    value: u64,
}

/// A conjunction of [`CubeLit`]s — a (possibly generalised) state cube.
type Cube = Vec<CubeLit>;

/// A frame clause: the negation of a blocked cube, tracked at the highest
/// frame level it is known to hold relative to.
#[derive(Debug, Clone)]
struct FrameClause {
    /// The blocked cube (over original state variables).
    cube: Cube,
    /// The clause `¬cube` as a term over the original state variables.
    clause: TermId,
    /// Highest level the clause belongs to: it holds in `F_j` for every
    /// `j ≤ level`.
    level: usize,
}

/// The IC3/PDR prover.  Reuses [`BmcConfig`] wholesale (budgets,
/// cancellation, preprocessing toggles, fault plan); `mode`,
/// `frame_rescore` and the cone-of-influence half of `simplify` are
/// ignored.
#[derive(Debug, Clone, Default)]
pub struct Pdr {
    config: BmcConfig,
}

/// Internal signal that a run must stop without a verdict.
struct Interrupted(StopReason);

impl Pdr {
    /// Creates a prover with the given configuration.
    pub fn new(config: BmcConfig) -> Self {
        Pdr { config }
    }

    /// Runs the frame loop up to frontier `max_frames`.
    ///
    /// Outcomes mirror [`KInduction::check`](crate::KInduction::check):
    /// [`BmcResult::Counterexample`] with a reference-BMC witness,
    /// [`BmcResult::Proved`] with an inductive-invariant certificate,
    /// [`BmcResult::NoCounterexample`] when the frontier cap passes without
    /// convergence (still a sound bounded verdict: `F_N ⊨ ¬bad` was
    /// established for every opened frontier), [`BmcResult::Unknown`] on a
    /// budget or fault.  `config.start_bound ≥ 1` skips the depth-0
    /// `init ∧ bad` check, mirroring the bounded modes.
    pub fn check(
        &mut self,
        tm: &mut TermManager,
        ts: &TransitionSystem,
        max_frames: usize,
    ) -> ProofRun {
        let mut engine = PdrEngine::open(tm, ts, &self.config);
        let started = engine.started;
        match engine.run(tm, max_frames) {
            Ok(result) => {
                let certificate = match &result {
                    BmcResult::Proved { .. } => Some(ProofCertificate::Inductive {
                        clauses: engine.invariant_clauses(),
                    }),
                    _ => None,
                };
                let mut stats = engine.stats();
                stats.duration = started.elapsed();
                ProofRun {
                    result,
                    certificate,
                    stats,
                }
            }
            Err(Interrupted(reason)) => {
                let mut stats = engine.stats();
                stats.duration = started.elapsed();
                ProofRun {
                    result: BmcResult::Unknown {
                        bound: engine.frontier,
                        reason,
                    },
                    certificate: None,
                    stats,
                }
            }
        }
    }
}

/// The live state of one PDR run.
struct PdrEngine {
    config: BmcConfig,
    solver: IncrementalSolver,
    unroller: Unroller,
    /// Activation literal guarding the initial-state assertion.
    init_act: TermId,
    not_init_act: TermId,
    /// Per-level clause activation literals (index 0 unused).
    level_acts: Vec<TermId>,
    clauses: Vec<FrameClause>,
    frontier: usize,
    /// Level of the invariant when the frames converged.
    converged_at: Option<usize>,
    started: Instant,
    queries: u64,
    cubes_blocked: u64,
    literals_dropped: u64,
    clauses_pushed: u64,
}

impl PdrEngine {
    fn open(tm: &mut TermManager, ts: &TransitionSystem, config: &BmcConfig) -> Self {
        let started = Instant::now();
        let mut solver = config.incremental_solver(started);
        let mut unroller = Unroller::new(ts);
        let c0 = unroller.constraints_at(tm, 0);
        solver.assert_term(tm, c0);
        let c1 = unroller.constraints_at(tm, 1);
        solver.assert_term(tm, c1);
        let t01 = unroller.transition(tm, 0);
        solver.assert_term(tm, t01);
        let init_act = tm.fresh_var("pdr_init_act", Sort::Bool);
        let init = unroller.init(tm);
        let guarded = tm.implies(init_act, init);
        solver.assert_term(tm, guarded);
        let not_init_act = tm.not(init_act);
        PdrEngine {
            config: config.clone(),
            solver,
            unroller,
            init_act,
            not_init_act,
            level_acts: Vec::new(),
            clauses: Vec::new(),
            frontier: 0,
            converged_at: None,
            started,
            queries: 0,
            cubes_blocked: 0,
            literals_dropped: 0,
            clauses_pushed: 0,
        }
    }

    fn stats(&self) -> ProveStats {
        let solver = self.solver.stats();
        ProveStats {
            queries: self.queries,
            conflicts: solver.conflicts,
            duration: self.started.elapsed(),
            depth_reached: self.frontier,
            uniqueness_constraints: 0,
            cubes_blocked: self.cubes_blocked,
            literals_dropped: self.literals_dropped,
            clauses_pushed: self.clauses_pushed,
            solver,
        }
    }

    /// The converged invariant's clauses over the original state variables.
    fn invariant_clauses(&self) -> Vec<TermId> {
        let at = self.converged_at.unwrap_or(usize::MAX);
        self.clauses
            .iter()
            .filter(|c| c.level >= at)
            .map(|c| c.clause)
            .collect()
    }

    /// The activation literal of `level`, created on first use.
    fn act(&mut self, tm: &mut TermManager, level: usize) -> TermId {
        while self.level_acts.len() <= level {
            let idx = self.level_acts.len();
            self.level_acts
                .push(tm.fresh_var(&format!("pdr_act_l{idx}"), Sort::Bool));
        }
        self.level_acts[level]
    }

    /// Assumption set selecting frame `m`: `F_0` is the initial states,
    /// `F_m` (m ≥ 1) is every clause of level ≥ m.
    fn frame_assumptions(&mut self, tm: &mut TermManager, m: usize) -> Vec<TermId> {
        if m == 0 {
            return vec![self.init_act];
        }
        let top = self.level_acts.len().saturating_sub(1).max(m);
        let mut assumptions = vec![self.not_init_act];
        for level in m..=top {
            let a = self.act(tm, level);
            assumptions.push(a);
        }
        assumptions
    }

    /// One `check_assuming` with budget classification.  The wall budget is
    /// re-polled out here too: PDR issues thousands of individually cheap
    /// queries, so the solver-side deadline (checked during search) alone
    /// would let a run overshoot by the full obligation cascade.
    fn query(
        &mut self,
        tm: &mut TermManager,
        assumptions: &[TermId],
    ) -> Result<SatResult, Interrupted> {
        if let Some(limit) = self.config.time_limit {
            if self.started.elapsed() >= limit {
                return Err(Interrupted(StopReason::Deadline));
            }
        }
        let result = self.solver.check_assuming(tm, assumptions);
        self.queries += 1;
        if result == SatResult::Unknown {
            let reason = self
                .solver
                .stop_reason()
                .unwrap_or(StopReason::ConflictBudget);
            return Err(Interrupted(reason));
        }
        Ok(result)
    }

    /// Extracts the full state cube of the model's frame 0.
    fn model_cube(&mut self, tm: &mut TermManager) -> Cube {
        let state_vars = self.unroller.ts().state_vars();
        let vars: Vec<TermId> = state_vars.iter().map(|v| v.current).collect();
        let mut cube = Vec::with_capacity(vars.len());
        for var in vars {
            let at0 = self.unroller.var_at(tm, var, 0);
            let value = self.solver.model(tm).value(at0);
            cube.push(CubeLit { var, value });
        }
        cube
    }

    /// The cube's literal as a term at frame `k`.
    fn lit_at(&mut self, tm: &mut TermManager, lit: CubeLit, k: usize) -> TermId {
        let at = self.unroller.var_at(tm, lit.var, k);
        let value = match tm.sort(lit.var) {
            Sort::Bool => tm.bool_const(lit.value != 0),
            Sort::BitVec(w) => tm.bv_const(lit.value, w),
        };
        tm.eq(at, value)
    }

    /// `¬cube` at frame 0: at least one literal differs.
    fn negated_cube_at0(&mut self, tm: &mut TermManager, cube: &Cube) -> TermId {
        let lits: Vec<TermId> = cube
            .iter()
            .map(|&lit| {
                let eq = self.lit_at(tm, lit, 0);
                tm.not(eq)
            })
            .collect();
        tm.or_many(lits)
    }

    /// The clause `¬cube` over the *original* state variables (certificate
    /// currency).
    fn clause_term(&mut self, tm: &mut TermManager, cube: &Cube) -> TermId {
        let lits: Vec<TermId> = cube
            .iter()
            .map(|lit| {
                let value = match tm.sort(lit.var) {
                    Sort::Bool => tm.bool_const(lit.value != 0),
                    Sort::BitVec(w) => tm.bv_const(lit.value, w),
                };
                tm.neq(lit.var, value)
            })
            .collect();
        tm.or_many(lits)
    }

    /// Whether the cube intersects the initial states.
    fn intersects_init(&mut self, tm: &mut TermManager, cube: &Cube) -> Result<bool, Interrupted> {
        let mut assumptions = vec![self.init_act];
        for &lit in cube {
            let t = self.lit_at(tm, lit, 0);
            assumptions.push(t);
        }
        Ok(self.query(tm, &assumptions)? == SatResult::Sat)
    }

    /// Records `¬cube` as a frame clause at `level` and asserts its guarded
    /// frame-0 copy.
    fn add_clause(&mut self, tm: &mut TermManager, cube: Cube, level: usize) {
        let clause = self.clause_term(tm, &cube);
        let at0 = self.unroller.term_at(tm, clause, 0);
        let act = self.act(tm, level);
        let guarded = tm.implies(act, at0);
        self.solver.assert_term(tm, guarded);
        self.clauses.push(FrameClause {
            cube,
            clause,
            level,
        });
        self.cubes_blocked += 1;
    }

    /// Handles the obligation queue rooted at one frontier counterexample
    /// cube; `Ok(Some(steps))` means a real counterexample was traced to
    /// the initial states, with `steps` transitions between the initial
    /// cube and the bad state.  Each obligation carries its exact
    /// distance-to-bad: re-enqueued cubes keep chasing the frontier at the
    /// same distance, so a chain can be *longer* than the frontier and the
    /// frontier alone would under-report the trace depth.
    fn block_obligations(
        &mut self,
        tm: &mut TermManager,
        root: Cube,
        root_level: usize,
    ) -> Result<Option<usize>, Interrupted> {
        // (cube, level, transitions from the cube to the bad state)
        let mut obligations: Vec<(Cube, usize, usize)> = vec![(root, root_level, 0)];
        while !obligations.is_empty() {
            // Lowest level first: counterexamples surface at the initial
            // states as early as possible.
            let idx = obligations
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, k, _))| *k)
                .map(|(i, _)| i)
                .expect("queue is non-empty");
            let (cube, k, dist) = obligations.swap_remove(idx);
            // An obligation cube that contains an initial state is a real
            // counterexample: the obligation chain connects it to bad.
            if self.intersects_init(tm, &cube)? {
                return Ok(Some(dist));
            }
            if k == 0 {
                // Cannot happen with the init check above (a level-0
                // predecessor was extracted under the init assumption),
                // but a queue entry at 0 is by definition traced to init.
                return Ok(Some(dist));
            }
            // Relative induction: F_{k-1} ∧ ¬cube ∧ T ∧ cube′, the primed
            // literals passed individually for core-based generalisation.
            let mut assumptions = self.frame_assumptions(tm, k - 1);
            let ncube = self.negated_cube_at0(tm, &cube);
            assumptions.push(ncube);
            let primed: Vec<TermId> = cube.iter().map(|&lit| self.lit_at(tm, lit, 1)).collect();
            assumptions.extend(&primed);
            match self.query(tm, &assumptions)? {
                SatResult::Unsat => {
                    // Generalise: keep only the literals the final conflict
                    // used, unless the shrunken cube drifts into init.
                    let core = self.solver.core_subset(&primed);
                    let mut general: Cube = cube
                        .iter()
                        .zip(&primed)
                        .filter(|(_, p)| core.contains(p))
                        .map(|(&lit, _)| lit)
                        .collect();
                    if general.is_empty() || self.intersects_init(tm, &general)? {
                        general = cube.clone();
                    }
                    self.literals_dropped += (cube.len() - general.len()) as u64;
                    self.add_clause(tm, general, k);
                    // Re-enqueue one frame later: re-blocking the same cube
                    // at k+1 is how obligations chase the frontier and how
                    // clauses end up high enough to converge.
                    if k < self.frontier {
                        obligations.push((cube, k + 1, dist));
                    }
                }
                SatResult::Sat => {
                    let predecessor = self.model_cube(tm);
                    obligations.push((predecessor, k - 1, dist + 1));
                    obligations.push((cube, k, dist));
                }
                SatResult::Unknown => unreachable!("query classifies Unknown"),
            }
        }
        Ok(None)
    }

    /// Pushes every clause that is inductive relative to its own level one
    /// frame forward; reports whether some level `i < frontier` emptied
    /// (frame convergence).
    fn push_clauses(&mut self, tm: &mut TermManager) -> Result<Option<usize>, Interrupted> {
        for level in 1..self.frontier {
            let candidates: Vec<usize> = (0..self.clauses.len())
                .filter(|&i| self.clauses[i].level == level)
                .collect();
            for i in candidates {
                let cube = self.clauses[i].cube.clone();
                // F_level ∧ T ∧ cube′ unsat ⇒ ¬cube also holds in
                // F_{level+1}.
                let mut assumptions = self.frame_assumptions(tm, level);
                let primed: Vec<TermId> = cube.iter().map(|&lit| self.lit_at(tm, lit, 1)).collect();
                assumptions.extend(&primed);
                if self.query(tm, &assumptions)? == SatResult::Unsat {
                    let clause = self.clauses[i].clause;
                    let at0 = self.unroller.term_at(tm, clause, 0);
                    let act = self.act(tm, level + 1);
                    let guarded = tm.implies(act, at0);
                    self.solver.assert_term(tm, guarded);
                    self.clauses[i].level = level + 1;
                    self.clauses_pushed += 1;
                }
            }
        }
        for level in 1..self.frontier {
            if !self.clauses.iter().any(|c| c.level == level) {
                return Ok(Some(level));
            }
        }
        Ok(None)
    }

    fn run(&mut self, tm: &mut TermManager, max_frames: usize) -> Result<BmcResult, Interrupted> {
        // Depth-0 base: init ∧ bad (skipped when start_bound ≥ 1, exactly
        // like the bounded modes' by-construction guarantee).
        if self.config.start_bound == 0 {
            let bad0 = self.unroller.bad_at(tm, 0);
            let assumptions = [self.init_act, bad0];
            if self.query(tm, &assumptions)? == SatResult::Sat {
                return self.confirmed_counterexample(tm, 0);
            }
        }
        for frontier in 1..=max_frames {
            self.frontier = frontier;
            if self.config.fault.cancel_at_depth == Some(frontier) {
                return Err(Interrupted(StopReason::Cancelled));
            }
            // Block every bad state out of the frontier frame.
            loop {
                let bad0 = self.unroller.bad_at(tm, 0);
                let mut assumptions = self.frame_assumptions(tm, frontier);
                assumptions.push(bad0);
                if self.query(tm, &assumptions)? == SatResult::Unsat {
                    break;
                }
                let cube = self.model_cube(tm);
                if let Some(steps) = self.block_obligations(tm, cube, frontier)? {
                    return self.confirmed_counterexample(tm, steps);
                }
            }
            if let Some(level) = self.push_clauses(tm)? {
                self.converged_at = Some(level);
                return Ok(BmcResult::Proved {
                    method: ProofMethod::Pdr,
                    depth: frontier,
                });
            }
        }
        Ok(BmcResult::NoCounterexample { bound: max_frames })
    }

    /// Re-derives a falsification through the bounded reference checker so
    /// the returned witness is a genuine shortest-first BMC trace (PDR's
    /// own obligation chain is generalised away from concrete inputs).
    fn confirmed_counterexample(
        &mut self,
        tm: &mut TermManager,
        depth_hint: usize,
    ) -> Result<BmcResult, Interrupted> {
        let config = BmcConfig {
            mode: BmcMode::PerDepth,
            frame_rescore: None,
            ..self.config.clone()
        };
        let mut bmc = Bmc::new(config);
        match bmc.check(tm, self.unroller.ts(), depth_hint) {
            BmcResult::Counterexample(witness) => Ok(BmcResult::Counterexample(witness)),
            BmcResult::Unknown { reason, .. } => Err(Interrupted(reason)),
            // The frames said "reachable", the reference checker says "not
            // within the hinted depth": a structured disagreement, the
            // falsification-side analogue of a failed certificate check.
            _ => Err(Interrupted(StopReason::ProofMismatch)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prove::verify_certificate;

    fn capped_counter(tm: &mut TermManager) -> TransitionSystem {
        let count = tm.var("count", Sort::BitVec(2));
        let zero = tm.zero(2);
        let one = tm.one(2);
        let two = tm.bv_const(2, 2);
        let three = tm.bv_const(3, 2);
        let at_two = tm.eq(count, two);
        let inc = tm.bv_add(count, one);
        let next = tm.ite(at_two, zero, inc);
        let bad = tm.eq(count, three);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, count, Some(zero), next);
        ts.add_bad(bad);
        ts
    }

    fn free_counter(tm: &mut TermManager) -> TransitionSystem {
        let count = tm.var("count", Sort::BitVec(2));
        let zero = tm.zero(2);
        let one = tm.one(2);
        let three = tm.bv_const(3, 2);
        let next = tm.bv_add(count, one);
        let bad = tm.eq(count, three);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, count, Some(zero), next);
        ts.add_bad(bad);
        ts
    }

    #[test]
    fn proves_the_capped_counter_with_a_verifying_invariant() {
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let run = Pdr::new(BmcConfig::default()).check(&mut tm, &ts, 16);
        let BmcResult::Proved { method, .. } = run.result else {
            panic!("expected a proof, got {:?}", run.result);
        };
        assert_eq!(method, ProofMethod::Pdr);
        assert!(run.stats.cubes_blocked > 0, "the proof blocked some cube");
        let cert = run.certificate.expect("proof carries a certificate");
        assert_eq!(verify_certificate(&mut tm, &ts, &cert), Ok(()));
    }

    #[test]
    fn falsifies_the_free_counter_with_a_reference_witness() {
        let mut tm = TermManager::new();
        let ts = free_counter(&mut tm);
        let run = Pdr::new(BmcConfig::default()).check(&mut tm, &ts, 16);
        let BmcResult::Counterexample(w) = run.result else {
            panic!("expected a counterexample, got {:?}", run.result);
        };
        assert_eq!(w.num_steps(), 3, "0 → 1 → 2 → 3, shortest-first");
    }

    #[test]
    fn depth_zero_falsification_is_found() {
        // init already violates the property.
        let mut tm = TermManager::new();
        let count = tm.var("count", Sort::BitVec(2));
        let zero = tm.zero(2);
        let one = tm.one(2);
        let next = tm.bv_add(count, one);
        let bad = tm.eq(count, zero);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(&tm, count, Some(zero), next);
        ts.add_bad(bad);
        let run = Pdr::new(BmcConfig::default()).check(&mut tm, &ts, 8);
        let BmcResult::Counterexample(w) = run.result else {
            panic!("expected a depth-0 counterexample, got {:?}", run.result);
        };
        assert_eq!(w.num_steps(), 0);
    }

    #[test]
    fn frame_cap_reports_the_bounded_verdict() {
        // Convergence needs a level strictly below the frontier, so a cap
        // of one frame can never close a proof: a safe system must come
        // back with the bounded verdict.
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let run = Pdr::new(BmcConfig::default()).check(&mut tm, &ts, 1);
        assert!(
            matches!(run.result, BmcResult::NoCounterexample { bound: 1 }),
            "got {:?}",
            run.result
        );
    }

    #[test]
    fn injected_cancellation_stops_cleanly() {
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let config = BmcConfig {
            fault: crate::BmcFaultPlan {
                cancel_at_depth: Some(1),
                ..Default::default()
            },
            ..Default::default()
        };
        let run = Pdr::new(config).check(&mut tm, &ts, 8);
        assert!(
            matches!(
                run.result,
                BmcResult::Unknown {
                    reason: StopReason::Cancelled,
                    ..
                }
            ),
            "got {:?}",
            run.result
        );
    }
}
