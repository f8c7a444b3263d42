//! The user-facing SMT solver: assertions in, SAT/UNSAT + model out.

use std::collections::HashMap;
use std::time::Instant;

use crate::bitblast::BitBlaster;
use crate::cnf::Lit;
use crate::concrete::{eval, Assignment};
use crate::incremental::SolverReuseStats;
use crate::rewrite::{EncodeStats, Rewriter};
use crate::sat::{CancelFlag, FaultHooks, SatSolver, SolveOutcome, StopReason};
use crate::term::{TermId, TermManager};

/// Result of an SMT check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// The conjunction of assertions is satisfiable.
    Sat,
    /// The conjunction of assertions is unsatisfiable.
    Unsat,
    /// The resource budget was exhausted.
    Unknown,
}

/// A model: values for the variables of the asserted formulas.
#[derive(Debug, Clone, Default)]
pub struct Model {
    values: Assignment,
}

impl Model {
    /// Creates a model from raw variable values.
    pub fn from_values(values: Assignment) -> Self {
        Model { values }
    }

    /// Value of a variable term (0 for variables absent from the model).
    pub fn value(&self, var: TermId) -> u64 {
        self.values.get(&var).copied().unwrap_or(0)
    }

    /// The raw variable assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.values
    }

    /// Mutable access to the assignment, for the rewriter's model
    /// completion (restoring the values of variables it eliminated).
    pub(crate) fn assignment_mut(&mut self) -> &mut Assignment {
        &mut self.values
    }

    /// Evaluates an arbitrary term under this model.
    pub fn eval(&self, tm: &TermManager, t: TermId) -> u64 {
        eval(tm, t, &self.values)
    }

    /// Reassembles variable values from a satisfying SAT assignment using
    /// the bit-blaster's per-variable literal encodings (LSB first).
    ///
    /// Shared by the scratch and incremental solving paths.
    pub fn read_back(encodings: &HashMap<TermId, Vec<Lit>>, sat: &SatSolver) -> Model {
        let mut values = Assignment::new();
        for (&term, bits) in encodings {
            let mut v = 0u64;
            for (i, &l) in bits.iter().enumerate() {
                if sat.value_of(l.var()) == l.is_positive() {
                    v |= 1u64 << i;
                }
            }
            values.insert(term, v);
        }
        Model { values }
    }
}

/// A quantifier-free bit-vector solver.
///
/// Assert terms with [`assert_term`](Solver::assert_term), then call
/// [`check`](Solver::check).  Each `check` bit-blasts the current assertion
/// set from scratch (the CEGIS and BMC drivers in the other crates construct
/// a fresh solver per query, mirroring how the paper's tooling invokes its
/// backend solver).
#[derive(Debug, Clone)]
pub struct Solver {
    assertions: Vec<TermId>,
    conflict_limit: Option<u64>,
    deadline: Option<Instant>,
    cancel: Vec<CancelFlag>,
    memory_limit: Option<usize>,
    fault: FaultHooks,
    stop_reason: Option<StopReason>,
    last_model: Option<Model>,
    stats: SolverReuseStats,
    simplify: bool,
    aig: bool,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates a solver with no assertions.
    pub fn new() -> Self {
        Solver {
            assertions: Vec::new(),
            conflict_limit: None,
            deadline: None,
            cancel: Vec::new(),
            memory_limit: None,
            fault: FaultHooks::default(),
            stop_reason: None,
            last_model: None,
            stats: SolverReuseStats::default(),
            simplify: true,
            aig: true,
        }
    }

    /// Turns the gate-level AIG reductions of the per-check bit-blaster on
    /// or off (on by default): structural hashing, local rewriting and
    /// polarity-aware Tseitin.  Off is the direct-blasting baseline of the
    /// `aig_off` differential/bench arms.
    pub fn set_aig(&mut self, on: bool) {
        self.aig = on;
    }

    /// Turns the word-level simplification pass of [`check`](Self::check) on
    /// or off (on by default).  With simplification on, the assertion set is
    /// run through the [`Rewriter`] — rule-driven rewriting plus
    /// equality-driven variable elimination — before bit-blasting; models
    /// read back identically either way (eliminated variables are
    /// reconstructed from their defining equalities).
    pub fn set_simplify(&mut self, on: bool) {
        self.simplify = on;
    }

    /// Adds an assertion (must be a boolean term).
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a boolean term — asserting a bit-vector has no
    /// meaning, so the misuse is rejected at the call site rather than
    /// surfacing as an encoding error later.
    pub fn assert_term(&mut self, tm: &TermManager, t: TermId) {
        assert!(tm.sort(t).is_bool(), "assertions must be boolean terms");
        self.assertions.push(t);
    }

    /// The asserted terms, in insertion order.
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// Removes all assertions (the model of a previous check is kept).
    pub fn reset(&mut self) {
        self.assertions.clear();
    }

    /// Limits the SAT conflict budget of subsequent checks; `None` means
    /// unlimited.  Exceeding the budget makes [`check`](Solver::check) return
    /// [`SatResult::Unknown`].
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
    }

    /// Sets a wall-clock deadline for subsequent checks; a check that passes
    /// the deadline returns [`SatResult::Unknown`].
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Attaches a *set* of cancellation flags: any raised flag cancels the
    /// check.  Independent cancellation sources (a caller's own flag, a
    /// batch's global flag) chain this way instead of replacing each other.
    /// Replaces previously attached flags; an empty set detaches.
    pub fn set_cancel_flags(&mut self, cancel: Vec<CancelFlag>) {
        self.cancel = cancel;
    }

    /// Caps the estimated SAT clause-arena + watcher bytes of subsequent
    /// checks; a check that exceeds the cap returns [`SatResult::Unknown`]
    /// with [`StopReason::MemoryBudget`] instead of growing without bound.
    /// `None` (default) means unlimited.
    pub fn set_memory_limit(&mut self, limit: Option<usize>) {
        self.memory_limit = limit;
    }

    /// Arms the deterministic fault-injection hooks (see
    /// [`FaultHooks`]) on the SAT solver of each subsequent check.
    pub fn set_fault_hooks(&mut self, fault: FaultHooks) {
        self.fault = fault;
    }

    /// Why the last check returned [`SatResult::Unknown`]; `None` after a
    /// conclusive verdict (or before any check).
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop_reason
    }

    /// Statistics of the most recent check, as a one-check
    /// [`SolverReuseStats`]: its encoding work (rewrite, AIG, CNF size) and
    /// its SAT work (conflicts, propagations, search time).  The cache,
    /// learnt-clause and `*_last_check` counters stay zero, so absorbing the
    /// block into a run total adds exactly this check's work.
    pub fn stats(&self) -> SolverReuseStats {
        self.stats
    }

    /// Decides satisfiability of the conjunction of all assertions.
    ///
    /// The `&mut TermManager` is needed because the simplification pass may
    /// create rewritten terms; with [`set_simplify`](Self::set_simplify) off
    /// the manager is not modified.
    pub fn check(&mut self, tm: &mut TermManager) -> SatResult {
        // Word-level simplification: rewrite the assertion set modulo its
        // own equalities before anything is encoded.  Nothing is pre-encoded
        // in a scratch check, so every pinned variable can be eliminated.
        let mut rewriter = self.simplify.then(Rewriter::new);
        let to_assert: Vec<TermId> = match &mut rewriter {
            Some(rw) => rw.assert_simplify(tm, &self.assertions, &|_| false),
            None => self.assertions.clone(),
        };
        let mut blaster = BitBlaster::new();
        blaster.set_aig(self.aig);
        for &a in &to_assert {
            blaster.assert_true(tm, a);
        }
        let aig_stats = blaster.aig_stats();
        let (cnf, var_encodings) = blaster.into_parts();
        let cnf_vars = u64::from(cnf.num_vars());
        let cnf_clauses = cnf.num_clauses() as u64;
        let mut sat = SatSolver::from_cnf(cnf);
        sat.set_conflict_limit(self.conflict_limit);
        sat.set_deadline(self.deadline);
        sat.set_cancel_flags(self.cancel.clone());
        sat.set_memory_limit(self.memory_limit);
        sat.set_fault_hooks(self.fault);
        let search_start = Instant::now();
        let outcome = sat.solve();
        let search_time = search_start.elapsed();
        self.stop_reason = sat.stop_reason();
        self.stats = SolverReuseStats {
            checks: 1,
            encode: EncodeStats {
                rewrite: rewriter.as_ref().map(Rewriter::stats).unwrap_or_default(),
                aig: aig_stats,
                ..EncodeStats::default()
            },
            cnf_vars,
            cnf_clauses,
            conflicts: sat.num_conflicts(),
            propagations: sat.num_propagations(),
            duration: search_time,
            ..SolverReuseStats::default()
        };
        match outcome {
            SolveOutcome::Sat => {
                let mut model = Model::read_back(&var_encodings, &sat);
                if let Some(rw) = &rewriter {
                    rw.complete_model(tm, model.assignment_mut());
                }
                self.last_model = Some(model);
                SatResult::Sat
            }
            SolveOutcome::Unsat => {
                self.last_model = None;
                SatResult::Unsat
            }
            SolveOutcome::Unknown => {
                self.last_model = None;
                SatResult::Unknown
            }
        }
    }

    /// The model of the last satisfiable check.
    ///
    /// The `TermManager` argument is accepted so call sites read naturally
    /// next to [`check`](Solver::check); it is not currently needed to
    /// reconstruct the model.
    ///
    /// # Panics
    ///
    /// Panics if the last check was not satisfiable.
    pub fn model(&self, _tm: &TermManager) -> &Model {
        self.last_model
            .as_ref()
            .expect("model requested but last check was not SAT")
    }

    /// The model of the last satisfiable check, if any.
    pub fn try_model(&self) -> Option<&Model> {
        self.last_model.as_ref()
    }
}

/// Convenience helper: checks whether `formula` is valid (true for all
/// assignments) by asserting its negation.
pub fn is_valid(tm: &mut TermManager, formula: TermId, conflict_limit: Option<u64>) -> SatResult {
    let negated = tm.not(formula);
    let mut solver = Solver::new();
    solver.set_conflict_limit(conflict_limit);
    solver.assert_term(tm, negated);
    match solver.check(tm) {
        SatResult::Sat => SatResult::Unsat, // counterexample exists => not valid
        SatResult::Unsat => SatResult::Sat, // negation unsatisfiable => valid
        SatResult::Unknown => SatResult::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn finds_a_model_for_linear_equation() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(16));
        let y = tm.var("y", Sort::BitVec(16));
        let three = tm.bv_const(3, 16);
        let lhs = tm.bv_mul(x, three);
        let sum = tm.bv_add(lhs, y);
        let target = tm.bv_const(1000, 16);
        let goal = tm.eq(sum, target);
        let hundred = tm.bv_const(100, 16);
        let constraint = tm.bv_ult(y, hundred);

        let mut solver = Solver::new();
        solver.assert_term(&tm, goal);
        solver.assert_term(&tm, constraint);
        assert_eq!(solver.check(&mut tm), SatResult::Sat);
        let m = solver.model(&tm);
        let xv = m.value(x);
        let yv = m.value(y);
        assert_eq!((3 * xv + yv) & 0xffff, 1000);
        assert!(yv < 100);
        assert_eq!(m.eval(&tm, goal), 1);
    }

    #[test]
    fn detects_unsatisfiable_constraints() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let five = tm.bv_const(5, 8);
        let six = tm.bv_const(6, 8);
        let a = tm.eq(x, five);
        let b = tm.eq(x, six);
        let mut solver = Solver::new();
        solver.assert_term(&tm, a);
        solver.assert_term(&tm, b);
        assert_eq!(solver.check(&mut tm), SatResult::Unsat);
        assert!(solver.try_model().is_none());
    }

    #[test]
    fn validity_helper_proves_commutativity() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(10));
        let y = tm.var("y", Sort::BitVec(10));
        let l = tm.bv_add(x, y);
        let r = tm.bv_add(y, x);
        let f = tm.eq(l, r);
        assert_eq!(is_valid(&mut tm, f, None), SatResult::Sat);
        // x + y == x is not valid
        let g = tm.eq(l, x);
        assert_eq!(is_valid(&mut tm, g, None), SatResult::Unsat);
    }

    #[test]
    fn stats_are_populated() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(24));
        let y = tm.var("y", Sort::BitVec(24));
        let p = tm.bv_mul(x, y);
        let c = tm.bv_const(0xbeef, 24);
        let goal = tm.eq(p, c);
        let mut solver = Solver::new();
        solver.assert_term(&tm, goal);
        let _ = solver.check(&mut tm);
        assert!(solver.stats().cnf_vars > 0);
        assert!(solver.stats().cnf_clauses > 0);
    }

    #[test]
    fn conflict_limit_yields_unknown_on_hard_instance() {
        let mut tm = TermManager::new();
        // A factoring-flavoured query that needs some search: x*y == large odd
        // constant with x,y > 1.
        let x = tm.var("x", Sort::BitVec(20));
        let y = tm.var("y", Sort::BitVec(20));
        let p = tm.bv_mul(x, y);
        let c = tm.bv_const(1048573, 20); // prime
        let goal = tm.eq(p, c);
        let one = tm.one(20);
        let gx = tm.bv_ugt(x, one);
        let gy = tm.bv_ugt(y, one);
        let mut solver = Solver::new();
        solver.assert_term(&tm, goal);
        solver.assert_term(&tm, gx);
        solver.assert_term(&tm, gy);
        solver.set_conflict_limit(Some(3));
        let r = solver.check(&mut tm);
        assert!(matches!(r, SatResult::Unknown | SatResult::Unsat));
    }

    #[test]
    #[should_panic(expected = "model requested")]
    fn model_panics_without_sat() {
        let tm = TermManager::new();
        let solver = Solver::new();
        let _ = solver.model(&tm);
    }

    #[test]
    #[should_panic(expected = "assertions must be boolean")]
    fn asserting_bitvector_panics() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let mut solver = Solver::new();
        solver.assert_term(&tm, x);
    }
}
