//! A multi-query bounded-model-checking *session* over one shared unrolling.
//!
//! A [`BmcSession`] owns everything incremental BMC needs: the unrolling,
//! the cone-of-influence refinement state and one persistent
//! [`IncrementalSolver`] configured from a [`BmcConfig`].  Frames are
//! asserted append-only (with per-depth cone-of-influence refinement deltas
//! for already-asserted frames), every query is a `check_assuming` call with
//! its own retractable assumption set, assumptions never contribute rewrite
//! pins, and the node→CNF-variable mapping only grows — so a sequence of
//! queries shares every encoded frame and every learnt clause, and
//! interleaving queries for different assumption sets cannot invalidate
//! each other's encodings.
//!
//! Three drivers sit on it:
//!
//! * [`Bmc::check`](crate::Bmc::check) in [`BmcMode::PerDepth`] — extend,
//!   poll, query `bad@k`, depth by depth — and in
//!   [`BmcMode::CumulativeIncremental`] — one disjunctive query over the
//!   not-yet-proven depths per call, on a session kept across calls;
//! * the base case of [`KInduction`](crate::KInduction);
//! * the batched multi-bug detector (`sepe_sqed::batch`): the transition
//!   system carries one activation literal per catalogue entry, and each
//!   query selects an entry by assuming its literal true and the others
//!   false on top of the depth's bad state.
//!
//! [`BmcMode::PerDepth`]: crate::BmcMode::PerDepth
//! [`BmcMode::CumulativeIncremental`]: crate::BmcMode::CumulativeIncremental

use std::ops::RangeInclusive;
use std::time::Instant;

use sepe_smt::{IncrementalSolver, SatResult, StopReason, TermId, TermManager};

use crate::bmc::{coi_dropped_total, extend_unrolling, extract_witness};
use crate::bmc::{BmcConfig, BmcStats, DepthStats};
use crate::ts::{CoiInfo, TransitionSystem};
use crate::unroll::Unroller;
use crate::witness::Witness;

/// Outcome of one session query at one bound.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The assumption set is satisfiable at this bound: a counterexample.
    Counterexample(Witness),
    /// Unsatisfiable at this bound.
    Unreachable,
    /// The query gave up without an answer (budget, cancellation, …).
    Unknown(StopReason),
}

/// A persistent per-depth BMC session: one unrolling, one incremental
/// solver, arbitrarily many assumption-parameterised queries per depth.
///
/// The session owns a copy of its [`TransitionSystem`] (through its
/// unroller), so it borrows nothing; every call must still receive the
/// [`TermManager`] the system was built in.
#[derive(Debug, Clone)]
pub struct BmcSession {
    unroller: Unroller,
    coi: Option<CoiInfo>,
    solver: IncrementalSolver,
    /// Per asserted frame, the remaining depth its next-state updates are
    /// topped up to (`levels.len()` frames asserted so far).
    levels: Vec<usize>,
    started: Instant,
    queries: u64,
    depths: Vec<DepthStats>,
    /// Deepest bound any query has checked.
    deepest: usize,
}

impl BmcSession {
    /// Opens a session: builds the solver from `config` (AIG layer,
    /// word-level rewriting, per-query conflict budget, wall deadline
    /// counted from now, cancellation flags, memory cap and the fault
    /// plan's SAT hooks — re-arm any of them per query through
    /// [`BmcSession::solver`]) and asserts the initial state and the
    /// frame-0 constraints.  With `config.simplify` on, the unrolling is
    /// reduced to the bad states' cone of influence.
    pub fn open(tm: &mut TermManager, ts: &TransitionSystem, config: &BmcConfig) -> Self {
        let started = Instant::now();
        let coi = config.simplify.then(|| ts.cone_of_influence(tm));
        let mut solver = config.incremental_solver(started);
        let mut unroller = Unroller::new(ts);
        let init = unroller.init(tm);
        solver.assert_term(tm, init);
        let c0 = unroller.constraints_at(tm, 0);
        solver.assert_term(tm, c0);
        BmcSession {
            unroller,
            coi,
            solver,
            levels: Vec::new(),
            started,
            queries: 0,
            depths: Vec::new(),
            deepest: 0,
        }
    }

    /// Extends the asserted unrolling (append-only, with cone-of-influence
    /// refinement deltas for already-asserted frames) so queries at `bound`
    /// are answerable.  Idempotent per bound; calling with a smaller bound
    /// never retracts anything.  Returns whether new frames were appended.
    pub fn extend(&mut self, tm: &mut TermManager, bound: usize) -> bool {
        let frames_before = self.levels.len();
        for t in extend_unrolling(
            tm,
            &mut self.unroller,
            self.coi.as_ref(),
            &mut self.levels,
            bound,
        ) {
            self.solver.assert_term(tm, t);
        }
        self.levels.len() > frames_before
    }

    /// The underlying incremental solver, for arming per-query budgets or
    /// fault hooks around individual queries (the batched detector arms a
    /// catalogue entry's injected fault only while that entry's query runs).
    pub fn solver(&mut self) -> &mut IncrementalSolver {
        &mut self.solver
    }

    /// The bad-state disjunct at `bound` (the usual final retractable
    /// assumption of a query at that depth).
    pub fn bad_at(&mut self, tm: &mut TermManager, bound: usize) -> TermId {
        self.unroller.bad_at(tm, bound)
    }

    /// Issues one query: the permanent unrolling conjoined with the given
    /// retractable `assumptions` (activation literals, the depth's bad
    /// state, …).  On SAT, extracts the witness at `bound`, reconstructing
    /// cone-dropped state values by forward evaluation.
    ///
    /// The caller must have [`extend`](Self::extend)ed the session to at
    /// least `bound` first.
    pub fn query(
        &mut self,
        tm: &mut TermManager,
        bound: usize,
        assumptions: &[TermId],
    ) -> QueryOutcome {
        self.check(tm, bound, assumptions, &[])
    }

    /// Issues one query on the disjunction of the bad states at every depth
    /// in `depths`, assumed retractably.  On SAT, the witness ends at the
    /// earliest depth the model violates — not necessarily the globally
    /// shortest counterexample.  A one-depth range issues exactly the query
    /// `query(tm, k, &[bad_at(tm, k)])` does.
    ///
    /// The caller must have [`extend`](Self::extend)ed the session to at
    /// least the range's end first.
    pub(crate) fn query_bad(
        &mut self,
        tm: &mut TermManager,
        depths: RangeInclusive<usize>,
    ) -> QueryOutcome {
        let bound = *depths.end();
        let mut bads = Vec::new();
        let mut any_bad = tm.fls();
        for k in depths {
            let bad = self.unroller.bad_at(tm, k);
            bads.push((k, bad));
            any_bad = tm.or(any_bad, bad);
        }
        self.check(tm, bound, &[any_bad], &bads)
    }

    /// The one SAT call behind both query kinds.  On SAT the witness ends
    /// at the first `(depth, bad)` of `bads` the model violates, at `bound`
    /// when none does (or `bads` is empty).
    fn check(
        &mut self,
        tm: &mut TermManager,
        bound: usize,
        assumptions: &[TermId],
        bads: &[(usize, TermId)],
    ) -> QueryOutcome {
        assert!(
            bound <= self.levels.len(),
            "query at bound {bound} but the session is only extended to {}",
            self.levels.len()
        );
        let result = self.solver.check_assuming(tm, assumptions);
        self.queries += 1;
        self.deepest = self.deepest.max(bound);
        let sstats = self.solver.stats();
        self.depths.push(DepthStats {
            bound,
            conflicts: sstats.conflicts_last_check,
            clauses_added: sstats.clauses_last_check,
            learnt_retained: sstats.learnt_retained,
            duration: sstats.duration_last_check,
        });
        match result {
            SatResult::Sat => {
                let model = self.solver.model(tm).clone();
                let violated = bads
                    .iter()
                    .find(|(_, bad)| model.eval(tm, *bad) == 1)
                    .map_or(bound, |&(k, _)| k);
                let witness =
                    extract_witness(tm, &mut self.unroller, &model, violated, self.coi.as_ref());
                QueryOutcome::Counterexample(witness)
            }
            SatResult::Unsat => QueryOutcome::Unreachable,
            SatResult::Unknown => QueryOutcome::Unknown(
                self.solver
                    .stop_reason()
                    .unwrap_or(StopReason::ConflictBudget),
            ),
        }
    }

    /// Per-query work deltas of the most recent query (conflicts, clauses
    /// newly encoded, duration).
    pub fn last_query_stats(&self) -> Option<&DepthStats> {
        self.depths.last()
    }

    /// Session statistics in the familiar [`BmcStats`] shape: cumulative
    /// solver counters (with the cone-dropped-update total folded in), every
    /// query's per-depth delta in issue order, the deepest bound a query
    /// checked (frames extended but never queried do not count), and the
    /// wall time since the session opened.
    pub fn stats(&self) -> BmcStats {
        let mut solver = self.solver.stats();
        solver.encode.rewrite.coi_dropped_updates =
            coi_dropped_total(self.coi.as_ref(), &self.levels);
        BmcStats {
            queries: self.queries,
            conflicts: solver.conflicts,
            duration: self.started.elapsed(),
            deepest_bound: self.deepest,
            solver,
            depths: self.depths.clone(),
        }
    }
}
