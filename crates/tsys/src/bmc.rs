//! The bounded model checker.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use sepe_smt::concrete::{self, Assignment};
use sepe_smt::{
    CancelFlag, FaultHooks, IncrementalSolver, Model, SatResult, Solver, SolverReuseStats,
    StopReason, TermId, TermManager,
};

use crate::prove::ProofMethod;
use crate::session::{BmcSession, QueryOutcome};
use crate::ts::{CoiInfo, TransitionSystem};
use crate::unroll::Unroller;
use crate::witness::{Frame, Witness};

/// How the checker explores depths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BmcMode {
    /// One SAT query per depth on a single [`BmcSession`] (one persistent
    /// [`IncrementalSolver`]): the unrolling is asserted once and grows
    /// monotonically, each depth's
    /// bad state rides along as a retractable assumption, and learnt clauses
    /// carry over between depths.  The first counterexample found is a
    /// shortest one.
    #[default]
    PerDepth,
    /// One SAT query per depth, each on a fresh scratch solver that
    /// re-encodes the whole unrolling prefix (the pre-incremental behavior,
    /// kept for differential testing and benchmarking against
    /// [`BmcMode::PerDepth`]).
    PerDepthScratch,
    /// A single SAT query at the maximum bound with the bad states of every
    /// depth disjoined.  Usually much faster when a counterexample exists;
    /// the returned witness is truncated to the earliest violating frame of
    /// the model that was found.  Note this does not guarantee a *globally*
    /// shortest counterexample — the solver returns an arbitrary model, and
    /// a different model may violate earlier; use [`BmcMode::PerDepth`] when
    /// minimal trace lengths matter.
    Cumulative,
    /// [`BmcMode::Cumulative`] on one [`BmcSession`] owned by the [`Bmc`]
    /// instance: each [`check`](Bmc::check) call asserts only
    /// the transition frames not yet asserted by earlier calls and issues a
    /// single query with the bad-state disjunct of the not-yet-proven depths
    /// as a *retractable* assumption.  Calling `check` repeatedly with a
    /// growing `max_bound` therefore extends one solver across the whole
    /// sweep — depths proven unreachable are never re-checked, learnt
    /// clauses carry over, and the periodic learnt-database reduction keeps
    /// the long-lived solver's memory bounded.  Like `Cumulative`, the
    /// witness is truncated to the earliest violating frame of the model but
    /// is not guaranteed globally shortest.  Every `check` call must receive
    /// the same `TermManager` and `TransitionSystem`; call
    /// [`Bmc::reset`] to start over on a different system.
    CumulativeIncremental,
}

/// Configuration of a BMC run.
#[derive(Debug, Clone)]
pub struct BmcConfig {
    /// Conflict budget per SAT call (`None` = unlimited).
    pub conflict_limit: Option<u64>,
    /// Wall-clock budget for the whole run (`None` = unlimited).  When the
    /// budget is exhausted the check returns [`BmcResult::Unknown`]; the
    /// budget also interrupts in-flight SAT calls (checked every few
    /// conflicts), so a run overshoots it only by a short burst.
    pub time_limit: Option<Duration>,
    /// First depth to check (0 checks the initial state itself).
    pub start_bound: usize,
    /// Depth-exploration strategy.
    pub mode: BmcMode,
    /// Word-level preprocessing (on by default): the solvers run the
    /// `sepe_smt` rewriting pass ahead of bit-blasting, and the unrolling
    /// drops next-state updates outside the cone of influence of the
    /// bad-state properties before frames are asserted
    /// ([`TransitionSystem::cone_of_influence`]).  Witnesses are identical
    /// either way — dropped state variables are reconstructed by forward
    /// evaluation.  [`BmcMode::PerDepthScratch`] honors the flag for the
    /// rewriting pass but never applies the cone-of-influence reduction, so
    /// it stays a faithful differential baseline for the unrolling itself.
    pub simplify: bool,
    /// Gate-level AIG reductions in the solvers (on by default): structural
    /// hashing, local rewriting and polarity-aware Tseitin below the word
    /// level.  Off is the direct-blasting baseline of the `aig_off`
    /// differential/bench arms.  Orthogonal to
    /// [`simplify`](BmcConfig::simplify), which governs the word-level pass
    /// and the cone-of-influence reduction.
    pub aig: bool,
    /// When set, decays the persistent SAT branching activity of every
    /// pre-existing CNF variable by this factor (in `(0, 1]`) each time
    /// [`BmcMode::CumulativeIncremental`] extends the unrolling by new
    /// frames, re-centring VSIDS on the newest frame's variables.  `None`
    /// (default) leaves activities untouched.
    pub frame_rescore: Option<f64>,
    /// Shared cancellation flags (default empty).  *Any* raised flag makes
    /// an in-flight SAT search abort within a short burst of conflicts and
    /// the check return [`BmcResult::Unknown`] with
    /// [`StopReason::Cancelled`]; the flags are also polled between depths.
    /// Independent cancellation sources chain by each pushing their own flag
    /// — a caller's flag and the parallel engine's batch flag coexist
    /// instead of replacing each other (see `sepe_sqed::parallel`).
    pub cancel: Vec<CancelFlag>,
    /// Caps the estimated clause-arena + watcher bytes of each SAT solver
    /// (`None` = unlimited); a query whose estimate exceeds the cap returns
    /// [`BmcResult::Unknown`] with [`StopReason::MemoryBudget`] instead of
    /// growing without bound.
    pub memory_limit: Option<usize>,
    /// Deterministic fault injection (default: no faults).  Test-only
    /// machinery for exercising the failure paths above without wall-clock
    /// coupling; see [`BmcFaultPlan`].
    pub fault: BmcFaultPlan,
}

/// Deterministic fault injection for a BMC run: which failure to force and
/// exactly where.  Everything here is counter-indexed (conflicts, depths),
/// never wall-clock, so an injected failure reproduces bit-identically on
/// any machine.  The default plan injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BmcFaultPlan {
    /// Hooks armed on every SAT solver the run constructs: forced panic or
    /// faked memory-cap breach at the k-th conflict (see
    /// [`FaultHooks`]).
    pub sat: FaultHooks,
    /// Acts as a raised cancellation flag at the between-depths poll of the
    /// given depth: the per-depth modes trip when about to query exactly
    /// this depth, the cumulative modes when their single query covers it.
    pub cancel_at_depth: Option<usize>,
}

impl BmcFaultPlan {
    /// Whether the plan injects nothing (the default).
    pub fn is_empty(&self) -> bool {
        *self == BmcFaultPlan::default()
    }
}

impl Default for BmcConfig {
    fn default() -> Self {
        BmcConfig {
            conflict_limit: None,
            time_limit: None,
            start_bound: 0,
            mode: BmcMode::PerDepth,
            simplify: true,
            aig: true,
            frame_rescore: None,
            cancel: Vec::new(),
            memory_limit: None,
            fault: BmcFaultPlan::default(),
        }
    }
}

impl BmcConfig {
    /// Starts a builder over the default configuration.  The struct fields
    /// stay public — the builder is sugar for the common
    /// construct-and-override flow, not a new representation:
    ///
    /// ```
    /// use sepe_tsys::{BmcConfig, BmcMode};
    /// let config = BmcConfig::builder()
    ///     .mode(BmcMode::PerDepth)
    ///     .conflict_limit(100_000)
    ///     .aig(false)
    ///     .build();
    /// assert!(config.simplify);
    /// ```
    pub fn builder() -> BmcConfigBuilder {
        BmcConfigBuilder {
            config: BmcConfig::default(),
        }
    }

    /// A fresh incremental solver configured from this config: AIG layer,
    /// word-level rewriting and every budget [`arm`](Self::arm) sets, its
    /// wall deadline counted from `start`.
    pub(crate) fn incremental_solver(&self, start: Instant) -> IncrementalSolver {
        let mut solver = IncrementalSolver::new();
        solver.set_aig(self.aig);
        solver.set_simplify(self.simplify);
        self.arm(&mut solver, start);
        solver
    }

    /// (Re-)arms an incremental solver's per-run budgets: conflict limit,
    /// wall deadline counted from `start`, cancellation flags, memory cap
    /// and the fault plan's SAT hooks (the default hooks arm nothing).
    pub(crate) fn arm(&self, solver: &mut IncrementalSolver, start: Instant) {
        solver.set_conflict_limit(self.conflict_limit);
        solver.set_deadline(self.time_limit.map(|limit| start + limit));
        solver.set_cancel_flags(self.cancel.clone());
        solver.set_memory_limit(self.memory_limit);
        solver.set_fault_hooks(self.fault.sat);
    }

    /// A fresh scratch solver configured like
    /// [`incremental_solver`](Self::incremental_solver).
    pub(crate) fn scratch_solver(&self, start: Instant) -> Solver {
        let mut solver = Solver::new();
        solver.set_aig(self.aig);
        solver.set_simplify(self.simplify);
        solver.set_conflict_limit(self.conflict_limit);
        solver.set_deadline(self.time_limit.map(|limit| start + limit));
        solver.set_cancel_flags(self.cancel.clone());
        solver.set_memory_limit(self.memory_limit);
        solver.set_fault_hooks(self.fault.sat);
        solver
    }
}

/// Builder for [`BmcConfig`]; see [`BmcConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct BmcConfigBuilder {
    config: BmcConfig,
}

impl BmcConfigBuilder {
    /// Conflict budget per SAT call.
    pub fn conflict_limit(mut self, limit: u64) -> Self {
        self.config.conflict_limit = Some(limit);
        self
    }

    /// Wall-clock budget for the whole run.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.config.time_limit = Some(limit);
        self
    }

    /// First depth to check.
    pub fn start_bound(mut self, bound: usize) -> Self {
        self.config.start_bound = bound;
        self
    }

    /// Depth-exploration strategy.
    pub fn mode(mut self, mode: BmcMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Word-level preprocessing on or off.
    pub fn simplify(mut self, on: bool) -> Self {
        self.config.simplify = on;
        self
    }

    /// Gate-level AIG reductions on or off.
    pub fn aig(mut self, on: bool) -> Self {
        self.config.aig = on;
        self
    }

    /// VSIDS re-centring factor applied when the cumulative-incremental
    /// unrolling grows.
    pub fn frame_rescore(mut self, factor: f64) -> Self {
        self.config.frame_rescore = Some(factor);
        self
    }

    /// Chains one more cancellation flag (never replaces existing ones).
    pub fn cancel(mut self, flag: CancelFlag) -> Self {
        self.config.cancel.push(flag);
        self
    }

    /// Caps the estimated SAT memory per solver.
    pub fn memory_limit(mut self, bytes: usize) -> Self {
        self.config.memory_limit = Some(bytes);
        self
    }

    /// Arms a deterministic fault plan.
    pub fn fault(mut self, fault: BmcFaultPlan) -> Self {
        self.config.fault = fault;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> BmcConfig {
        self.config
    }
}

/// Per-query solver-work deltas: what one depth's query added and cost on
/// top of the previous one.
///
/// The cumulative counters in [`BmcStats`]/[`SolverReuseStats`] only say
/// what a whole sweep cost; the per-depth deltas are what make the effect of
/// learnt-clause reduction readable off a bench run (per-depth conflicts
/// stay flat instead of ballooning with the retained database).
#[derive(Debug, Clone, Copy, Default)]
pub struct DepthStats {
    /// The bound this query checked.
    pub bound: usize,
    /// SAT conflicts of this query alone.
    pub conflicts: u64,
    /// CNF clauses newly encoded for this query.
    pub clauses_added: u64,
    /// Learnt clauses retained when this query returned.
    pub learnt_retained: u64,
    /// Wall-clock time of this query alone.
    pub duration: Duration,
}

/// Statistics of a BMC run.
#[derive(Debug, Clone, Default)]
pub struct BmcStats {
    /// Number of SAT queries issued.
    pub queries: u64,
    /// Total SAT conflicts over all queries.
    pub conflicts: u64,
    /// Total wall-clock time.
    pub duration: Duration,
    /// Deepest bound that was fully checked (or at which a counterexample was
    /// found).
    pub deepest_bound: usize,
    /// Solver-reuse counters (term encodings cached/reused, word-level
    /// rewriting and cone-of-influence work, learnt clauses retained across
    /// depths, learnt-database reduction work).  In
    /// [`BmcMode::PerDepthScratch`] and [`BmcMode::Cumulative`], which build
    /// fresh solvers, the encoding counters and the SAT checks, conflicts,
    /// propagations and search time are summed over the queries; the
    /// learnt-clause counters stay zero.
    pub solver: SolverReuseStats,
    /// Per-query deltas, one entry per SAT query in issue order (one per
    /// depth in the per-depth modes, a single entry in the cumulative
    /// modes).
    pub depths: Vec<DepthStats>,
}

/// Outcome of a model-checking run.
///
/// Bounded runs ([`Bmc::check`]) produce the first three variants; the
/// unbounded provers ([`KInduction`](crate::KInduction), [`Pdr`](crate::Pdr))
/// additionally produce [`BmcResult::Proved`] when they certify the bad
/// states unreachable at *every* depth, not just within the bound.
#[derive(Debug, Clone)]
pub enum BmcResult {
    /// A counterexample reaching a bad state was found.
    Counterexample(Witness),
    /// No bad state is reachable within the bound.
    NoCounterexample {
        /// The bound that was exhaustively checked.
        bound: usize,
    },
    /// No bad state is reachable at any depth — an unbounded proof.
    Proved {
        /// Which prover closed the proof.
        method: ProofMethod,
        /// The proof's depth parameter: the induction depth `k`, or the
        /// PDR frame index at which the reachability frames converged.
        depth: usize,
    },
    /// The run stopped without a verdict at the given bound.
    Unknown {
        /// The bound being checked when the run stopped.
        bound: usize,
        /// Which budget ran out or which interruption fired — the previously
        /// indistinguishable give-ups, classified (see [`StopReason`]).
        reason: StopReason,
    },
}

impl BmcResult {
    /// Whether a counterexample was found.
    pub fn is_counterexample(&self) -> bool {
        matches!(self, BmcResult::Counterexample(_))
    }

    /// Whether an unbounded proof was closed.
    pub fn is_proved(&self) -> bool {
        matches!(self, BmcResult::Proved { .. })
    }

    /// The witness, if a counterexample was found.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            BmcResult::Counterexample(w) => Some(w),
            _ => None,
        }
    }
}

/// The bounded model checker.
#[derive(Debug, Clone, Default)]
pub struct Bmc {
    config: BmcConfig,
    stats: BmcStats,
    /// The session persisted across `check` calls in
    /// [`BmcMode::CumulativeIncremental`]; `None` in every other mode.
    session: Option<BmcSession>,
    /// Shallowest depth the persisted session has not proven unreachable.
    next_unproven: usize,
}

impl Bmc {
    /// Creates a checker with the given configuration.
    pub fn new(config: BmcConfig) -> Self {
        Bmc {
            config,
            ..Bmc::default()
        }
    }

    /// Statistics of the most recent [`check`](Self::check) call.
    pub fn stats(&self) -> BmcStats {
        self.stats.clone()
    }

    /// Drops the persistent session of [`BmcMode::CumulativeIncremental`],
    /// so the next [`check`](Self::check) starts from scratch (required
    /// before reusing the checker on a different transition system or term
    /// manager).
    pub fn reset(&mut self) {
        self.session = None;
    }

    /// Checks whether any bad state of `ts` is reachable within `max_bound`
    /// transition steps, searching depth by depth so that the first
    /// counterexample found is a shortest one.
    pub fn check(
        &mut self,
        tm: &mut TermManager,
        ts: &TransitionSystem,
        max_bound: usize,
    ) -> BmcResult {
        match self.config.mode {
            BmcMode::PerDepth => self.check_per_depth(tm, ts, max_bound),
            BmcMode::PerDepthScratch => self.check_per_depth_scratch(tm, ts, max_bound),
            BmcMode::Cumulative => self.check_cumulative(tm, ts, max_bound),
            BmcMode::CumulativeIncremental => self.check_cumulative_incremental(tm, ts, max_bound),
        }
    }

    /// The between-depths poll of the per-depth modes: why the run must
    /// stop before querying `bound` (wall budget gone, a cancellation flag
    /// raised, or the fault plan's injected cancellation at this depth).
    fn poll(&self, start: Instant, bound: usize) -> Option<StopReason> {
        let cancelled = self.config.fault.cancel_at_depth == Some(bound)
            || self.config.cancel.iter().any(|c| c.load(Ordering::Relaxed));
        if self
            .config
            .time_limit
            .is_some_and(|limit| start.elapsed() > limit)
        {
            Some(StopReason::Deadline)
        } else {
            cancelled.then_some(StopReason::Cancelled)
        }
    }

    /// Per-depth exploration on one [`BmcSession`]: the unrolling prefix is
    /// asserted exactly once, each depth's bad state is a retractable
    /// assumption, and all SAT-level learning carries over.
    fn check_per_depth(
        &mut self,
        tm: &mut TermManager,
        ts: &TransitionSystem,
        max_bound: usize,
    ) -> BmcResult {
        let start = Instant::now();
        let mut session = BmcSession::open(tm, ts, &self.config);
        let mut result = BmcResult::NoCounterexample { bound: max_bound };
        for bound in self.config.start_bound..=max_bound {
            session.extend(tm, bound);
            if let Some(reason) = self.poll(start, bound) {
                result = BmcResult::Unknown { bound, reason };
                break;
            }
            let bad = session.bad_at(tm, bound);
            match session.query(tm, bound, &[bad]) {
                QueryOutcome::Unreachable => {}
                outcome => {
                    result = outcome.into_result(bound);
                    break;
                }
            }
        }
        self.stats = session.stats();
        result
    }

    /// Per-depth exploration with a fresh scratch solver per depth — the
    /// pre-incremental code path, kept as the differential-testing and
    /// benchmarking baseline for [`Self::check_per_depth`].
    fn check_per_depth_scratch(
        &mut self,
        tm: &mut TermManager,
        ts: &TransitionSystem,
        max_bound: usize,
    ) -> BmcResult {
        let start = Instant::now();
        self.stats = BmcStats::default();
        let mut unroller = Unroller::new(ts);

        // Path constraints accumulated across depths so that each depth only
        // adds the new frame's transition and constraints.
        let mut path: Vec<sepe_smt::TermId> = vec![unroller.init(tm)];
        path.push(unroller.constraints_at(tm, 0));

        for bound in self.config.start_bound..=max_bound {
            while path.len() < bound + 2 {
                // path[k+1] covers transition k->k+1 plus constraints at k+1
                let k = path.len() - 2;
                let tr = unroller.transition(tm, k);
                let cs = unroller.constraints_at(tm, k + 1);
                let both = tm.and(tr, cs);
                path.push(both);
            }
            if let Some(reason) = self.poll(start, bound) {
                self.stats.duration = start.elapsed();
                return BmcResult::Unknown { bound, reason };
            }
            let bad = unroller.bad_at(tm, bound);
            let query_start = Instant::now();
            let mut solver = self.config.scratch_solver(start);
            for &p in path.iter().take(bound + 2) {
                solver.assert_term(tm, p);
            }
            solver.assert_term(tm, bad);
            let result = solver.check(tm);
            self.stats.queries += 1;
            self.stats.conflicts += solver.stats().conflicts;
            // A scratch solver re-encodes the whole prefix per depth; sum
            // the emissions so the sweep's total encoding cost is readable.
            self.stats.solver.absorb(&solver.stats());
            self.stats.deepest_bound = bound;
            self.stats.depths.push(DepthStats {
                bound,
                conflicts: solver.stats().conflicts,
                clauses_added: 0, // a scratch solver re-encodes everything
                learnt_retained: 0,
                duration: query_start.elapsed(),
            });
            match result {
                SatResult::Sat => {
                    let model = solver.model(tm).clone();
                    let witness = extract_witness(tm, &mut unroller, &model, bound, None);
                    self.stats.duration = start.elapsed();
                    return BmcResult::Counterexample(witness);
                }
                SatResult::Unsat => {}
                SatResult::Unknown => {
                    self.stats.duration = start.elapsed();
                    let reason = solver.stop_reason().unwrap_or(StopReason::ConflictBudget);
                    return BmcResult::Unknown { bound, reason };
                }
            }
        }
        self.stats.duration = start.elapsed();
        BmcResult::NoCounterexample { bound: max_bound }
    }

    fn check_cumulative(
        &mut self,
        tm: &mut TermManager,
        ts: &TransitionSystem,
        max_bound: usize,
    ) -> BmcResult {
        let start = Instant::now();
        self.stats = BmcStats::default();
        let mut unroller = Unroller::new(ts);
        let coi = self.config.simplify.then(|| ts.cone_of_influence(tm));

        let mut solver = self.config.scratch_solver(start);
        let init = unroller.init(tm);
        solver.assert_term(tm, init);
        let c0 = unroller.constraints_at(tm, 0);
        solver.assert_term(tm, c0);
        let mut bads = Vec::new();
        let mut levels: Vec<usize> = Vec::new();
        for t in extend_unrolling(tm, &mut unroller, coi.as_ref(), &mut levels, max_bound) {
            solver.assert_term(tm, t);
        }
        let coi_dropped = coi_dropped_total(coi.as_ref(), &levels);
        let mut any_bad = tm.fls();
        for k in self.config.start_bound..=max_bound {
            let bad = unroller.bad_at(tm, k);
            bads.push((k, bad));
            any_bad = tm.or(any_bad, bad);
        }
        solver.assert_term(tm, any_bad);
        if self.fault_cancels_upto(max_bound) {
            self.stats.duration = start.elapsed();
            return BmcResult::Unknown {
                bound: max_bound,
                reason: StopReason::Cancelled,
            };
        }
        let outcome = solver.check(tm);
        self.stats.queries = 1;
        self.stats.conflicts = solver.stats().conflicts;
        self.stats.deepest_bound = max_bound;
        self.stats.solver.absorb(&solver.stats());
        self.stats.solver.encode.rewrite.coi_dropped_updates = coi_dropped;
        self.stats.depths.push(DepthStats {
            bound: max_bound,
            conflicts: solver.stats().conflicts,
            clauses_added: 0,
            learnt_retained: 0,
            duration: start.elapsed(),
        });
        let result = match outcome {
            SatResult::Sat => {
                let model = solver.model(tm).clone();
                // the earliest violated depth gives the counterexample length
                let violated = bads
                    .iter()
                    .find(|(_, bad)| model.eval(tm, *bad) == 1)
                    .map(|(k, _)| *k)
                    .unwrap_or(max_bound);
                self.stats.deepest_bound = violated;
                let witness = extract_witness(tm, &mut unroller, &model, violated, coi.as_ref());
                BmcResult::Counterexample(witness)
            }
            SatResult::Unsat => BmcResult::NoCounterexample { bound: max_bound },
            SatResult::Unknown => BmcResult::Unknown {
                bound: max_bound,
                reason: solver.stop_reason().unwrap_or(StopReason::ConflictBudget),
            },
        };
        self.stats.duration = start.elapsed();
        result
    }

    /// Whether the fault plan's injected cancellation falls within a
    /// cumulative query up to `max_bound`: it acts as a raised flag at the
    /// pre-query poll, like the per-depth modes' between-depths poll.
    fn fault_cancels_upto(&self, max_bound: usize) -> bool {
        self.config
            .fault
            .cancel_at_depth
            .is_some_and(|d| d <= max_bound)
    }

    /// Cumulative exploration on the [`BmcSession`] this `Bmc` keeps across
    /// calls: only the transition frames beyond what earlier calls asserted
    /// are encoded, one `BmcSession::query_bad` covers the not-yet-proven
    /// depths, and a proven `max_bound` is remembered so a later, deeper
    /// call checks only the new depths.
    fn check_cumulative_incremental(
        &mut self,
        tm: &mut TermManager,
        ts: &TransitionSystem,
        max_bound: usize,
    ) -> BmcResult {
        let start = Instant::now();
        let mut session = match self.session.take() {
            Some(session) => session,
            None => {
                self.next_unproven = self.config.start_bound;
                BmcSession::open(tm, ts, &self.config)
            }
        };
        self.config.arm(session.solver(), start);
        let var_watermark = session.solver().num_cnf_vars();
        if session.extend(tm, max_bound) && var_watermark > 0 {
            if let Some(factor) = self.config.frame_rescore {
                // The unrolling grew: decay the branching activity
                // accumulated on the old frames so VSIDS re-centres on the
                // new ones.
                session
                    .solver()
                    .rescale_activities_before(var_watermark, factor);
            }
        }
        let mut queries = 0;
        let result = if self.next_unproven > max_bound {
            // Every depth up to max_bound was proven unreachable by an
            // earlier call on this session.
            BmcResult::NoCounterexample { bound: max_bound }
        } else if self.fault_cancels_upto(max_bound) {
            BmcResult::Unknown {
                bound: max_bound,
                reason: StopReason::Cancelled,
            }
        } else {
            queries = 1;
            let outcome = session.query_bad(tm, self.next_unproven..=max_bound);
            if let QueryOutcome::Unreachable = outcome {
                self.next_unproven = max_bound + 1;
            }
            outcome.into_result(max_bound)
        };
        // Cumulative solver counters, per-call queries and depths.
        let mut stats = session.stats();
        stats.depths.drain(..stats.depths.len() - queries);
        stats.queries = queries as u64;
        stats.deepest_bound = match &result {
            BmcResult::Counterexample(w) => w.num_steps(),
            _ => max_bound,
        };
        stats.duration = start.elapsed();
        self.stats = stats;
        self.session = Some(session);
        result
    }
}

impl QueryOutcome {
    /// The run verdict of a query at `bound` (an unreachable bad state
    /// means no counterexample up to `bound`).
    fn into_result(self, bound: usize) -> BmcResult {
        match self {
            QueryOutcome::Counterexample(witness) => BmcResult::Counterexample(witness),
            QueryOutcome::Unreachable => BmcResult::NoCounterexample { bound },
            QueryOutcome::Unknown(reason) => BmcResult::Unknown { bound, reason },
        }
    }
}

/// Extends the asserted unrolling so that frames `0..bound` cover the
/// per-depth cone of influence at that bound: the update into frame `k + 1`
/// is needed only for variables within `bound - k - 1` remaining transition
/// steps of a bad state or constraint ([`CoiInfo::keeps_within`]).  New
/// frames contribute their depth-restricted transition plus the next
/// frame's constraints; frames asserted by an earlier, shallower bound
/// contribute only the refinement delta for the levels they gained
/// ([`Unroller::transition_refinement`]), so an incremental solver never
/// re-asserts what it already has.  `levels[k]` tracks the remaining depth
/// frame `k` is topped up to.  Without a cone (`coi == None`, preprocessing
/// off) frames are asserted whole, once.  Returns the terms to assert, in
/// order — one definition of the frame dispatch for all BMC modes.
pub(crate) fn extend_unrolling(
    tm: &mut TermManager,
    unroller: &mut Unroller,
    coi: Option<&CoiInfo>,
    levels: &mut Vec<usize>,
    bound: usize,
) -> Vec<TermId> {
    let mut out = Vec::new();
    for k in 0..bound {
        // The per-frame cone saturates at the largest finite distance:
        // capping here makes old frames' levels converge, so deep sweeps
        // skip them instead of re-filtering every variable per bound.
        let required = match coi {
            Some(coi) => (bound - k - 1).min(coi.max_dist()),
            None => 0, // whole frames are asserted once, never refined
        };
        if k >= levels.len() {
            let tr = match coi {
                Some(coi) => unroller.transition_within(tm, k, coi, required),
                None => unroller.transition(tm, k),
            };
            out.push(tr);
            out.push(unroller.constraints_at(tm, k + 1));
            levels.push(required);
        } else if levels[k] < required {
            if let Some(coi) = coi {
                out.push(unroller.transition_refinement(tm, k, coi, levels[k], required));
            }
            levels[k] = required;
        }
    }
    out
}

/// Total next-state updates dropped across the asserted frames at their
/// current refinement levels.
pub(crate) fn coi_dropped_total(coi: Option<&CoiInfo>, levels: &[usize]) -> u64 {
    match coi {
        Some(coi) => levels.iter().map(|&r| coi.dropped_within(r) as u64).sum(),
        None => 0,
    }
}

/// Reads the counterexample trace out of a model.
///
/// When a cone-of-influence reduction was active, dropped state variables
/// have no encoded frame copies — statically dropped ones beyond frame 0,
/// per-depth dropped ones in the frames whose remaining depth was below
/// their cone distance.  Their values are reconstructed by evaluating their
/// next-state functions forward over the (progressively extended)
/// assignment, so the witness is complete and consistent with a concrete
/// replay either way.  Variables the solver did encode (e.g. because the
/// persistent cumulative solver was topped up past this counterexample's
/// bound) re-evaluate to their model values — the asserted frame equality
/// forces agreement — so the overwrite is harmless.
pub(crate) fn extract_witness(
    tm: &mut TermManager,
    unroller: &mut Unroller,
    model: &Model,
    bound: usize,
    coi: Option<&CoiInfo>,
) -> Witness {
    let mut env: Assignment = model.assignment().clone();
    let state_vars = unroller.ts().state_vars().to_vec();
    let inputs = unroller.ts().inputs().to_vec();
    if let Some(coi) = coi {
        for k in 1..=bound {
            let remaining = bound - k;
            for sv in &state_vars {
                if coi.keeps_within(sv.current, remaining) {
                    continue;
                }
                let next_at = unroller.term_at(tm, sv.next, k - 1);
                let value = concrete::eval(tm, next_at, &env);
                let var_at = unroller.var_at(tm, sv.current, k);
                env.insert(var_at, value);
            }
        }
    }
    let mut frames = Vec::with_capacity(bound + 1);
    // The `expect`s below restate the registration-time invariant of
    // `TransitionSystem::add_state_var`/`add_input`: state vars and inputs
    // are variable terms, so they always have names.
    for k in 0..=bound {
        let mut frame = Frame::default();
        for sv in &state_vars {
            let name = tm
                .var_name(sv.current)
                .expect("state vars are variables")
                .to_string();
            let at = unroller.var_at(tm, sv.current, k);
            frame.states.insert(name, concrete::eval(tm, at, &env));
        }
        for &input in &inputs {
            let name = tm
                .var_name(input)
                .expect("inputs are variables")
                .to_string();
            let at = unroller.var_at(tm, input, k);
            frame.inputs.insert(name, concrete::eval(tm, at, &env));
        }
        frames.push(frame);
    }
    Witness::new(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_smt::Sort;
    use std::collections::HashMap;

    /// Counter with symbolic increment input; bad state: counter == target.
    fn counter_system(
        tm: &mut TermManager,
        width: u32,
        target: u64,
        constrain_inc_to_one: bool,
    ) -> TransitionSystem {
        let c = tm.var("count", Sort::BitVec(width));
        let inc = tm.var("inc", Sort::BitVec(width));
        let next = tm.bv_add(c, inc);
        let zero = tm.zero(width);
        let tgt = tm.bv_const(target, width);
        let bad = tm.eq(c, tgt);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, c, Some(zero), next);
        ts.add_input(tm, inc);
        ts.add_bad(bad);
        if constrain_inc_to_one {
            let one = tm.one(width);
            let c1 = tm.eq(inc, one);
            ts.add_constraint(c1);
        }
        ts
    }

    #[test]
    fn finds_shortest_counterexample_with_free_inputs() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 200, false);
        let mut bmc = Bmc::new(BmcConfig::default());
        // with a free increment the counter can jump to 200 in one step
        match bmc.check(&mut tm, &ts, 10) {
            BmcResult::Counterexample(w) => {
                assert_eq!(w.num_steps(), 1);
                assert_eq!(w.last().state("count"), 200);
                assert_eq!(w.frame(0).input("inc"), 200);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
        assert!(bmc.stats().queries >= 1);
    }

    #[test]
    fn respects_constraints_when_searching() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 5, true);
        let mut bmc = Bmc::new(BmcConfig::default());
        // increments constrained to one: needs exactly 5 steps
        match bmc.check(&mut tm, &ts, 10) {
            BmcResult::Counterexample(w) => {
                assert_eq!(w.num_steps(), 5);
                let counts: Vec<u64> = w.frames().iter().map(|f| f.state("count")).collect();
                assert_eq!(counts, vec![0, 1, 2, 3, 4, 5]);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn reports_no_counterexample_when_unreachable_within_bound() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 50, true);
        let mut bmc = Bmc::new(BmcConfig::default());
        match bmc.check(&mut tm, &ts, 10) {
            BmcResult::NoCounterexample { bound } => assert_eq!(bound, 10),
            other => panic!("expected no counterexample, got {other:?}"),
        }
    }

    #[test]
    fn witness_replays_on_the_concrete_simulator() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 42, false);
        let mut bmc = Bmc::new(BmcConfig::default());
        let witness = match bmc.check(&mut tm, &ts, 10) {
            BmcResult::Counterexample(w) => w,
            other => panic!("expected a counterexample, got {other:?}"),
        };
        // replay the witness inputs through TransitionSystem::simulate
        let inc = tm.find_var("inc").expect("input exists");
        let count = tm.find_var("count").expect("state exists");
        let inputs: Vec<HashMap<_, _>> = witness.frames()[..witness.num_steps()]
            .iter()
            .map(|f| HashMap::from([(inc, f.input("inc"))]))
            .collect();
        let trace = ts.simulate(&tm, &inputs);
        assert_eq!(trace.last().expect("trace non-empty")[&count], 42);
    }

    #[test]
    fn zero_bound_checks_the_initial_state() {
        let mut tm = TermManager::new();
        // bad state: count == 0 (true initially)
        let ts = counter_system(&mut tm, 8, 0, true);
        let mut bmc = Bmc::new(BmcConfig::default());
        match bmc.check(&mut tm, &ts, 4) {
            BmcResult::Counterexample(w) => assert_eq!(w.num_steps(), 0),
            other => panic!("expected an immediate counterexample, got {other:?}"),
        }
    }

    #[test]
    fn scratch_modes_report_their_sat_work() {
        // An unreachable target: every query is a real UNSAT search.
        let config = BmcConfig {
            mode: BmcMode::Cumulative,
            ..BmcConfig::default()
        };
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 50, true);
        let mut bmc = Bmc::new(config.clone());
        assert!(matches!(
            bmc.check(&mut tm, &ts, 6),
            BmcResult::NoCounterexample { bound: 6 }
        ));

        // The same single query, issued by hand on a scratch solver.
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 50, true);
        let coi = config.simplify.then(|| ts.cone_of_influence(&tm));
        let mut unroller = Unroller::new(&ts);
        let mut solver = Solver::new();
        solver.set_aig(config.aig);
        solver.set_simplify(config.simplify);
        let init = unroller.init(&mut tm);
        solver.assert_term(&tm, init);
        let c0 = unroller.constraints_at(&mut tm, 0);
        solver.assert_term(&tm, c0);
        for t in extend_unrolling(&mut tm, &mut unroller, coi.as_ref(), &mut Vec::new(), 6) {
            solver.assert_term(&tm, t);
        }
        let mut any_bad = tm.fls();
        for k in config.start_bound..=6 {
            let bad = unroller.bad_at(&mut tm, k);
            any_bad = tm.or(any_bad, bad);
        }
        solver.assert_term(&tm, any_bad);
        assert_eq!(solver.check(&mut tm), SatResult::Unsat);

        let reported = &bmc.stats().solver;
        assert!(reported.propagations > 0);
        assert_eq!(reported.propagations, solver.stats().propagations);
        assert_eq!(reported.conflicts, solver.stats().conflicts);
        assert_eq!(reported.checks, 1);
        assert_eq!(
            reported.learnt_deleted, 0,
            "a scratch solver retains nothing"
        );

        // Per-depth scratch sums one check per depth.
        let mut scratch = Bmc::new(BmcConfig {
            mode: BmcMode::PerDepthScratch,
            ..BmcConfig::default()
        });
        scratch.check(&mut tm, &ts, 6);
        let s = scratch.stats();
        assert_eq!(s.solver.checks, s.queries);
        assert_eq!(s.solver.conflicts, s.conflicts);
        assert!(s.solver.propagations > 0);
    }

    #[test]
    fn incremental_per_depth_matches_scratch_per_depth() {
        // Same systems, both verdict polarities, depth by depth.
        for (target, constrain) in [(5u64, true), (50, true), (200, false), (3, true)] {
            let mut tm = TermManager::new();
            let ts = counter_system(&mut tm, 8, target, constrain);
            let mut incremental = Bmc::new(BmcConfig::default());
            let inc_result = incremental.check(&mut tm, &ts, 8);
            let mut tm2 = TermManager::new();
            let ts2 = counter_system(&mut tm2, 8, target, constrain);
            let mut scratch = Bmc::new(BmcConfig {
                mode: BmcMode::PerDepthScratch,
                ..BmcConfig::default()
            });
            let scr_result = scratch.check(&mut tm2, &ts2, 8);
            match (&inc_result, &scr_result) {
                (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                    assert_eq!(a.num_steps(), b.num_steps(), "target {target}");
                }
                (
                    BmcResult::NoCounterexample { bound: a },
                    BmcResult::NoCounterexample { bound: b },
                ) => {
                    assert_eq!(a, b);
                }
                other => panic!("verdicts diverge for target {target}: {other:?}"),
            }
            assert_eq!(incremental.stats().queries, scratch.stats().queries);
        }
    }

    #[test]
    fn incremental_per_depth_reuses_encodings_across_depths() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 50, true); // unreachable in 10 steps
        let mut bmc = Bmc::new(BmcConfig::default());
        let result = bmc.check(&mut tm, &ts, 10);
        assert!(matches!(result, BmcResult::NoCounterexample { .. }));
        let reuse = bmc.stats().solver;
        assert_eq!(reuse.checks, 11, "one check per depth 0..=10");
        assert!(
            reuse.encode.total_reuse() > 0,
            "later depths must reuse encodings or rewrites"
        );
        assert!(
            reuse.encode.rewrite.pins > 0,
            "frame equalities must become pins"
        );
    }

    #[test]
    fn cumulative_incremental_matches_per_depth_across_growing_bounds() {
        // One checker driven through growing max_bound calls; every verdict
        // must match a fresh per-depth run over the same system.
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 5, true);
        let mut cumulative = Bmc::new(BmcConfig {
            mode: BmcMode::CumulativeIncremental,
            ..BmcConfig::default()
        });
        for bound in 0..8 {
            let got = cumulative.check(&mut tm, &ts, bound);
            let mut tm2 = TermManager::new();
            let ts2 = counter_system(&mut tm2, 8, 5, true);
            let mut per_depth = Bmc::new(BmcConfig::default());
            let want = per_depth.check(&mut tm2, &ts2, bound);
            match (&got, &want) {
                (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                    // the counter is deterministic, so the earliest violating
                    // frame of any model is the genuinely shortest trace
                    assert_eq!(a.num_steps(), b.num_steps(), "bound {bound}");
                }
                (
                    BmcResult::NoCounterexample { bound: a },
                    BmcResult::NoCounterexample { bound: b },
                ) => assert_eq!(a, b),
                other => panic!("verdicts diverge at bound {bound}: {other:?}"),
            }
        }
    }

    #[test]
    fn cumulative_incremental_skips_proven_depths_and_reuses_the_solver() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 50, true); // unreachable in 8 steps
        let mut bmc = Bmc::new(BmcConfig {
            mode: BmcMode::CumulativeIncremental,
            ..BmcConfig::default()
        });
        match bmc.check(&mut tm, &ts, 6) {
            BmcResult::NoCounterexample { bound } => assert_eq!(bound, 6),
            other => panic!("expected no counterexample, got {other:?}"),
        }
        assert_eq!(bmc.stats().queries, 1);
        let first_conflicts = bmc.stats().solver.conflicts;
        // Re-checking an already-proven bound issues no SAT query at all.
        match bmc.check(&mut tm, &ts, 6) {
            BmcResult::NoCounterexample { bound } => assert_eq!(bound, 6),
            other => panic!("expected no counterexample, got {other:?}"),
        }
        assert_eq!(bmc.stats().queries, 0);
        assert_eq!(bmc.stats().solver.conflicts, first_conflicts);
        // A deeper call extends the same solver: one query over the two new
        // depths only, with the earlier encodings served from the cache.
        match bmc.check(&mut tm, &ts, 8) {
            BmcResult::NoCounterexample { bound } => assert_eq!(bound, 8),
            other => panic!("expected no counterexample, got {other:?}"),
        }
        assert_eq!(bmc.stats().queries, 1);
        assert!(bmc.stats().solver.encode.total_reuse() > 0);
        // reset drops the persistent solver; the next call starts cold but
        // still answers correctly.
        bmc.reset();
        match bmc.check(&mut tm, &ts, 4) {
            BmcResult::NoCounterexample { bound } => assert_eq!(bound, 4),
            other => panic!("expected no counterexample, got {other:?}"),
        }
    }

    #[test]
    fn cumulative_incremental_finds_counterexamples_with_free_inputs() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 200, false);
        let mut bmc = Bmc::new(BmcConfig {
            mode: BmcMode::CumulativeIncremental,
            ..BmcConfig::default()
        });
        match bmc.check(&mut tm, &ts, 10) {
            BmcResult::Counterexample(w) => {
                assert_eq!(w.last().state("count"), 200);
                assert!(w.num_steps() <= 10);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn per_depth_stats_report_per_query_deltas() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 50, true);
        let mut bmc = Bmc::new(BmcConfig::default());
        let result = bmc.check(&mut tm, &ts, 10);
        assert!(matches!(result, BmcResult::NoCounterexample { .. }));
        let stats = bmc.stats();
        assert_eq!(stats.depths.len(), 11, "one delta entry per depth 0..=10");
        assert_eq!(
            stats.depths.iter().map(|d| d.bound).collect::<Vec<_>>(),
            (0..=10).collect::<Vec<_>>()
        );
        let total: u64 = stats.depths.iter().map(|d| d.conflicts).sum();
        assert_eq!(
            total, stats.conflicts,
            "per-depth conflict deltas must sum to the cumulative count"
        );
    }

    /// Counter system plus a "shadow" accumulator state variable that the
    /// bad state never observes (it is outside the cone of influence) and a
    /// second dead variable feeding only the shadow.
    fn counter_with_shadow(tm: &mut TermManager, target: u64) -> TransitionSystem {
        let mut ts = counter_system(tm, 8, target, true);
        let c = tm.find_var("count").expect("state exists");
        let shadow = tm.var("shadow", Sort::BitVec(8));
        let dead = tm.var("dead", Sort::BitVec(8));
        let sum = tm.bv_add(shadow, c);
        let next_shadow = tm.bv_add(sum, dead);
        let zero = tm.zero(8);
        ts.add_state_var(tm, shadow, Some(zero), next_shadow);
        let one = tm.one(8);
        let next_dead = tm.bv_add(dead, one);
        ts.add_state_var(tm, dead, Some(zero), next_dead);
        ts
    }

    #[test]
    fn coi_reduction_matches_the_full_unrolling() {
        // Both verdict polarities, simplify+COI on vs the scratch baseline
        // with everything off.
        for target in [4u64, 50] {
            let mut tm = TermManager::new();
            let ts = counter_with_shadow(&mut tm, target);
            let mut reduced = Bmc::new(BmcConfig::default());
            let got = reduced.check(&mut tm, &ts, 6);
            assert!(
                reduced.stats().solver.encode.rewrite.coi_dropped_updates > 0,
                "shadow/dead updates must be dropped"
            );
            let mut tm2 = TermManager::new();
            let ts2 = counter_with_shadow(&mut tm2, target);
            let mut full = Bmc::new(BmcConfig {
                mode: BmcMode::PerDepthScratch,
                simplify: false,
                ..BmcConfig::default()
            });
            let want = full.check(&mut tm2, &ts2, 6);
            match (&got, &want) {
                (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                    assert_eq!(a.num_steps(), b.num_steps(), "target {target}");
                }
                (
                    BmcResult::NoCounterexample { bound: a },
                    BmcResult::NoCounterexample { bound: b },
                ) => assert_eq!(a, b),
                other => panic!("verdicts diverge for target {target}: {other:?}"),
            }
        }
    }

    #[test]
    fn coi_dropped_variables_still_read_back_in_witnesses() {
        let mut tm = TermManager::new();
        let ts = counter_with_shadow(&mut tm, 3);
        let mut bmc = Bmc::new(BmcConfig::default());
        let witness = match bmc.check(&mut tm, &ts, 6) {
            BmcResult::Counterexample(w) => w,
            other => panic!("expected a counterexample, got {other:?}"),
        };
        assert_eq!(witness.num_steps(), 3);
        // count: 0,1,2,3; dead: 0,1,2,3; shadow accumulates count+dead:
        // 0, 0+0+0=0, 0+1+1=2, 2+2+2=6 — reconstructed, not solver-assigned.
        let shadows: Vec<u64> = witness.frames().iter().map(|f| f.state("shadow")).collect();
        assert_eq!(shadows, vec![0, 0, 2, 6]);
        let deads: Vec<u64> = witness.frames().iter().map(|f| f.state("dead")).collect();
        assert_eq!(deads, vec![0, 1, 2, 3]);
    }

    /// A dependency chain `c -> b -> a` with only `a` observed by the bad
    /// state: dist(a)=0, dist(b)=1, dist(c)=2, nothing statically dropped.
    /// a: 0,0,0,1,4,10,20,…  b: 0,0,1,3,6,…  c: 0,1,2,3,…
    fn chain_system(tm: &mut TermManager, target: u64) -> TransitionSystem {
        let a = tm.var("a", Sort::BitVec(8));
        let b = tm.var("b", Sort::BitVec(8));
        let c = tm.var("c", Sort::BitVec(8));
        let one = tm.one(8);
        let zero = tm.zero(8);
        let next_a = tm.bv_add(a, b);
        let next_b = tm.bv_add(b, c);
        let next_c = tm.bv_add(c, one);
        let tgt = tm.bv_const(target, 8);
        let bad = tm.eq(a, tgt);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, a, Some(zero), next_a);
        ts.add_state_var(tm, b, Some(zero), next_b);
        ts.add_state_var(tm, c, Some(zero), next_c);
        ts.add_bad(bad);
        ts
    }

    #[test]
    fn per_depth_refinement_drops_beyond_the_static_cone() {
        // Every variable is in the static cone (static dropped == 0), yet
        // the per-depth refinement drops the tail frames' b/c updates; the
        // verdicts must match the unreduced scratch baseline either way.
        for target in [4u64, 3] {
            // a reaches 4 at depth 4; it never equals 3
            let mut tm = TermManager::new();
            let ts = chain_system(&mut tm, target);
            assert_eq!(ts.cone_of_influence(&tm).dropped, 0);
            let mut refined = Bmc::new(BmcConfig::default());
            let got = refined.check(&mut tm, &ts, 6);
            assert!(
                refined.stats().solver.encode.rewrite.coi_dropped_updates > 0,
                "tail-frame b/c updates must be dropped per depth"
            );
            let mut tm2 = TermManager::new();
            let ts2 = chain_system(&mut tm2, target);
            let mut full = Bmc::new(BmcConfig {
                mode: BmcMode::PerDepthScratch,
                simplify: false,
                ..BmcConfig::default()
            });
            let want = full.check(&mut tm2, &ts2, 6);
            match (&got, &want) {
                (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                    assert_eq!(a.num_steps(), b.num_steps(), "target {target}");
                }
                (
                    BmcResult::NoCounterexample { bound: a },
                    BmcResult::NoCounterexample { bound: b },
                ) => assert_eq!(a, b),
                other => panic!("verdicts diverge for target {target}: {other:?}"),
            }
        }
    }

    #[test]
    fn per_depth_refinement_witnesses_reconstruct_tail_frames() {
        // The counterexample ends at depth 4, where the last frames' b/c
        // updates were never encoded — the witness must still carry their
        // forward-evaluated values.
        let mut tm = TermManager::new();
        let ts = chain_system(&mut tm, 4);
        let mut bmc = Bmc::new(BmcConfig::default());
        let witness = match bmc.check(&mut tm, &ts, 6) {
            BmcResult::Counterexample(w) => w,
            other => panic!("expected a counterexample, got {other:?}"),
        };
        assert_eq!(witness.num_steps(), 4);
        let values =
            |name: &str| -> Vec<u64> { witness.frames().iter().map(|f| f.state(name)).collect() };
        assert_eq!(values("a"), vec![0, 0, 0, 1, 4]);
        assert_eq!(values("b"), vec![0, 0, 1, 3, 6]);
        assert_eq!(values("c"), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cumulative_incremental_tops_refined_frames_up_across_bounds() {
        // Growing max_bound calls on one persistent solver: every extension
        // must top the old frames' cones up, so verdicts match a fresh
        // per-depth run at every bound (both polarities appear: target 4 is
        // reached at depth 4, so bounds 0..=3 are UNSAT, 4.. SAT).
        let mut tm = TermManager::new();
        let ts = chain_system(&mut tm, 4);
        let mut cumulative = Bmc::new(BmcConfig {
            mode: BmcMode::CumulativeIncremental,
            ..BmcConfig::default()
        });
        for bound in 0..7 {
            let got = cumulative.check(&mut tm, &ts, bound);
            let mut tm2 = TermManager::new();
            let ts2 = chain_system(&mut tm2, 4);
            let mut per_depth = Bmc::new(BmcConfig::default());
            let want = per_depth.check(&mut tm2, &ts2, bound);
            match (&got, &want) {
                (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                    assert_eq!(a.num_steps(), b.num_steps(), "bound {bound}");
                }
                (
                    BmcResult::NoCounterexample { bound: a },
                    BmcResult::NoCounterexample { bound: b },
                ) => assert_eq!(a, b),
                other => panic!("verdicts diverge at bound {bound}: {other:?}"),
            }
        }
    }

    /// A caller-driven per-depth loop over a [`BmcSession`]: extend, then
    /// query the depth's bad state, stopping at the first non-UNSAT answer.
    fn session_loop(
        tm: &mut TermManager,
        ts: &TransitionSystem,
        config: &BmcConfig,
        max_bound: usize,
    ) -> (BmcResult, BmcStats) {
        let mut session = BmcSession::open(tm, ts, config);
        let mut end = BmcResult::NoCounterexample { bound: max_bound };
        for bound in config.start_bound..=max_bound {
            session.extend(tm, bound);
            let bad = session.bad_at(tm, bound);
            match session.query(tm, bound, &[bad]) {
                QueryOutcome::Unreachable => {}
                QueryOutcome::Counterexample(w) => {
                    end = BmcResult::Counterexample(w);
                    break;
                }
                QueryOutcome::Unknown(reason) => {
                    end = BmcResult::Unknown { bound, reason };
                    break;
                }
            }
        }
        (end, session.stats())
    }

    #[test]
    fn per_depth_bmc_matches_a_hand_driven_session() {
        // Both verdict polarities, on a plain counter and on the chain
        // system whose tail frames exercise the per-depth COI refinement.
        let systems: [fn(&mut TermManager) -> TransitionSystem; 4] = [
            |tm| counter_system(tm, 8, 5, true),
            |tm| counter_system(tm, 8, 50, true),
            |tm| chain_system(tm, 4),
            |tm| chain_system(tm, 3),
        ];
        for (case, build) in systems.iter().enumerate() {
            for start_bound in [0, 1] {
                let config = BmcConfig {
                    start_bound,
                    ..BmcConfig::default()
                };
                let mut tm = TermManager::new();
                let ts = build(&mut tm);
                let mut bmc = Bmc::new(config.clone());
                let got = bmc.check(&mut tm, &ts, 6);
                let mut tm2 = TermManager::new();
                let ts2 = build(&mut tm2);
                let (want, session) = session_loop(&mut tm2, &ts2, &config, 6);
                match (&got, &want) {
                    (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                        assert_eq!(a.num_steps(), b.num_steps(), "case {case}");
                    }
                    (
                        BmcResult::NoCounterexample { bound: a },
                        BmcResult::NoCounterexample { bound: b },
                    ) => assert_eq!(a, b),
                    other => panic!("verdicts diverge in case {case}: {other:?}"),
                }
                let stats = bmc.stats();
                assert_eq!(stats.conflicts, session.conflicts, "case {case}");
                assert_eq!(stats.solver.cnf_clauses, session.solver.cnf_clauses);
                assert_eq!(stats.queries, session.queries);
                let per_query = |s: &BmcStats| -> Vec<(usize, u64)> {
                    s.depths.iter().map(|d| (d.bound, d.conflicts)).collect()
                };
                assert_eq!(per_query(&stats), per_query(&session), "case {case}");
            }
        }
    }

    #[test]
    fn one_depth_query_bad_is_the_per_depth_query() {
        for target in [4u64, 3] {
            let run = |disjunctive: bool| {
                let mut tm = TermManager::new();
                let ts = chain_system(&mut tm, target);
                let mut session = BmcSession::open(&mut tm, &ts, &BmcConfig::default());
                let mut steps = Vec::new();
                for bound in 0..=6 {
                    session.extend(&mut tm, bound);
                    let outcome = if disjunctive {
                        session.query_bad(&mut tm, bound..=bound)
                    } else {
                        let bad = session.bad_at(&mut tm, bound);
                        session.query(&mut tm, bound, &[bad])
                    };
                    steps.push(outcome.into_result(bound).witness().map(Witness::num_steps));
                }
                let stats = session.stats();
                (steps, stats.conflicts, stats.solver.cnf_clauses)
            };
            assert_eq!(run(true), run(false), "target {target}");
        }
    }

    #[test]
    fn injected_cancellation_reports_the_deepest_queried_bound() {
        for mode in [BmcMode::PerDepth, BmcMode::PerDepthScratch] {
            let config = BmcConfig {
                mode,
                fault: BmcFaultPlan {
                    cancel_at_depth: Some(3),
                    ..BmcFaultPlan::default()
                },
                ..BmcConfig::default()
            };
            let mut tm = TermManager::new();
            let ts = counter_system(&mut tm, 8, 50, true);
            let mut bmc = Bmc::new(config);
            let result = bmc.check(&mut tm, &ts, 6);
            assert!(
                matches!(
                    result,
                    BmcResult::Unknown {
                        bound: 3,
                        reason: StopReason::Cancelled
                    }
                ),
                "{mode:?}: got {result:?}"
            );
            assert_eq!(bmc.stats().deepest_bound, 2, "{mode:?}");
            assert_eq!(bmc.stats().queries, 3, "{mode:?}");
        }
        // A session extended past its last query reports the queried depth.
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 50, true);
        let config = BmcConfig {
            fault: BmcFaultPlan {
                cancel_at_depth: Some(3),
                ..BmcFaultPlan::default()
            },
            ..BmcConfig::default()
        };
        let (_, stats) = session_loop(&mut tm, &ts, &config, 2);
        assert_eq!(stats.deepest_bound, 2);
        let mut session = BmcSession::open(&mut tm, &ts, &config);
        session.extend(&mut tm, 3);
        assert_eq!(session.stats().deepest_bound, 0, "no query ran");
    }

    #[test]
    fn aig_off_is_a_faithful_baseline() {
        for (target, constrain) in [(5u64, true), (50, true), (200, false)] {
            let mut tm = TermManager::new();
            let ts = counter_system(&mut tm, 8, target, constrain);
            let mut on = Bmc::new(BmcConfig::default());
            let got = on.check(&mut tm, &ts, 8);
            let mut tm2 = TermManager::new();
            let ts2 = counter_system(&mut tm2, 8, target, constrain);
            let mut off = Bmc::new(BmcConfig {
                aig: false,
                ..BmcConfig::default()
            });
            let want = off.check(&mut tm2, &ts2, 8);
            match (&got, &want) {
                (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                    assert_eq!(a.num_steps(), b.num_steps(), "target {target}");
                }
                (
                    BmcResult::NoCounterexample { bound: a },
                    BmcResult::NoCounterexample { bound: b },
                ) => assert_eq!(a, b),
                other => panic!("verdicts diverge for target {target}: {other:?}"),
            }
            assert!(
                on.stats().solver.encode.aig.strash_hits
                    >= off.stats().solver.encode.aig.strash_hits,
                "aig off must not structurally hash"
            );
            assert_eq!(off.stats().solver.encode.aig.strash_hits, 0);
        }
    }

    #[test]
    fn simplify_off_is_a_faithful_baseline() {
        for (target, constrain) in [(5u64, true), (50, true), (200, false)] {
            let mut tm = TermManager::new();
            let ts = counter_system(&mut tm, 8, target, constrain);
            let mut on = Bmc::new(BmcConfig::default());
            let got = on.check(&mut tm, &ts, 8);
            let mut tm2 = TermManager::new();
            let ts2 = counter_system(&mut tm2, 8, target, constrain);
            let mut off = Bmc::new(BmcConfig {
                simplify: false,
                ..BmcConfig::default()
            });
            let want = off.check(&mut tm2, &ts2, 8);
            match (&got, &want) {
                (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                    assert_eq!(a.num_steps(), b.num_steps(), "target {target}");
                }
                (
                    BmcResult::NoCounterexample { bound: a },
                    BmcResult::NoCounterexample { bound: b },
                ) => assert_eq!(a, b),
                other => panic!("verdicts diverge for target {target}: {other:?}"),
            }
            assert!(
                off.stats().solver.encode.rewrite.pins == 0,
                "simplify off must not pin"
            );
        }
    }

    #[test]
    fn frame_rescoring_keeps_cumulative_incremental_verdicts() {
        // One checker with VSIDS frame rescoring, one without, driven
        // through the same growing bounds: every verdict must match.
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 5, true);
        let mut rescored = Bmc::new(BmcConfig {
            mode: BmcMode::CumulativeIncremental,
            frame_rescore: Some(0.2),
            ..BmcConfig::default()
        });
        let mut plain = Bmc::new(BmcConfig {
            mode: BmcMode::CumulativeIncremental,
            ..BmcConfig::default()
        });
        for bound in 0..8 {
            let got = rescored.check(&mut tm, &ts, bound);
            let want = plain.check(&mut tm, &ts, bound);
            match (&got, &want) {
                (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                    assert_eq!(a.num_steps(), b.num_steps(), "bound {bound}");
                }
                (
                    BmcResult::NoCounterexample { bound: a },
                    BmcResult::NoCounterexample { bound: b },
                ) => assert_eq!(a, b),
                other => panic!("verdicts diverge at bound {bound}: {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_on_tiny_conflict_budget() {
        let mut tm = TermManager::new();
        // a harder target at 16 bits with constrained increments of exactly 3
        let c = tm.var("count", Sort::BitVec(16));
        let inc = tm.var("inc", Sort::BitVec(16));
        let prod = tm.bv_mul(c, inc);
        let next = tm.bv_add(prod, inc);
        let one = tm.one(16);
        let tgt = tm.bv_const(0x8d2b, 16);
        let bad = tm.eq(c, tgt);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(&tm, c, Some(one), next);
        ts.add_input(&tm, inc);
        ts.add_bad(bad);
        let mut bmc = Bmc::new(BmcConfig {
            conflict_limit: Some(1),
            ..BmcConfig::default()
        });
        let result = bmc.check(&mut tm, &ts, 6);
        assert!(
            matches!(
                result,
                BmcResult::Unknown { .. } | BmcResult::Counterexample(_)
            ),
            "tiny budgets either give up or get lucky, got {result:?}"
        );
    }
}
