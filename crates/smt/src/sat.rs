//! A CDCL SAT solver.
//!
//! The solver implements the standard conflict-driven clause-learning loop:
//! two-watched-literal propagation, first-UIP conflict analysis, VSIDS-style
//! branching with phase saving, Luby restarts and activity/LBD-based learnt
//! clause database reduction.  It is deliberately self-contained (no
//! dependencies) and deterministic, so every experiment in the reproduction
//! is repeatable.
//!
//! The solver is *incremental* in the MiniSat sense: clauses may be added
//! between calls, and [`SatSolver::solve_under_assumptions`] decides
//! satisfiability under a set of assumption literals that are retracted when
//! the call returns.  Learnt clauses, variable activities and saved phases
//! all persist across calls, so sequences of closely related queries (BMC
//! depth sweeps, CEGIS refinements) reuse the work of earlier calls.  When a
//! call returns [`SolveOutcome::Unsat`] because of the assumptions,
//! [`SatSolver::unsat_assumptions`] yields the subset of assumptions that
//! participated in the final conflict (an unsat core over assumptions).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::cnf::{Clause, Cnf, Lit, Var};

/// A shared cancellation flag: set it from any thread and every solver
/// holding a clone abandons its in-flight search with
/// [`SolveOutcome::Unknown`] at the next check point (the same sampled spot
/// where the wall-clock deadline is polled).  This is what lets a parallel
/// detection batch cut every worker loose when a global time budget
/// expires.
pub type CancelFlag = Arc<AtomicBool>;

/// Why a call gave up with [`SolveOutcome::Unknown`] (or why a detection
/// run ended without a verdict) — the error taxonomy of the whole stack.
///
/// Every layer that can abandon work (`SatSolver`, the SMT front-ends, the
/// BMC driver, the parallel detection engine) reports one of these instead
/// of an undifferentiated "unknown", so a server loop can tell a job that
/// needs a bigger budget from one that was cancelled or crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The conflict budget was exhausted.
    ConflictBudget,
    /// The memory budget (clause arena + watcher estimate) was exceeded.
    MemoryBudget,
    /// A shared cancellation flag was raised from outside.
    Cancelled,
    /// The job panicked and was caught by the isolation layer.  Never
    /// produced by the solver itself; the parallel engine maps caught
    /// panics to this variant so they share the taxonomy.
    Panicked,
    /// The solver produced a counterexample, but replaying it on the
    /// concrete processor twin did not reproduce the inconsistency.  Never
    /// produced by the solver itself; the detection layer's witness
    /// self-check demotes the would-be `Bug` verdict to this structured
    /// failure instead of reporting a silently wrong result.
    WitnessMismatch,
    /// An unbounded prover produced an inductive-invariant certificate, but
    /// re-checking its proof obligations on a fresh independent solver did
    /// not confirm them.  Never produced by the solver itself; the
    /// detection layer's proof self-check demotes the would-be `Proved`
    /// verdict to this structured failure — the proof-side twin of
    /// [`StopReason::WitnessMismatch`].
    ProofMismatch,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StopReason::Deadline => "deadline",
            StopReason::ConflictBudget => "conflict-budget",
            StopReason::MemoryBudget => "memory-budget",
            StopReason::Cancelled => "cancelled",
            StopReason::Panicked => "panicked",
            StopReason::WitnessMismatch => "witness-mismatch",
            StopReason::ProofMismatch => "proof-mismatch",
        };
        write!(f, "{s}")
    }
}

/// Deterministic fault-injection hooks for the SAT core (test-only in
/// spirit, but compiled in: the checks are two `Option` compares per
/// conflict, noise next to conflict analysis).
///
/// Both hooks key on the solver's *cumulative* conflict counter, which is
/// deterministic for a fixed formula and configuration — so a forced fault
/// lands at exactly the same point on every run, which is what lets the
/// recovery paths be tested by counters instead of wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultHooks {
    /// Panic (deliberately) once the cumulative conflict count reaches this
    /// value — exercises the panic-isolation layer above.
    pub panic_at_conflict: Option<u64>,
    /// Report a fake memory-budget breach once the cumulative conflict
    /// count reaches this value — exercises the [`StopReason::MemoryBudget`]
    /// path without allocating anything.
    pub memory_breach_at_conflict: Option<u64>,
}

impl FaultHooks {
    /// Whether no hook is armed.
    pub fn is_empty(&self) -> bool {
        self.panic_at_conflict.is_none() && self.memory_breach_at_conflict.is_none()
    }
}

/// Result of a SAT call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment was found; read it back with
    /// [`SatSolver::value_of`].
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

/// Conflicts before the first learnt-database reduction (the interval then
/// grows geometrically by [`REDUCE_GROWTH`] per pass).
const DEFAULT_REDUCE_INTERVAL: u64 = 2000;

/// Numerator/denominator of the geometric growth of the reduction interval.
const REDUCE_GROWTH: (u64, u64) = (13, 10);

/// Live learnt clauses that force a reduction even before the conflict
/// schedule fires (grows geometrically like the interval).
const DEFAULT_REDUCE_CAP: u64 = 4000;

const UNASSIGNED: i8 = 0;
const VALUE_TRUE: i8 = 1;
const VALUE_FALSE: i8 = -1;

/// Outcome of one decision step of the search loop.
enum Decision {
    /// A (pseudo-)decision was enqueued; keep propagating.
    Continue,
    /// Every variable is assigned: the formula is satisfiable.
    Sat,
    /// This assumption is falsified by the current trail.
    FailedAssumption(Lit),
}

/// Words of a clause header in the arena: literal count, learnt bit + LBD,
/// and the two halves of the `f64` activity.  The literals follow inline.
const HEADER_WORDS: usize = 4;

/// Header word 1: set for learnt clauses; the low bits hold the LBD.
const LEARNT_BIT: u32 = 1 << 31;

/// Counters of the learnt-clause database reduction.
///
/// Long-lived incremental solvers accumulate learnt clauses across calls;
/// the periodic [`reduce_db`](SatSolver) passes delete the cold half of them
/// and compact the clause arena in place, so the space is reused.  These
/// counters quantify that: how often reduction ran, how much it deleted, and
/// the high-water mark of live learnt clauses (the bound on what an
/// unreduced solver would have retained is `clauses_deleted +` the current
/// live count).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReduceStats {
    /// Reduction passes run so far.
    pub reductions: u64,
    /// Learnt clauses deleted over all passes.
    pub clauses_deleted: u64,
    /// Literals of the deleted clauses, reclaimed by in-place arena
    /// compaction (each deleted clause also frees its header words).
    pub literals_freed: u64,
    /// Most live learnt clauses ever resident at once.
    pub learnt_high_water: u64,
}

/// Indexed max-heap over variable activities (MiniSat-style order heap).
#[derive(Debug, Default, Clone)]
struct VarOrder {
    heap: Vec<Var>,
    positions: Vec<Option<usize>>,
}

impl VarOrder {
    fn grow(&mut self, n: usize) {
        if self.positions.len() < n {
            self.positions.resize(n, None);
        }
    }

    fn contains(&self, v: Var) -> bool {
        self.positions.get(v.index()).copied().flatten().is_some()
    }

    fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.grow(v.index() + 1);
        let i = self.heap.len();
        self.heap.push(v);
        self.positions[v.index()] = Some(i);
        self.sift_up(i, activity);
    }

    fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("heap not empty");
        self.positions[top.index()] = None;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.positions[last.index()] = Some(0);
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn update(&mut self, v: Var, activity: &[f64]) {
        if let Some(i) = self.positions.get(v.index()).copied().flatten() {
            self.sift_up(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i].index()] > activity[self.heap[parent].index()] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l].index()] > activity[self.heap[best].index()]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r].index()] > activity[self.heap[best].index()]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.positions[self.heap[i].index()] = Some(i);
        self.positions[self.heap[j].index()] = Some(j);
    }

    /// Restores the heap property after an out-of-band activity change
    /// (bottom-up heapify, O(n)).
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }
}

/// The CDCL solver.
///
/// Typical use: construct with [`SatSolver::from_cnf`] (or add clauses with
/// [`SatSolver::add_clause`]), call [`SatSolver::solve`], and on
/// [`SolveOutcome::Sat`] read variable values with [`SatSolver::value_of`].
#[derive(Debug, Clone)]
pub struct SatSolver {
    /// Every stored clause, back to back: a [`HEADER_WORDS`] header, then
    /// the literals inline.  A clause reference is the offset of its header.
    arena: Vec<u32>,
    /// Stored clauses (original + learnt); each owns two watcher entries.
    num_clauses: usize,
    watches: Vec<Vec<u32>>,
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarOrder,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Conflict-analysis buffer, reused across conflicts.
    learnt: Vec<Lit>,
    /// Per-decision-level stamps for counting a clause's distinct levels.
    level_stamp: Vec<u64>,
    /// Stamp of the latest LBD computation.
    lbd_stamp: u64,
    ok: bool,
    num_vars: u32,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    conflict_limit: Option<u64>,
    /// Conflicts between learnt-database reductions; grows geometrically
    /// after each pass so reduction stays cheap relative to search.
    reduce_interval: u64,
    /// Conflict count at which the next reduction fires.
    reduce_next: u64,
    /// Live-learnt-count safety cap that also fires a reduction.
    reduce_cap: u64,
    reduce_stats: ReduceStats,
    /// Assumption literals of the solve call in progress (enqueued as
    /// pseudo-decisions on their own levels, retracted on return).
    assumptions: Vec<Lit>,
    /// Subset of the assumptions responsible for the last assumption-caused
    /// UNSAT answer.
    conflict_core: Vec<Lit>,
    /// Assignment snapshot of the last SAT answer (the trail itself is
    /// unwound to level 0 between calls so clauses can keep being added).
    model: Vec<i8>,
    /// Live (non-deleted) learnt clauses, kept as a counter so the search
    /// loop's database-reduction trigger is O(1) instead of O(|arena|).
    num_learnt_live: usize,
    /// Wall-clock deadline for the current solve call; exceeding it yields
    /// [`SolveOutcome::Unknown`] (checked every few conflicts, so a call
    /// overruns the deadline by at most a short burst of conflicts).
    deadline: Option<Instant>,
    /// Externally shared cancellation flags, polled at the same sampled
    /// check point as the deadline; any raised flag yields
    /// [`SolveOutcome::Unknown`] and leaves the solver reusable.  A `Vec`
    /// so independent cancellation sources chain instead of replacing each
    /// other (a caller's private flag plus a batch's global flag).
    cancel: Vec<CancelFlag>,
    /// Byte budget for the clause arena + watcher estimate; exceeding it at
    /// the sampled check point yields [`SolveOutcome::Unknown`] with
    /// [`StopReason::MemoryBudget`].
    memory_limit: Option<usize>,
    /// High-water mark of the memory estimate (sampled alongside the
    /// deadline poll).
    mem_high_water: usize,
    /// Why the last call returned [`SolveOutcome::Unknown`]; `None` after a
    /// verdict.
    stop_reason: Option<StopReason>,
    /// Deterministic fault-injection hooks (empty by default).
    fault: FaultHooks,
}

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SatSolver {
            arena: Vec::new(),
            num_clauses: 0,
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarOrder::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            learnt: Vec::new(),
            level_stamp: Vec::new(),
            lbd_stamp: 0,
            ok: true,
            num_vars: 0,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            conflict_limit: None,
            reduce_interval: DEFAULT_REDUCE_INTERVAL,
            reduce_next: DEFAULT_REDUCE_INTERVAL,
            reduce_cap: DEFAULT_REDUCE_CAP,
            reduce_stats: ReduceStats::default(),
            assumptions: Vec::new(),
            conflict_core: Vec::new(),
            model: Vec::new(),
            num_learnt_live: 0,
            deadline: None,
            cancel: Vec::new(),
            memory_limit: None,
            mem_high_water: 0,
            stop_reason: None,
            fault: FaultHooks::default(),
        }
    }

    /// Builds a solver pre-loaded with the clauses of `cnf`.
    ///
    /// Takes the formula by value so the clause storage moves straight into
    /// the solver; callers that need to keep their `Cnf` clone explicitly.
    pub fn from_cnf(cnf: Cnf) -> Self {
        let mut s = Self::new();
        s.reserve_vars(cnf.num_vars());
        for clause in cnf.into_clauses() {
            s.add_clause(clause);
        }
        s
    }

    /// Ensures variables `0..n` exist.
    pub fn reserve_vars(&mut self, n: u32) {
        while self.num_vars < n {
            self.new_var();
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of conflicts encountered so far (useful as a cost metric).
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of decisions made so far.
    pub fn num_decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of propagated literals so far.
    pub fn num_propagations(&self) -> u64 {
        self.propagations
    }

    /// Limits the number of conflicts of the next [`solve`](Self::solve) call;
    /// exceeding the limit yields [`SolveOutcome::Unknown`].
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
    }

    /// Sets a wall-clock deadline for subsequent solve calls; a search that
    /// passes the deadline returns [`SolveOutcome::Unknown`].  Unlike the
    /// conflict limit this bounds real time, which makes solver calls
    /// interruptible from drivers with wall-clock budgets.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Attaches a set of shared cancellation flags to subsequent solve
    /// calls; when another thread raises *any* of them, an in-flight search
    /// returns [`SolveOutcome::Unknown`] at its next check point (the same
    /// 1-in-64 conflict sampling as the deadline, so cancellation lands
    /// within a short burst of conflicts).  Independent cancellation sources
    /// chain by each contributing a flag — e.g. a caller's private flag plus
    /// the parallel engine's batch flag — instead of one silently replacing
    /// the other.  The solver state stays valid: lower the flags and solve
    /// again to continue.  Replaces any previously attached flags; an empty
    /// set detaches.
    pub fn set_cancel_flags(&mut self, cancel: Vec<CancelFlag>) {
        self.cancel = cancel;
    }

    /// Whether any attached cancellation flag has been raised.
    fn cancelled(&self) -> bool {
        self.cancel.iter().any(|c| c.load(Ordering::Relaxed))
    }

    /// Caps the estimated bytes held by the clause arena and watcher lists
    /// (see [`memory_estimate`](Self::memory_estimate)); a search that
    /// exceeds the cap at the sampled check point returns
    /// [`SolveOutcome::Unknown`] with [`StopReason::MemoryBudget`] instead
    /// of growing without bound.  The solver stays reusable — raise the cap
    /// (or let reduction shrink the arena) and solve again.  `None` (the
    /// default) means unlimited.
    pub fn set_memory_limit(&mut self, limit: Option<usize>) {
        self.memory_limit = limit;
    }

    /// Bytes held by the clause arena and watcher lists: every arena word
    /// (clause headers and inline literals) plus the two watcher entries
    /// each stored clause registers.  O(1), so the search loop can poll it.
    pub fn memory_estimate(&self) -> usize {
        (self.arena.len() + 2 * self.num_clauses) * std::mem::size_of::<u32>()
    }

    /// High-water mark of [`memory_estimate`](Self::memory_estimate),
    /// sampled at the same check point as the deadline poll.
    pub fn memory_high_water(&self) -> usize {
        self.mem_high_water
    }

    /// Why the last solve call returned [`SolveOutcome::Unknown`]; `None`
    /// after a conclusive verdict (or before any call).
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop_reason
    }

    /// Arms the deterministic fault-injection hooks for subsequent solve
    /// calls (see [`FaultHooks`]).  The default hooks are empty.
    pub fn set_fault_hooks(&mut self, fault: FaultHooks) {
        self.fault = fault;
    }

    /// Overrides the learnt-database reduction schedule: the next reduction
    /// pass fires `interval` conflicts from now, and the
    /// interval keeps growing geometrically from that value.  Small values
    /// force frequent reductions (the differential tests use this to
    /// exercise reduction on small formulas).
    pub fn set_reduce_interval(&mut self, interval: u64) {
        self.reduce_interval = interval.max(1);
        self.reduce_next = self.conflicts + self.reduce_interval;
    }

    /// Counters of the learnt-clause database reduction.
    pub fn reduce_stats(&self) -> ReduceStats {
        self.reduce_stats
    }

    /// Multiplies the VSIDS activity of every variable allocated before
    /// `watermark` by `factor` (0 < `factor` ≤ 1) and re-heapifies the
    /// branching order.
    ///
    /// Between calls, a long-lived incremental solver keeps the activity it
    /// accumulated on *earlier* queries; on a BMC bound extension that state
    /// makes branching dwell on stale depths.  Decaying every pre-extension
    /// variable uniformly re-centres branching toward the newest frame's
    /// variables (which start cold but now catch up after a handful of
    /// bumps) without forgetting the old ordering entirely.  A no-op when
    /// `factor` is 1 or no variables precede the watermark.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn rescale_activities_before(&mut self, watermark: Var, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "activity rescale factor must be in (0, 1], got {factor}"
        );
        if factor == 1.0 {
            return;
        }
        let end = watermark.index().min(self.activity.len());
        for a in &mut self.activity[..end] {
            *a *= factor;
        }
        self.order.rebuild(&self.activity);
    }

    fn lit_value(&self, l: Lit) -> i8 {
        let v = self.assign[l.var().index()];
        if v == UNASSIGNED {
            UNASSIGNED
        } else if l.is_positive() {
            v
        } else {
            -v
        }
    }

    /// Value of a variable in the model of the last satisfiable call.
    pub fn value_of(&self, v: Var) -> bool {
        self.model.get(v.index()).copied().unwrap_or(UNASSIGNED) == VALUE_TRUE
    }

    /// The subset of the last call's assumptions that participated in the
    /// final conflict, when
    /// [`solve_under_assumptions`](Self::solve_under_assumptions)
    /// returned [`SolveOutcome::Unsat`]
    /// because of its assumptions.  Empty when the formula is unsatisfiable
    /// on its own.
    pub fn unsat_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Number of stored clauses (original + learnt).  Deleted learnt clauses
    /// are physically removed from the arena by reduction, so every stored
    /// clause is live.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Number of live learnt clauses retained for future calls.
    ///
    /// Maintained as a counter (updated by learning and database reduction)
    /// so the search loop never scans the clause arena, which grows with the
    /// lifetime of an incremental solver.
    pub fn num_learnt(&self) -> usize {
        self.num_learnt_live
    }

    /// Adds a clause.  Returns `false` if the solver became trivially
    /// unsatisfiable (empty clause or conflicting units).
    pub fn add_clause(&mut self, mut lits: Clause) -> bool {
        if !self.ok {
            return false;
        }
        debug_assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        for l in &lits {
            self.reserve_vars(l.var().0 + 1);
        }
        lits.sort();
        lits.dedup();
        // Tautology / falsified-literal simplification at level 0 (sorting
        // puts x and ¬x next to each other).
        if lits.windows(2).any(|w| w[1] == !w[0])
            || lits.iter().any(|&l| self.lit_value(l) == VALUE_TRUE)
        {
            return true; // x ∨ ¬x, or already satisfied at level 0
        }
        lits.retain(|&l| self.lit_value(l) != VALUE_FALSE);
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.store_clause(&lits, 0, 0.0);
                true
            }
        }
    }

    /// Appends a clause to the arena and watches its first two literals.
    /// `meta` is header word 1 (the learnt bit and LBD, 0 for originals).
    fn store_clause(&mut self, lits: &[Lit], meta: u32, activity: f64) -> u32 {
        let cr = u32::try_from(self.arena.len()).expect("clause arena overflow");
        let bits = activity.to_bits();
        self.arena.extend_from_slice(&[
            u32::try_from(lits.len()).expect("clause length overflow"),
            meta,
            bits as u32,
            (bits >> 32) as u32,
        ]);
        self.arena.extend(lits.iter().map(|l| l.code()));
        self.watches[lits[0].index()].push(cr);
        self.watches[lits[1].index()].push(cr);
        self.num_clauses += 1;
        cr
    }

    fn clause_len(&self, cr: u32) -> usize {
        self.arena[cr as usize] as usize
    }

    /// Literal `k` of clause `cr`.
    fn clause_lit(&self, cr: u32, k: usize) -> Lit {
        Lit::from_code(self.arena[cr as usize + HEADER_WORDS + k])
    }

    fn clause_activity(&self, cr: u32) -> f64 {
        let c = cr as usize;
        f64::from_bits(u64::from(self.arena[c + 2]) | (u64::from(self.arena[c + 3]) << 32))
    }

    fn set_clause_activity(&mut self, cr: u32, activity: f64) {
        let c = cr as usize;
        let bits = activity.to_bits();
        self.arena[c + 2] = bits as u32;
        self.arena[c + 3] = (bits >> 32) as u32;
    }

    /// References of every stored clause, in ascending (insertion) order.
    fn clause_refs(&self) -> Vec<u32> {
        let mut refs = Vec::with_capacity(self.num_clauses);
        let mut c = 0;
        while c < self.arena.len() {
            refs.push(c as u32);
            c += HEADER_WORDS + self.arena[c] as usize;
        }
        refs
    }

    fn decision_level(&self) -> u32 {
        u32::try_from(self.trail_lim.len()).expect("level overflow")
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.lit_value(l), UNASSIGNED);
        let v = l.var();
        self.assign[v.index()] = if l.is_positive() {
            VALUE_TRUE
        } else {
            VALUE_FALSE
        };
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.phase[v.index()] = l.is_positive();
        self.trail.push(l);
    }

    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = !p;
            // Compact the watch list in place: `j` trails `i` over the
            // watchers that stay.  New watchers go to other lists (a
            // replacement watch is never the false literal itself), so the
            // list is taken out and put back whole.
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut conflict = None;
            let (mut i, mut j) = (0, 0);
            while i < ws.len() {
                let cr = ws[i];
                i += 1;
                let lits = cr as usize + HEADER_WORDS;
                // Make sure the false literal is at position 1.
                if self.arena[lits] == false_lit.code() {
                    self.arena.swap(lits, lits + 1);
                }
                let first = Lit::from_code(self.arena[lits]);
                if self.lit_value(first) == VALUE_TRUE {
                    ws[j] = cr;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.arena[cr as usize] as usize;
                let mut found = false;
                for k in 2..len {
                    let lk = Lit::from_code(self.arena[lits + k]);
                    if self.lit_value(lk) != VALUE_FALSE {
                        self.arena.swap(lits + 1, lits + k);
                        self.watches[lk.index()].push(cr);
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // Clause is unit or conflicting.
                ws[j] = cr;
                j += 1;
                if self.lit_value(first) == VALUE_FALSE {
                    // Conflict: keep the remaining watchers and bail out.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    conflict = Some(cr);
                } else {
                    self.enqueue(first, Some(cr));
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[false_lit.index()].is_empty());
            self.watches[false_lit.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    /// Decays clause activities (by inflating the bump increment, MiniSat
    /// style): clauses that stop participating in conflicts grow relatively
    /// cold and become reduction candidates.  The factor is deliberately
    /// gentle — a strong recency bias would delete the cross-depth lemmas
    /// that make a long-lived incremental solver worth keeping (measured:
    /// 0.999 costs ~45% more conflicts than 0.9999 on the Table-1 sweep).
    fn cla_decay(&mut self) {
        self.cla_inc *= 1.0 / 0.9999;
    }

    fn clause_bump(&mut self, cr: u32) {
        let activity = self.clause_activity(cr) + self.cla_inc;
        self.set_clause_activity(cr, activity);
        if activity > 1e20 {
            for c in self.clause_refs() {
                if self.arena[c as usize + 1] & LEARNT_BIT != 0 {
                    let scaled = self.clause_activity(c) * 1e-20;
                    self.set_clause_activity(c, scaled);
                }
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP analysis of `conflict`: leaves the minimised learnt clause
    /// in `self.learnt` (asserting literal first, a literal of the
    /// backtrack level second) and returns the backtrack level.
    fn analyze(&mut self, mut conflict: u32) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::pos(Var(0))); // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut trail_index = self.trail.len();

        loop {
            self.clause_bump(conflict);
            let start = usize::from(p.is_some());
            for k in start..self.clause_len(conflict) {
                let q = self.clause_lit(conflict, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.var_bump(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal of the current level on the trail.
            loop {
                trail_index -= 1;
                let l = self.trail[trail_index];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found a seen literal").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.expect("asserting literal");
                break;
            }
            conflict = self.reason[pv.index()].expect("non-decision literal has a reason");
        }

        // Conflict-clause minimisation (self-subsumption with direct
        // reasons).  `seen` marks exactly the variables of `learnt[1..]`
        // here and is not touched until every literal is judged, so the
        // redundant literals are swapped to the tail (keeping the order of
        // the kept ones) and their flags cleared with the rest.
        let mut kept = 1;
        for i in 1..learnt.len() {
            if !self.literal_is_redundant(learnt[i]) {
                learnt.swap(kept, i);
                kept += 1;
            }
        }
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        learnt.truncate(kept);

        // Compute the backtrack level: second highest level in the clause.
        let mut backtrack = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            backtrack = self.level[learnt[1].var().index()];
        }
        self.learnt = learnt;
        backtrack
    }

    /// A literal is redundant in the learnt clause if every literal of its
    /// reason clause is already in the learnt clause (one-step
    /// self-subsumption).  Membership is the `seen` flag: during
    /// minimisation it is set exactly for the variables of the learnt
    /// clause's tail, and a reason's tail literals are false like the
    /// learnt ones, so a marked variable means that very literal.
    fn literal_is_redundant(&self, l: Lit) -> bool {
        let Some(r) = self.reason[l.var().index()] else {
            return false;
        };
        (1..self.clause_len(r)).all(|k| {
            let v = self.clause_lit(r, k).var().index();
            self.seen[v] || self.level[v] == 0
        })
    }

    fn backtrack(&mut self, target: u32) {
        while self.decision_level() > target {
            let limit = self.trail_lim.pop().expect("decision level exists");
            while self.trail.len() > limit {
                let l = self.trail.pop().expect("trail not empty");
                let v = l.var();
                self.phase[v.index()] = l.is_positive();
                self.assign[v.index()] = UNASSIGNED;
                self.reason[v.index()] = None;
                if !self.order.contains(v) {
                    self.order.insert(v, &self.activity);
                }
            }
        }
        self.qhead = self.trail.len();
    }

    fn learn(&mut self, clause: &[Lit]) -> Option<u32> {
        match clause.len() {
            0 => {
                self.ok = false;
                None
            }
            1 => {
                self.enqueue(clause[0], None);
                None
            }
            _ => {
                let lbd = self.compute_lbd(clause);
                let cr = self.store_clause(clause, LEARNT_BIT | lbd, self.cla_inc);
                self.num_learnt_live += 1;
                self.reduce_stats.learnt_high_water = self
                    .reduce_stats
                    .learnt_high_water
                    .max(self.num_learnt_live as u64);
                Some(cr)
            }
        }
    }

    /// Number of distinct decision levels among the clause's literals.
    fn compute_lbd(&mut self, clause: &[Lit]) -> u32 {
        self.lbd_stamp += 1;
        let mut distinct = 0;
        for l in clause {
            let level = self.level[l.var().index()] as usize;
            if level >= self.level_stamp.len() {
                self.level_stamp.resize(level + 1, 0);
            }
            if self.level_stamp[level] != self.lbd_stamp {
                self.level_stamp[level] = self.lbd_stamp;
                distinct += 1;
            }
        }
        debug_assert!(distinct < LEARNT_BIT, "lbd overflow");
        distinct
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v.index()] == UNASSIGNED {
                return Some(Lit::new(v, self.phase[v.index()]));
            }
        }
        None
    }

    /// Makes the next pseudo-decision (an assumption not yet at its level) or
    /// real decision (VSIDS branch).
    fn next_decision(&mut self) -> Decision {
        while (self.decision_level() as usize) < self.assumptions.len() {
            let p = self.assumptions[self.decision_level() as usize];
            match self.lit_value(p) {
                VALUE_TRUE => {
                    // Already satisfied: open a dummy level so assumption
                    // indices and decision levels stay aligned.
                    self.trail_lim.push(self.trail.len());
                }
                VALUE_FALSE => return Decision::FailedAssumption(p),
                _ => {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(p, None);
                    return Decision::Continue;
                }
            }
        }
        match self.pick_branch() {
            None => Decision::Sat,
            Some(l) => {
                self.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(l, None);
                Decision::Continue
            }
        }
    }

    /// Final-conflict analysis: `failed` is an assumption currently falsified
    /// by the trail.  Walks the implication graph backwards from `¬failed`
    /// and collects the pseudo-decisions (assumptions) it rests on, yielding
    /// an unsat core over the assumptions in `conflict_core`.
    fn analyze_final(&mut self, failed: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(failed);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[failed.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                None => {
                    // A decision above level 0 is always an assumption here:
                    // analyze_final runs before any real branching happens on
                    // top of a falsified assumption, and assumptions are
                    // enqueued verbatim — so the trail literal is the
                    // assumption itself (including `!failed` when the
                    // assumption set contains both polarities of a variable).
                    if self.level[v.index()] > 0 {
                        self.conflict_core.push(l);
                    }
                }
                Some(cr) => {
                    for k in 0..self.clause_len(cr) {
                        let q = self.clause_lit(cr, k).var();
                        if q != v && self.level[q.index()] > 0 {
                            self.seen[q.index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[failed.var().index()] = false;
    }

    /// Deletes the cold half of the learnt clauses and compacts the arena.
    ///
    /// Deletion candidates are ordered coldest-first: highest LBD, then
    /// lowest activity, so low-LBD (glue) clauses sort to the survivor end
    /// and are deleted only when the cold half reaches them.  Locked clauses
    /// (the reason of a trail literal) and binary learnts are never deleted.
    /// Deliberately *not* protected absolutely: glue clauses — under BMC
    /// assumption levels the glue pool grows without bound, and an immune
    /// pool concentrates deletion on the useful mid-LBD clauses (measured:
    /// ~40% more conflicts on the Table-1 sweep).  The surviving clauses are
    /// then slid down over the freed space in place and every watcher list
    /// and reason reference is remapped, so the arena holds no tombstones —
    /// the property that keeps long-lived incremental solvers (BMC sweeps,
    /// CEGIS loops) at bounded memory.
    fn reduce_db(&mut self) {
        // Per-clause side arrays, indexed by ordinal.  While they are live,
        // header word 1 of each clause holds its ordinal (later its new
        // reference), so a reference maps to its clause in O(1); `meta`
        // keeps the displaced learnt bit and LBD.
        let refs = self.clause_refs();
        let n = refs.len();
        let mut meta = Vec::with_capacity(n);
        for (ordinal, &cr) in refs.iter().enumerate() {
            let word = &mut self.arena[cr as usize + 1];
            meta.push(*word);
            *word = ordinal as u32;
        }
        let mut locked = vec![false; n];
        for &r in self.reason.iter().flatten() {
            locked[self.arena[r as usize + 1] as usize] = true;
        }
        let mut candidates: Vec<u32> = (0..n)
            .filter(|&i| meta[i] & LEARNT_BIT != 0 && self.clause_len(refs[i]) > 2 && !locked[i])
            .map(|i| i as u32)
            .collect();
        candidates.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            let lbd = |i: usize| meta[i] & !LEARNT_BIT;
            lbd(b).cmp(&lbd(a)).then(
                self.clause_activity(refs[a])
                    .partial_cmp(&self.clause_activity(refs[b]))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_remove = candidates.len() / 2;
        let mut delete = vec![false; n];
        for &i in &candidates[..to_remove] {
            delete[i as usize] = true;
        }

        // Record each survivor's new reference in its header, remap the
        // watchers and reasons through it, then slide the survivors down.
        // Locked clauses are never deleted, so every reason has a target.
        let mut next = 0usize;
        for (i, &cr) in refs.iter().enumerate() {
            let size = HEADER_WORDS + self.clause_len(cr);
            self.arena[cr as usize + 1] = if delete[i] {
                self.reduce_stats.literals_freed += (size - HEADER_WORDS) as u64;
                u32::MAX
            } else {
                next += size;
                (next - size) as u32
            };
        }
        let arena = &self.arena;
        for ws in &mut self.watches {
            ws.retain_mut(|cr| {
                *cr = arena[*cr as usize + 1];
                *cr != u32::MAX
            });
        }
        for r in self.reason.iter_mut().flatten() {
            *r = arena[*r as usize + 1];
        }
        for (i, &cr) in refs.iter().enumerate() {
            if delete[i] {
                continue;
            }
            let (from, to) = (cr as usize, self.arena[cr as usize + 1] as usize);
            let size = HEADER_WORDS + self.clause_len(cr);
            self.arena.copy_within(from..from + size, to);
            self.arena[to + 1] = meta[i];
        }
        self.arena.truncate(next);

        self.num_clauses -= to_remove;
        self.num_learnt_live -= to_remove;
        self.reduce_stats.reductions += 1;
        self.reduce_stats.clauses_deleted += to_remove as u64;
        self.reduce_interval = self
            .reduce_interval
            .saturating_mul(REDUCE_GROWTH.0)
            .div_ceil(REDUCE_GROWTH.1);
        self.reduce_next = self.conflicts + self.reduce_interval;
        self.reduce_cap = self
            .reduce_cap
            .saturating_mul(REDUCE_GROWTH.0)
            .div_ceil(REDUCE_GROWTH.1);
    }

    fn luby(i: u64) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        let mut k = 1u32;
        loop {
            if i + 1 == (1u64 << k) - 1 {
                return 1u64 << (k - 1);
            }
            if i + 1 < (1u64 << k) - 1 {
                return Self::luby(i + 1 - (1u64 << (k - 1)));
            }
            k += 1;
        }
    }

    /// Runs the CDCL search with no assumptions.
    pub fn solve(&mut self) -> SolveOutcome {
        self.solve_under_assumptions(&[])
    }

    /// Runs the CDCL search under assumption literals.
    ///
    /// The assumptions are enqueued as pseudo-decisions below every real
    /// decision, so the answer is the satisfiability of the clause database
    /// *conjoined with* the assumptions.  The assumptions are retracted when
    /// the call returns: the solver unwinds to decision level 0, keeping all
    /// learnt clauses, activities and phases, so further clauses can be
    /// added and further calls made.  On an assumption-caused
    /// [`SolveOutcome::Unsat`],
    /// [`unsat_assumptions`](Self::unsat_assumptions) holds a core over the
    /// assumptions.
    pub fn solve_under_assumptions(&mut self, assumps: &[Lit]) -> SolveOutcome {
        self.conflict_core.clear();
        self.model.clear();
        self.stop_reason = None;
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        if self.cancelled() {
            // A pre-raised flag (e.g. a batch whose budget expired before
            // this job started) skips the search entirely.
            self.stop_reason = Some(StopReason::Cancelled);
            return SolveOutcome::Unknown;
        }
        debug_assert_eq!(
            self.decision_level(),
            0,
            "solver must be at level 0 between calls"
        );
        for l in assumps {
            self.reserve_vars(l.var().0 + 1);
        }
        self.assumptions = assumps.to_vec();
        if self.propagate().is_some() {
            self.ok = false;
            self.assumptions.clear();
            return SolveOutcome::Unsat;
        }
        let mut restart_count = 0u64;
        let start_conflicts = self.conflicts;
        let outcome = loop {
            let budget = 100 * Self::luby(restart_count);
            match self.search(budget, start_conflicts) {
                Some(outcome) => break outcome,
                None => {
                    restart_count += 1;
                    self.backtrack(0);
                }
            }
        };
        if outcome == SolveOutcome::Sat {
            self.model = self.assign.clone();
        }
        self.backtrack(0);
        self.assumptions.clear();
        outcome
    }

    /// Searches until a verdict, a restart budget expiry (`None`) or the
    /// global conflict limit.
    fn search(&mut self, budget: u64, start_conflicts: u64) -> Option<SolveOutcome> {
        let mut local_conflicts = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                local_conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveOutcome::Unsat);
                }
                let backtrack_level = self.analyze(conflict);
                self.backtrack(backtrack_level);
                let learnt = std::mem::take(&mut self.learnt);
                if let Some(cr) = self.learn(&learnt) {
                    // `learn` watches but does not enqueue; do it with the reason.
                    if self.lit_value(learnt[0]) == UNASSIGNED {
                        self.enqueue(learnt[0], Some(cr));
                    }
                }
                self.learnt = learnt;
                self.var_decay();
                self.cla_decay();
                if self
                    .fault
                    .panic_at_conflict
                    .is_some_and(|k| self.conflicts >= k)
                {
                    // Deterministic injected fault: the panic-isolation
                    // layer above (sepe_sqed::parallel) must catch this.
                    panic!(
                        "fault injection: forced panic at conflict {}",
                        self.conflicts
                    );
                }
                if self
                    .fault
                    .memory_breach_at_conflict
                    .is_some_and(|k| self.conflicts >= k)
                {
                    // Injected fake cap breach: exercises the memory-budget
                    // give-up path exactly, without allocating anything.
                    // Checked per conflict (not sampled) so tiny test
                    // formulas trip it deterministically too.
                    self.stop_reason = Some(StopReason::MemoryBudget);
                    self.backtrack(0);
                    return Some(SolveOutcome::Unknown);
                }
                if let Some(limit) = self.conflict_limit {
                    if self.conflicts - start_conflicts >= limit {
                        self.stop_reason = Some(StopReason::ConflictBudget);
                        self.backtrack(0);
                        return Some(SolveOutcome::Unknown);
                    }
                }
                if self.conflicts.is_multiple_of(64) {
                    // An Instant read (or even an atomic load) per conflict
                    // would already be noise next to conflict analysis;
                    // sampling 1-in-64 makes every interruption source free
                    // while bounding the overrun to a short burst.  The
                    // memory estimate rides along: O(1) counter reads.
                    let estimate = self.memory_estimate();
                    self.mem_high_water = self.mem_high_water.max(estimate);
                    let reason = if self
                        .deadline
                        .is_some_and(|deadline| Instant::now() >= deadline)
                    {
                        Some(StopReason::Deadline)
                    } else if self.memory_limit.is_some_and(|cap| estimate > cap) {
                        Some(StopReason::MemoryBudget)
                    } else if self.cancelled() {
                        Some(StopReason::Cancelled)
                    } else {
                        None
                    };
                    if let Some(reason) = reason {
                        self.stop_reason = Some(reason);
                        self.backtrack(0);
                        return Some(SolveOutcome::Unknown);
                    }
                }
            } else {
                if self.conflicts >= self.reduce_next
                    || self.num_learnt_live as u64 >= self.reduce_cap
                {
                    self.reduce_db();
                }
                if local_conflicts >= budget {
                    return None;
                }
                // Re-establish assumptions first (each on its own level so
                // conflict analysis can distinguish them), then branch.
                match self.next_decision() {
                    Decision::Sat => return Some(SolveOutcome::Sat),
                    Decision::FailedAssumption(failed) => {
                        self.analyze_final(failed);
                        self.backtrack(0);
                        return Some(SolveOutcome::Unsat);
                    }
                    Decision::Continue => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i32) -> Lit {
        let var = Var(v.unsigned_abs() - 1);
        Lit::new(var, v > 0)
    }

    fn solver_with(clauses: &[Vec<i32>]) -> SatSolver {
        let mut s = SatSolver::new();
        for c in clauses {
            s.add_clause(c.iter().map(|&v| lit(v)).collect());
        }
        s
    }

    #[test]
    fn trivially_sat() {
        let mut s = solver_with(&[vec![1, 2], vec![-1, 2], vec![1, -2]]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        // (x1∨x2)(¬x1∨x2)(x1∨¬x2) forces x1=x2=true
        assert!(s.value_of(Var(0)));
        assert!(s.value_of(Var(1)));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = solver_with(&[vec![1], vec![-1]]);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn unsat_via_resolution_chain() {
        // (x1∨x2)(x1∨¬x2)(¬x1∨x3)(¬x1∨¬x3) is unsat
        let mut s = solver_with(&[vec![1, 2], vec![1, -2], vec![-1, 3], vec![-1, -3]]);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = SatSolver::new();
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        assert!(!s.add_clause(vec![]));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    /// Pigeonhole principle PHP(n+1, n): unsatisfiable, requires real search.
    fn pigeonhole(pigeons: u32, holes: u32) -> Vec<Vec<i32>> {
        let var = |p: u32, h: u32| i32::try_from(p * holes + h + 1).expect("var index");
        let mut clauses = Vec::new();
        for p in 0..pigeons {
            clauses.push((0..holes).map(|h| var(p, h)).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    clauses.push(vec![-var(p1, h), -var(p2, h)]);
                }
            }
        }
        clauses
    }

    #[test]
    fn pigeonhole_4_into_3_is_unsat() {
        let mut s = solver_with(&pigeonhole(4, 3));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_4_is_sat() {
        let clauses = {
            let mut c = pigeonhole(4, 4);
            c.retain(|_| true);
            c
        };
        let mut s = solver_with(&clauses);
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn conflict_limit_reports_unknown() {
        let mut s = solver_with(&pigeonhole(7, 6));
        s.set_conflict_limit(Some(5));
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::ConflictBudget));
        // Lifting the budget clears the reason along with the verdict.
        s.set_conflict_limit(None);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert_eq!(s.stop_reason(), None);
    }

    #[test]
    fn memory_budget_stops_the_search_deterministically() {
        let mut tight = solver_with(&pigeonhole(7, 6));
        tight.set_memory_limit(Some(1)); // any learnt clause breaches 1 byte
        assert_eq!(tight.solve(), SolveOutcome::Unknown);
        assert_eq!(tight.stop_reason(), Some(StopReason::MemoryBudget));
        assert!(tight.memory_high_water() > 1);
        // Deterministic: an identical twin gives up at the same conflict.
        let mut twin = solver_with(&pigeonhole(7, 6));
        twin.set_memory_limit(Some(1));
        assert_eq!(twin.solve(), SolveOutcome::Unknown);
        assert_eq!(twin.num_conflicts(), tight.num_conflicts());
        // Raising the cap lets the same solver finish the job.
        tight.set_memory_limit(None);
        assert_eq!(tight.solve(), SolveOutcome::Unsat);
        assert_eq!(tight.stop_reason(), None);
    }

    #[test]
    fn raised_cancel_flag_reports_cancelled() {
        let mut s = solver_with(&pigeonhole(7, 6));
        let flag: CancelFlag = Arc::new(AtomicBool::new(true));
        s.set_cancel_flags(vec![flag]);
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn any_flag_of_a_chained_set_cancels() {
        let mut s = solver_with(&pigeonhole(7, 6));
        let a: CancelFlag = Arc::new(AtomicBool::new(false));
        let b: CancelFlag = Arc::new(AtomicBool::new(false));
        s.set_cancel_flags(vec![a.clone(), b.clone()]);
        b.store(true, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::Cancelled));
        // Lowering the flag makes the same solver usable again.
        b.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert_eq!(s.stop_reason(), None);
    }

    #[test]
    fn forced_panic_fires_at_the_exact_conflict() {
        let mut s = solver_with(&pigeonhole(7, 6));
        s.set_fault_hooks(FaultHooks {
            panic_at_conflict: Some(10),
            ..FaultHooks::default()
        });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.solve()));
        let message = *caught
            .expect_err("the armed hook must panic")
            .downcast::<String>()
            .expect("panic payload is a formatted string");
        assert!(message.contains("forced panic at conflict 10"), "{message}");
    }

    #[test]
    fn fake_memory_breach_stops_at_the_exact_conflict() {
        let mut s = solver_with(&pigeonhole(7, 6));
        s.set_fault_hooks(FaultHooks {
            memory_breach_at_conflict: Some(10),
            ..FaultHooks::default()
        });
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::MemoryBudget));
        assert_eq!(s.num_conflicts(), 10);
        // Disarming the hook lets the solver finish.
        s.set_fault_hooks(FaultHooks::default());
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn assumptions_flip_the_verdict_without_mutating_the_formula() {
        // (x1 ∨ x2) is SAT; assuming ¬x1 and ¬x2 makes it UNSAT; the formula
        // itself stays SAT afterwards.
        let mut s = solver_with(&[vec![1, 2]]);
        assert_eq!(
            s.solve_under_assumptions(&[lit(-1), lit(-2)]),
            SolveOutcome::Unsat
        );
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert_eq!(s.solve_under_assumptions(&[lit(-1)]), SolveOutcome::Sat);
        assert!(s.value_of(Var(1)), "x2 must hold when x1 is assumed false");
    }

    #[test]
    fn unsat_core_is_a_subset_of_the_assumptions() {
        // x1 → x2, x2 → x3; assuming {x1, ¬x3, x5} is UNSAT and the core
        // must not mention the irrelevant x5.
        let mut s = solver_with(&[vec![-1, 2], vec![-2, 3]]);
        let assumps = [lit(1), lit(-3), lit(5)];
        assert_eq!(s.solve_under_assumptions(&assumps), SolveOutcome::Unsat);
        let core = s.unsat_assumptions().to_vec();
        assert!(!core.is_empty());
        assert!(
            core.iter().all(|l| assumps.contains(l)),
            "core {core:?} ⊄ assumptions"
        );
        assert!(
            !core.contains(&lit(5)),
            "irrelevant assumption in core: {core:?}"
        );
        // The core itself must be unsatisfiable together with the clauses.
        assert_eq!(s.solve_under_assumptions(&core), SolveOutcome::Unsat);
    }

    #[test]
    fn opposite_polarity_assumptions_yield_both_in_the_core() {
        let mut s = solver_with(&[vec![1, 2]]);
        assert_eq!(
            s.solve_under_assumptions(&[lit(3), lit(-3)]),
            SolveOutcome::Unsat
        );
        let core = s.unsat_assumptions();
        assert!(
            core.contains(&lit(3)) && core.contains(&lit(-3)),
            "core {core:?}"
        );
    }

    #[test]
    fn clauses_can_be_added_between_solves() {
        let mut s = solver_with(&[vec![1, 2]]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.add_clause(vec![lit(-1)]));
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.value_of(Var(1)));
        // ¬x2 contradicts the level-0 consequence x2: add_clause reports the
        // trivial inconsistency immediately.
        assert!(!s.add_clause(vec![lit(-2)]));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(
            s.unsat_assumptions().is_empty(),
            "global unsat has an empty core"
        );
    }

    #[test]
    fn learnt_clauses_persist_across_calls() {
        // Solve a pigeonhole instance twice: the second run reuses the learnt
        // clauses of the first and needs (strictly) fewer new conflicts.
        let mut s = solver_with(&pigeonhole(5, 4));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        // A global UNSAT answer is final: ok=false short-circuits.
        assert_eq!(s.solve(), SolveOutcome::Unsat);

        // Under assumptions UNSAT is not final; re-solving a SAT instance
        // under changing assumptions must keep working.
        let mut s = solver_with(&pigeonhole(4, 4));
        assert_eq!(s.solve_under_assumptions(&[lit(1)]), SolveOutcome::Sat);
        let first = s.num_conflicts();
        assert_eq!(s.solve_under_assumptions(&[lit(-1)]), SolveOutcome::Sat);
        assert_eq!(s.solve_under_assumptions(&[lit(1)]), SolveOutcome::Sat);
        let after = s.num_conflicts() - first;
        assert!(
            after <= first + 50,
            "later calls should not restart cold: {first} -> {after}"
        );
    }

    #[test]
    fn assumption_core_respects_already_false_units() {
        // Unit clause ¬x1; assuming x1 fails with core {x1} at level 0.
        let mut s = solver_with(&[vec![-1]]);
        assert_eq!(s.solve_under_assumptions(&[lit(1)]), SolveOutcome::Unsat);
        assert_eq!(s.unsat_assumptions(), &[lit(1)]);
        // ... and the solver is still usable.
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn forced_reduction_agrees_with_the_default_schedule() {
        // PHP(7, 6) takes thousands of conflicts; an aggressive reduction
        // schedule must not change the verdict.
        let mut reduced = solver_with(&pigeonhole(7, 6));
        reduced.set_reduce_interval(25);
        assert_eq!(reduced.solve(), SolveOutcome::Unsat);
        let stats = reduced.reduce_stats();
        assert!(stats.reductions > 0, "interval 25 must trigger reductions");
        assert!(stats.clauses_deleted > 0);
        assert!(stats.literals_freed > 0);
        assert!(stats.learnt_high_water >= reduced.num_learnt() as u64);
    }

    #[test]
    fn reduction_under_assumptions_keeps_the_solver_reusable() {
        // PHP(7, 6) guarded by an activation literal: assuming the activation
        // is hard-UNSAT (thousands of conflicts, forcing many reduction
        // passes), retracting it leaves a trivially satisfiable formula.
        let act = 43; // first variable beyond the pigeonhole block
        let clauses: Vec<Vec<i32>> = pigeonhole(7, 6)
            .into_iter()
            .map(|mut c| {
                c.push(-act);
                c
            })
            .collect();
        let mut s = solver_with(&clauses);
        s.set_reduce_interval(25);
        assert_eq!(s.solve_under_assumptions(&[lit(act)]), SolveOutcome::Unsat);
        let stats = s.reduce_stats();
        assert!(stats.reductions > 0, "activated PHP must force reductions");
        assert!(stats.clauses_deleted > 0);
        // The solver must stay healthy after reduction + retraction: the
        // formula without the assumption is SAT, and re-assuming on the
        // compacted database reproduces the UNSAT verdict.
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert_eq!(s.solve_under_assumptions(&[lit(act)]), SolveOutcome::Unsat);
        assert_eq!(s.unsat_assumptions(), &[lit(act)]);
    }

    #[test]
    fn activity_rescaling_preserves_verdicts_and_reusability() {
        // SAT instance solved repeatedly with rescaling between calls: the
        // verdicts must be stable and models must stay valid.
        let mut s = solver_with(&pigeonhole(4, 4));
        assert_eq!(s.solve_under_assumptions(&[lit(1)]), SolveOutcome::Sat);
        s.rescale_activities_before(Var(8), 0.25);
        assert_eq!(s.solve_under_assumptions(&[lit(-1)]), SolveOutcome::Sat);
        assert!(!s.value_of(Var(0)));
        s.rescale_activities_before(Var(16), 0.5);
        assert_eq!(s.solve(), SolveOutcome::Sat);

        // UNSAT instance: rescaling mid-way (between assumption calls) must
        // not change the verdict of the differential twin without it.
        let act = 43;
        let clauses: Vec<Vec<i32>> = pigeonhole(7, 6)
            .into_iter()
            .map(|mut c| {
                c.push(-act);
                c
            })
            .collect();
        let mut rescored = solver_with(&clauses);
        let mut plain = solver_with(&clauses);
        for _ in 0..3 {
            rescored.rescale_activities_before(Var(20), 0.1);
            assert_eq!(
                rescored.solve_under_assumptions(&[lit(act)]),
                plain.solve_under_assumptions(&[lit(act)]),
            );
            assert_eq!(rescored.solve(), plain.solve());
        }
        // a watermark beyond the allocated variables is clamped, not a panic
        rescored.rescale_activities_before(Var(10_000), 0.5);
        assert_eq!(
            rescored.solve_under_assumptions(&[lit(act)]),
            SolveOutcome::Unsat
        );
    }

    #[test]
    #[should_panic(expected = "rescale factor")]
    fn activity_rescaling_rejects_bad_factors() {
        let mut s = solver_with(&[vec![1, 2]]);
        s.rescale_activities_before(Var(1), 1.5);
    }

    /// Randomized differential check of assumption solving against adding the
    /// assumptions as unit clauses to a fresh solver.
    #[test]
    fn assumptions_agree_with_unit_clauses_on_random_formulas() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xa55);
        for round in 0..80 {
            let num_vars = 7;
            let clauses: Vec<Vec<i32>> = (0..(4 + round % 16))
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(1..=num_vars);
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            let mut assumps: Vec<i32> = Vec::new();
            for v in 1..=num_vars {
                if rng.gen_bool(0.3) {
                    assumps.push(if rng.gen_bool(0.5) { v } else { -v });
                }
            }
            let mut incremental = solver_with(&clauses);
            let a_lits: Vec<Lit> = assumps.iter().map(|&v| lit(v)).collect();
            let with_assumps = incremental.solve_under_assumptions(&a_lits);
            let mut scratch = solver_with(&clauses);
            for &v in &assumps {
                scratch.add_clause(vec![lit(v)]);
            }
            let with_units = scratch.solve();
            assert_eq!(
                with_assumps, with_units,
                "clauses {clauses:?} assumps {assumps:?}"
            );
            // The incremental solver must remain intact: re-solve without
            // assumptions and compare against a fresh run.
            let clean = incremental.solve();
            let fresh = solver_with(&clauses).solve();
            assert_eq!(
                clean, fresh,
                "post-assumption state corrupted on {clauses:?}"
            );
        }
    }

    /// Brute-force model counting cross-check on random small formulas.
    #[test]
    fn agrees_with_brute_force_on_random_formulas() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xdecaf);
        for round in 0..60 {
            let num_vars = 6;
            let num_clauses = 3 + (round % 18);
            let clauses: Vec<Vec<i32>> = (0..num_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(1..=num_vars);
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            let brute_sat = (0u32..(1 << num_vars)).any(|m| {
                clauses.iter().all(|c| {
                    c.iter().any(|&l| {
                        let bit = (m >> (l.unsigned_abs() - 1)) & 1 == 1;
                        if l > 0 {
                            bit
                        } else {
                            !bit
                        }
                    })
                })
            });
            let mut s = solver_with(&clauses);
            let outcome = s.solve();
            assert_eq!(
                outcome,
                if brute_sat {
                    SolveOutcome::Sat
                } else {
                    SolveOutcome::Unsat
                },
                "mismatch on {clauses:?}"
            );
            if outcome == SolveOutcome::Sat {
                // The returned model must satisfy every clause.
                for c in &clauses {
                    assert!(c.iter().any(|&l| {
                        let val = s.value_of(Var(l.unsigned_abs() - 1));
                        if l > 0 {
                            val
                        } else {
                            !val
                        }
                    }));
                }
            }
        }
    }

    /// Search-fingerprint tests: the solver's exact search trajectory —
    /// conflicts, decisions, propagations, reduction counters and assumption
    /// cores — pinned to constants.  Any change to the hot paths that is meant
    /// to be a pure speed-up (same decisions, same learnt clauses) must leave
    /// every constant here untouched; a change that alters the search on
    /// purpose re-captures them and says so.
    mod fingerprint {
        use super::*;
        use crate::stable::StableHasher;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Everything observable about a solver's search so far, plus a digest
        /// of the per-call outcomes and assumption cores fed into it.
        #[derive(Debug, PartialEq, Eq)]
        struct Fingerprint {
            conflicts: u64,
            decisions: u64,
            propagations: u64,
            reductions: u64,
            clauses_deleted: u64,
            literals_freed: u64,
            learnt_high_water: u64,
            calls_digest: u64,
        }

        impl Fingerprint {
            fn of(s: &SatSolver, calls: &StableHasher) -> Fingerprint {
                let r = s.reduce_stats();
                Fingerprint {
                    conflicts: s.num_conflicts(),
                    decisions: s.num_decisions(),
                    propagations: s.num_propagations(),
                    reductions: r.reductions,
                    clauses_deleted: r.clauses_deleted,
                    literals_freed: r.literals_freed,
                    learnt_high_water: r.learnt_high_water,
                    calls_digest: calls.digest(),
                }
            }
        }

        /// Folds one call's outcome and assumption core into the digest.
        fn record(calls: &mut StableHasher, outcome: SolveOutcome, s: &SatSolver) {
            calls.write_bytes(&[outcome as u8]);
            for l in s.unsat_assumptions() {
                calls.write_bytes(&u32::try_from(l.index()).expect("lit").to_le_bytes());
            }
            calls.write_bytes(&[0xff]);
        }

        fn random_3sat(rng: &mut StdRng, num_vars: i32, num_clauses: usize) -> Vec<Vec<i32>> {
            (0..num_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(1..=num_vars);
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect()
        }

        fn add_all(s: &mut SatSolver, clauses: &[Vec<i32>]) {
            for c in clauses {
                s.add_clause(c.iter().map(|&v| lit(v)).collect());
            }
        }

        #[test]
        fn pigeonhole_under_frequent_reduction() {
            let mut s = solver_with(&pigeonhole(8, 7));
            s.set_reduce_interval(50);
            let mut calls = StableHasher::new();
            let outcome = s.solve();
            assert_eq!(outcome, SolveOutcome::Unsat);
            record(&mut calls, outcome, &s);
            assert_eq!(
                Fingerprint::of(&s, &calls),
                Fingerprint {
                    conflicts: 6118,
                    decisions: 7449,
                    propagations: 85557,
                    reductions: 13,
                    clauses_deleted: 4013,
                    literals_freed: 77091,
                    learnt_high_water: 2100,
                    calls_digest: 589911111145990281,
                }
            );
        }

        #[test]
        fn random_3sat_batch_under_assumptions() {
            let mut rng = StdRng::seed_from_u64(0x5e9e_f1a6);
            let num_vars = 120;
            let mut s = solver_with(&random_3sat(&mut rng, num_vars, 480));
            s.set_reduce_interval(40);
            let mut calls = StableHasher::new();
            for _ in 0..40 {
                let assumps: Vec<Lit> = (0..4)
                    .map(|_| {
                        let v = rng.gen_range(1..=num_vars);
                        lit(if rng.gen_bool(0.5) { v } else { -v })
                    })
                    .collect();
                let outcome = s.solve_under_assumptions(&assumps);
                record(&mut calls, outcome, &s);
            }
            assert_eq!(
                Fingerprint::of(&s, &calls),
                Fingerprint {
                    conflicts: 2231,
                    decisions: 2621,
                    propagations: 58239,
                    reductions: 10,
                    clauses_deleted: 1389,
                    literals_freed: 11632,
                    learnt_high_water: 842,
                    calls_digest: 15582796233340633266,
                }
            );
        }

        /// CEGIS-shaped: solve under an activation literal, read the model, add
        /// a clause that blocks its projection onto a few "candidate" variables,
        /// and repeat until the candidates run out.
        #[test]
        fn cegis_shaped_refinement_sequence() {
            let mut rng = StdRng::seed_from_u64(0xce615);
            let num_vars = 120;
            let act = lit(num_vars + 1);
            let mut s = SatSolver::new();
            for c in random_3sat(&mut rng, num_vars, 490) {
                let mut guarded: Clause = c.iter().map(|&v| lit(v)).collect();
                guarded.push(!act);
                s.add_clause(guarded);
            }
            s.set_reduce_interval(30);
            let candidates: Vec<Var> = (0..12).map(Var).collect();
            let mut calls = StableHasher::new();
            let mut models = 0;
            loop {
                let outcome = s.solve_under_assumptions(&[act]);
                record(&mut calls, outcome, &s);
                if outcome != SolveOutcome::Sat {
                    break;
                }
                models += 1;
                let block: Clause = candidates
                    .iter()
                    .map(|&v| Lit::new(v, !s.value_of(v)))
                    .collect();
                s.add_clause(block);
                // A refinement lemma over fresh structure between calls.
                let extra = random_3sat(&mut rng, num_vars, 2);
                add_all(&mut s, &extra);
            }
            assert_eq!(models, 4);
            assert_eq!(
                Fingerprint::of(&s, &calls),
                Fingerprint {
                    conflicts: 641,
                    decisions: 853,
                    propagations: 19098,
                    reductions: 7,
                    clauses_deleted: 417,
                    literals_freed: 3783,
                    learnt_high_water: 247,
                    calls_digest: 10929235774705126345,
                }
            );
        }
    }
}
