//! In-solver batched multi-bug detection over one shared unrolling.
//!
//! The per-job engine ([`crate::parallel`]) answers a twenty-mutation
//! catalogue with twenty independent detectors: twenty term managers, twenty
//! unrollings, twenty cold SAT solvers — even though every job checks the
//! *same* processor under the *same* QED property and differs only in which
//! mutated-gate condition is wired into the datapath.  [`BatchedDetector`]
//! collapses that redundancy inside the solver:
//!
//! * the transition system is built **once** with every catalogue entry's
//!   mutation guarded by a fresh *activation literal*
//!   ([`QedBuilder::build_catalogue`](crate::qed::QedBuilder::build_catalogue))
//!   — a free boolean variable that is neither a state variable nor an
//!   input, so unrolling maps it to itself in every frame and one literal
//!   switches its mutation on or off across the whole trace,
//! * the unrolling is encoded **once** into one persistent
//!   [`BmcSession`] (rewriting, pinning,
//!   cone-of-influence refinement and the AIG layer all run once, and the
//!   append-only node→CNF-variable contract keeps every encoding valid for
//!   the session's lifetime),
//! * each entry×depth query is a
//!   [`check_assuming`](sepe_smt::IncrementalSolver::check_assuming) call
//!   under a one-hot assumption set
//!   ([`one_hot_assumptions`]): the entry's literal true, every other
//!   entry's literal false, plus the depth's bad state.  Learnt clauses and
//!   branching activities accumulated by one entry's queries transfer to the
//!   next — most of the QED machinery is mutation-independent, so most
//!   learnt clauses are too.
//!
//! Depths advance in lock-step: at each bound the session extends the
//! unrolling once, then queries every still-unresolved entry, so a detected
//! entry reports its *shortest* counterexample exactly like the per-depth
//! per-job modes, and verdicts/bounds/trace lengths are bit-identical to the
//! per-job engine at `jobs = 1` (the differential test suite holds the two
//! paths to that).
//!
//! # Failure model
//!
//! The PR-6 fault machinery applies per *query*, not per run: an entry's
//! [`FaultPlan`] is armed on the shared solver only while that entry's query
//! executes.  A faked budget breach or an entry-level cancellation resolves
//! only its own entry.  A *panic* (or a genuine memory-cap breach) poisons
//! the shared solver, so the batch degrades instead of dying: the failed
//! entry re-runs on the per-job retry ladder (its shared-solver query counts
//! as attempt one at [`DegradationRung::Full`]), and every other unresolved
//! entry falls back to a fresh, fault-free per-job run — bystanders keep
//! their verdicts even when a neighbour detonates.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sepe_processor::Mutation;
use sepe_smt::{
    one_hot_assumptions, CancelFlag, FaultHooks, SolverReuseStats, StopReason, TermId, TermManager,
};
use sepe_tsys::{BmcConfig, BmcFaultPlan, BmcMode, BmcResult, BmcSession, QueryOutcome};

use crate::detect::{Detection, Detector, DetectorConfig, Method, RunTotals};
use crate::fault::FaultPlan;
use crate::parallel::{
    panic_message, resume_retry_ladder, run_with_retry, DegradationRung, DetectionJob, JobOutcome,
    JobReport, OutcomeTally, RetryPolicy,
};

/// One entry of a mutation catalogue: a labelled bug, with an optional
/// per-entry fault plan (armed on the shared solver only while this entry's
/// queries run).
#[derive(Debug, Clone)]
pub struct CatalogueEntry {
    /// Human-readable entry label, carried through to results and reports.
    pub label: String,
    /// The injected bug this entry checks for.
    pub mutation: Mutation,
    /// Deterministic fault injection scoped to this entry's queries
    /// (default `None`).  The shared configuration's own `fault` field is
    /// ignored in batched mode — faults are per entry here.
    pub fault: Option<FaultPlan>,
}

impl CatalogueEntry {
    /// Creates an entry with no fault plan.
    pub fn new(label: impl Into<String>, mutation: Mutation) -> Self {
        CatalogueEntry {
            label: label.into(),
            mutation,
            fault: None,
        }
    }

    /// Arms a fault plan on this entry.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// Aggregate counters of one batched run.  The encode-once economics are
/// all here: `encodes` stays at 1 unless something poisons the shared
/// solver, while the per-job engine pays one encoding per job.
#[derive(Debug, Clone, Default)]
pub struct BatchedStats {
    /// Catalogue entries scheduled.
    pub entries: u64,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Queries issued on the shared solver (≤ entries × bounds; resolved
    /// entries stop querying).
    pub queries: u64,
    /// Transition-system encodings paid for: 1 for the shared session, plus
    /// one per per-job fallback attempt.  The per-job engine pays
    /// `entries` here — this counter against that baseline is the
    /// deterministic form of the batched-throughput claim.
    pub encodes: u64,
    /// Entries whose final answer came from the per-job fallback path
    /// (shared-solver poisoning, or a budget-stopped entry granted a
    /// retry).
    pub fallbacks: u64,
    /// Deepest bound a query on the shared solver checked (a depth whose
    /// every unresolved entry was cancelled before its query does not
    /// count).
    pub deepest_bound: usize,
    /// SAT conflicts spent by the shared solver (fallback runs not
    /// included; their conflicts are in the per-entry detections).
    pub shared_conflicts: u64,
    /// Per-entry unbounded-prover runs dispatched for entries that survived
    /// the shared bounded phase (prove mode only).
    pub proof_attempts: u64,
    /// How the entries ended: retries, degraded runs, panics,
    /// cancellations, witness and proof self-checks, stop reasons.
    pub tally: OutcomeTally,
    /// The shared session's solver-reuse counters: one encoding's worth of
    /// CNF (`cnf_vars`/`cnf_clauses`), cache hits across queries, learnt
    /// clauses retained between them.
    pub solver: SolverReuseStats,
}

impl fmt::Display for BatchedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries in {:.2}s: {} shared queries to bound {}, {} encodes, \
             {} fallbacks, {} shared conflicts, {} retries, {} panics",
            self.entries,
            self.wall.as_secs_f64(),
            self.queries,
            self.deepest_bound,
            self.encodes,
            self.fallbacks,
            self.shared_conflicts,
            self.tally.retries,
            self.tally.panics,
        )
    }
}

/// The result of [`BatchedDetector::run`]: one [`Detection`] per catalogue
/// entry, in catalogue order, plus execution reports and the aggregate
/// counters — the same shape as the per-job engine's
/// [`BatchOutcome`](crate::parallel::BatchOutcome), so drivers can consume
/// either.
#[derive(Debug, Clone)]
pub struct BatchedOutcome {
    /// Per-entry results; `detections[i]` answers `catalogue[i]`.
    pub detections: Vec<Detection>,
    /// Per-entry execution reports, parallel to `detections`.
    pub reports: Vec<JobReport>,
    /// Aggregate batched counters.
    pub stats: BatchedStats,
}

/// How an entry left the shared session for the per-job path.
enum Fallback {
    /// The entry's own query failed (panic, budget) and the retry policy
    /// grants more attempts: resume the ladder one rung down.
    Resume { panicked: bool },
    /// An innocent bystander of a poisoned shared solver: run the job fresh,
    /// from the top of the ladder, with its own fault plan.
    Fresh,
}

/// The per-entry answers of one batched run, filled in as entries resolve:
/// each entry gets exactly one final answer or one per-job fallback.
struct Ledger {
    detections: Vec<Option<Detection>>,
    reports: Vec<Option<JobReport>>,
    /// Entries handed to the per-job path, in hand-off order.
    fallback: Vec<(usize, Fallback)>,
}

impl Ledger {
    /// Records an entry's classified shared-session answer — or, when the
    /// classified stop is one the retry ladder re-runs and the policy grants
    /// a retry, hands the entry to the per-job path instead.  `panic` is the
    /// message of a query that panicked.
    fn settle(
        &mut self,
        i: usize,
        entry: &CatalogueEntry,
        detection: Detection,
        panic: Option<String>,
        retry: RetryPolicy,
    ) {
        let panicked = panic.is_some();
        let outcome = match (panic, detection.stop_reason) {
            (Some(message), _) => JobOutcome::Failed { message },
            (None, Some(reason)) => JobOutcome::Stopped(reason),
            (None, None) => JobOutcome::Completed,
        };
        if retry.max_retries >= 1 && outcome.should_retry() {
            self.fallback.push((i, Fallback::Resume { panicked }));
        } else {
            self.detections[i] = Some(detection);
            self.reports[i] = Some(JobReport {
                label: entry.label.clone(),
                outcome,
                attempts: 1,
                panicked_attempts: u32::from(panicked),
                rung: DegradationRung::Full,
            });
        }
    }
}

/// The batched multi-bug detector.
///
/// See the [module docs](self) for the encoding and failure model.
#[derive(Debug, Clone)]
pub struct BatchedDetector {
    config: DetectorConfig,
    retry: RetryPolicy,
}

impl BatchedDetector {
    /// Creates a batched detector over one shared configuration: the
    /// processor (whose `allowed_opcodes` are the catalogue's shared
    /// original-instruction universe), budgets and solver knobs apply to
    /// every entry.
    pub fn new(config: DetectorConfig) -> Self {
        let retry = config.retry.unwrap_or_default();
        BatchedDetector { config, retry }
    }

    /// Sets the retry policy for budget-stopped or panicked entries: their
    /// shared-solver attempt counts as the first rung, and fallback re-runs
    /// descend the same [`DegradationRung`] ladder as the per-job engine.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The shared configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Runs the whole catalogue under one method over one shared unrolling,
    /// returning one [`Detection`] per entry in catalogue order.
    pub fn run(&self, method: Method, catalogue: &[CatalogueEntry]) -> BatchedOutcome {
        let cancel: CancelFlag = Arc::new(AtomicBool::new(false));
        self.run_under(method, catalogue, &cancel, None)
    }

    /// [`run`](Self::run) under an external cancellation flag and deadline —
    /// the entry point the engine uses to schedule a catalogue as one work
    /// unit inside a batch (the flag chains onto the configuration's own
    /// flags, the deadline tightens the configuration's own budget).
    pub(crate) fn run_under(
        &self,
        method: Method,
        catalogue: &[CatalogueEntry],
        batch_cancel: &CancelFlag,
        batch_deadline: Option<Instant>,
    ) -> BatchedOutcome {
        let start = Instant::now();
        let n = catalogue.len();
        let mut stats = BatchedStats {
            entries: n as u64,
            ..BatchedStats::default()
        };
        if n == 0 {
            stats.wall = start.elapsed();
            return BatchedOutcome {
                detections: Vec::new(),
                reports: Vec::new(),
                stats,
            };
        }
        let deadline = match (self.config.time_limit.map(|l| start + l), batch_deadline) {
            (Some(own), Some(batch)) => Some(own.min(batch)),
            (own, batch) => own.or(batch),
        };

        // One build, one encoding: every entry's mutation rides in the same
        // transition system behind its activation literal.
        let helper = Detector::new(self.config.clone());
        let (builder, scheme) = helper.qed(method);
        let mut tm = TermManager::new();
        let mutations: Vec<Mutation> = catalogue.iter().map(|e| e.mutation.clone()).collect();
        let (system, activated) = builder.build_catalogue(&mut tm, &scheme, &mutations);
        let acts: Vec<TermId> = activated.iter().map(|a| a.activation).collect();

        let mut chained = self.config.cancel.clone();
        chained.push(batch_cancel.clone());
        let session_config = BmcConfig {
            time_limit: deadline.map(|d| d.saturating_duration_since(start)),
            // lock-step depths: shortest counterexamples, like PerDepth
            mode: BmcMode::PerDepth,
            cancel: chained.clone(),
            // per-entry faults are armed around individual queries instead
            fault: BmcFaultPlan::default(),
            ..self.config.bmc_config()
        };
        let mut session = BmcSession::open(&mut tm, &system.ts, &session_config);
        stats.encodes = 1;

        let mut ledger = Ledger {
            detections: vec![None; n],
            reports: vec![None; n],
            fallback: Vec::new(),
        };
        let mut acc: Vec<RunTotals> = vec![RunTotals::default(); n];
        let mut unresolved: Vec<usize> = (0..n).collect();
        let mut aborted: Option<StopReason> = None;
        let mut extended = 0usize;

        'depths: for bound in 1..=self.config.max_bound {
            if unresolved.is_empty() {
                break;
            }
            if chained.iter().any(|f| f.load(Ordering::Relaxed)) {
                aborted = Some(StopReason::Cancelled);
                break;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                aborted = Some(StopReason::Deadline);
                break;
            }
            session.extend(&mut tm, bound);
            extended = bound;

            let mut still = Vec::with_capacity(unresolved.len());
            let mut idx = 0;
            while idx < unresolved.len() {
                let i = unresolved[idx];
                idx += 1;
                let entry = &catalogue[i];
                let fplan = entry.fault.unwrap_or_default();
                let hooks = fplan.to_bmc().sat;
                // A panic or a genuine memory breach poisons the shared
                // solver: every other unresolved entry falls back to a
                // fresh per-job run.
                let mut poisoned = false;
                let mut panic = None;
                let result = if fplan.cancel_at_depth == Some(bound) {
                    // Entry-level cancellation: resolved here, never
                    // retried (cancellation is a verdict, not a failure).
                    BmcResult::Unknown {
                        bound,
                        reason: StopReason::Cancelled,
                    }
                } else {
                    if !hooks.is_empty() {
                        session.solver().set_fault_hooks(hooks);
                    }
                    let bad = session.bad_at(&mut tm, bound);
                    let assumptions = one_hot_assumptions(&mut tm, &acts, i, &[bad]);
                    let queried = panic::catch_unwind(AssertUnwindSafe(|| {
                        session.query(&mut tm, bound, &assumptions)
                    }));
                    if !hooks.is_empty() {
                        session.solver().set_fault_hooks(FaultHooks::default());
                    }
                    stats.queries += 1;
                    match queried {
                        Err(payload) => {
                            poisoned = true;
                            panic = Some(panic_message(payload.as_ref()));
                            BmcResult::Unknown {
                                bound,
                                reason: StopReason::Panicked,
                            }
                        }
                        Ok(outcome) => {
                            let q = session.last_query_stats().cloned().unwrap_or_default();
                            acc[i].conflicts += q.conflicts;
                            acc[i].runtime += q.duration;
                            acc[i].depths.push(q);
                            match outcome {
                                QueryOutcome::Counterexample(witness) => {
                                    BmcResult::Counterexample(witness)
                                }
                                QueryOutcome::Unreachable => {
                                    still.push(i);
                                    continue;
                                }
                                QueryOutcome::Unknown(
                                    reason @ (StopReason::Cancelled | StopReason::Deadline),
                                ) => {
                                    // Shared budgets: gone for everyone.
                                    aborted = Some(reason);
                                    still.push(i);
                                    still.extend(unresolved[idx..].iter().copied());
                                    unresolved = still;
                                    break 'depths;
                                }
                                QueryOutcome::Unknown(reason) => {
                                    // A genuine breach leaves the shared
                                    // arena over the cap, so every later
                                    // query would breach too; any other
                                    // per-query exhaustion (conflict
                                    // budget, a faked breach) stops this
                                    // entry alone.
                                    poisoned =
                                        reason == StopReason::MemoryBudget && hooks.is_empty();
                                    BmcResult::Unknown { bound, reason }
                                }
                            }
                        }
                    }
                };
                let totals = RunTotals {
                    deepest: bound,
                    ..std::mem::take(&mut acc[i])
                };
                let detection = helper.classify(
                    &mut tm,
                    &system.ts,
                    method,
                    Some(&entry.mutation),
                    entry.fault,
                    result,
                    None,
                    totals,
                );
                ledger.settle(i, entry, detection, panic, self.retry);
                if poisoned {
                    for &j in still.iter().chain(&unresolved[idx..]) {
                        ledger.fallback.push((j, Fallback::Fresh));
                    }
                    unresolved.clear();
                    break 'depths;
                }
            }
            if aborted.is_some() {
                break;
            }
            unresolved = still;
        }

        // Shared-session counters, before the fallback runs muddy the water.
        let bmc_stats = session.stats();
        stats.solver = bmc_stats.solver;
        stats.shared_conflicts = bmc_stats.conflicts;
        stats.deepest_bound = bmc_stats.deepest_bound;
        drop(session);

        if self.config.prove.is_some() && aborted.is_none() {
            // Entries that survived every bound get a dedicated per-entry
            // proof attempt (fresh system, concrete mutation — activation
            // literals would leak into cubes and uniqueness constraints):
            // the prover can upgrade the bounded "clean to the bound" to a
            // conclusive `Proved`.  Runs through the per-job retry ladder,
            // so prover panics and budget faults degrade instead of
            // poisoning the batch.
            for &i in &unresolved {
                let job = self.fallback_job(method, &catalogue[i]);
                let (detection, report) = run_with_retry(&job, batch_cancel, deadline, self.retry);
                stats.proof_attempts += 1;
                // Each prover attempt re-encodes the entry's system.
                stats.encodes += u64::from(report.attempts);
                ledger.detections[i] = Some(detection);
                ledger.reports[i] = Some(report);
            }
        } else {
            // Entries that survived every bound are clean to the bound;
            // after a shared abort, they stop where the sweep stopped.
            for &i in &unresolved {
                let entry = &catalogue[i];
                let result = match aborted {
                    Some(reason) => BmcResult::Unknown {
                        bound: extended,
                        reason,
                    },
                    None => BmcResult::NoCounterexample {
                        bound: self.config.max_bound,
                    },
                };
                // An entry the abort caught before its first query never
                // ran an attempt.
                let never_ran = aborted.is_some() && acc[i].depths.is_empty();
                let detection = helper.classify(
                    &mut tm,
                    &system.ts,
                    method,
                    Some(&entry.mutation),
                    entry.fault,
                    result,
                    None,
                    std::mem::take(&mut acc[i]),
                );
                ledger.settle(i, entry, detection, None, self.retry);
                if never_ran {
                    if let Some(report) = &mut ledger.reports[i] {
                        report.attempts = 0;
                    }
                }
            }
        }

        // Per-job fallback: poisoning bystanders run fresh, failed entries
        // resume the retry ladder one rung down from their shared attempt.
        for (i, kind) in ledger.fallback {
            let job = self.fallback_job(method, &catalogue[i]);
            let (detection, report) = match kind {
                Fallback::Fresh => run_with_retry(&job, batch_cancel, deadline, self.retry),
                Fallback::Resume { panicked } => resume_retry_ladder(
                    &job,
                    batch_cancel,
                    deadline,
                    self.retry,
                    DegradationRung::Full.next(),
                    1,
                    u32::from(panicked),
                ),
            };
            stats.fallbacks += 1;
            // Every fallback attempt re-encodes from scratch; the shared
            // attempt (counted inside `report.attempts` for resumed
            // entries) already paid into `encodes = 1`.
            let shared_attempts = u64::from(matches!(kind, Fallback::Resume { .. }));
            stats.encodes += u64::from(report.attempts).saturating_sub(shared_attempts);
            ledger.detections[i] = Some(detection);
            ledger.reports[i] = Some(report);
        }

        let reports: Vec<JobReport> = ledger
            .reports
            .into_iter()
            .map(|r| r.expect("every entry resolves exactly once"))
            .collect();
        let detections: Vec<Detection> = ledger
            .detections
            .into_iter()
            .map(|d| d.expect("every entry resolves exactly once"))
            .collect();
        for (detection, report) in detections.iter().zip(&reports) {
            stats.tally.record(detection, report, false);
        }
        stats.wall = start.elapsed();
        BatchedOutcome {
            detections,
            reports,
            stats,
        }
    }

    /// A catalogue entry as a per-job detection job under the shared
    /// configuration, with the entry's own fault plan.
    fn fallback_job(&self, method: Method, entry: &CatalogueEntry) -> DetectionJob {
        let config = DetectorConfig {
            fault: entry.fault,
            ..self.config.clone()
        };
        DetectionJob::new(
            entry.label.clone(),
            config,
            method,
            Some(entry.mutation.clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_isa::Opcode;
    use sepe_processor::ProcessorConfig;

    /// Two Table-1 bugs plus the shared universe their triggers need.
    fn tiny_catalogue() -> (DetectorConfig, Vec<CatalogueEntry>) {
        let bugs: Vec<Mutation> = Mutation::table1().into_iter().take(2).collect();
        let mut opcodes = vec![Opcode::Addi];
        opcodes.extend(bugs.iter().filter_map(|b| b.target_opcode()));
        opcodes.dedup();
        let config = DetectorConfig {
            processor: ProcessorConfig::tiny().with_opcodes(&opcodes),
            max_bound: 2,
            ..DetectorConfig::default()
        };
        let catalogue = bugs
            .into_iter()
            .map(|b| CatalogueEntry::new(b.name.clone(), b))
            .collect();
        (config, catalogue)
    }

    #[test]
    fn empty_catalogue_returns_immediately() {
        let (config, _) = tiny_catalogue();
        let outcome = BatchedDetector::new(config).run(Method::Sqed, &[]);
        assert!(outcome.detections.is_empty());
        assert_eq!(outcome.stats.entries, 0);
        assert_eq!(outcome.stats.encodes, 0);
    }

    #[test]
    fn shared_session_encodes_once_and_matches_per_job_verdicts() {
        let (config, catalogue) = tiny_catalogue();
        let outcome = BatchedDetector::new(config.clone()).run(Method::Sqed, &catalogue);
        assert_eq!(outcome.detections.len(), 2);
        assert_eq!(outcome.stats.encodes, 1, "one shared encoding");
        assert_eq!(outcome.stats.fallbacks, 0);
        assert_eq!(
            outcome.stats.queries,
            2 * 2,
            "every entry queried at every bound"
        );
        let per_job = Detector::new(config);
        for (entry, batched) in catalogue.iter().zip(&outcome.detections) {
            let solo = per_job.check(Method::Sqed, Some(&entry.mutation));
            assert_eq!(batched.detected, solo.detected, "{}", entry.label);
            assert_eq!(batched.inconclusive, solo.inconclusive, "{}", entry.label);
            assert_eq!(batched.trace_len, solo.trace_len, "{}", entry.label);
        }
    }

    #[test]
    fn entry_level_cancellation_leaves_neighbours_untouched() {
        let (config, mut catalogue) = tiny_catalogue();
        catalogue[0].fault = Some(FaultPlan::cancel_at(1));
        let outcome = BatchedDetector::new(config).run(Method::Sqed, &catalogue);
        let cancelled = &outcome.detections[0];
        assert!(cancelled.inconclusive);
        assert_eq!(cancelled.stop_reason, Some(StopReason::Cancelled));
        let neighbour = &outcome.detections[1];
        assert!(!neighbour.inconclusive, "the neighbour completes normally");
        assert_eq!(outcome.stats.tally.cancelled, 1);
        assert_eq!(outcome.stats.encodes, 1, "no fallback for a cancellation");
    }

    #[test]
    fn deepest_bound_counts_only_queried_depths() {
        // Every entry is cancelled at depth 2: the shared unrolling is
        // extended there, but no query checks it.
        let (config, mut catalogue) = tiny_catalogue();
        for entry in &mut catalogue {
            entry.fault = Some(FaultPlan::cancel_at(2));
        }
        let outcome = BatchedDetector::new(config).run(Method::Sqed, &catalogue);
        assert_eq!(outcome.stats.tally.cancelled, 2);
        assert_eq!(outcome.stats.queries, 2, "one query per entry at depth 1");
        assert_eq!(outcome.stats.deepest_bound, 1);
    }
}
