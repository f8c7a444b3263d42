//! The shared incremental-vs-scratch sweep protocol.
//!
//! One Table-1 SQED sweep on the tiny/ADD-only configuration: the injected
//! bug is invisible to SQED, so every depth up to the bound is explored —
//! the worst case for scratch re-encoding and cold restarts, and the
//! workload both the `incremental_vs_scratch` Criterion bench and the
//! `bench_smoke` CI gate measure.  Keeping the protocol here (one definition
//! of the detector configuration, the growing-bound loop and the
//! must-not-detect assertion) guarantees the bench and the gate measure the
//! same thing.

use std::time::{Duration, Instant};

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::{SolverReuseStats, TermManager};
use sepe_sqed::batch::CatalogueEntry;
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::parallel::DetectionJob;
use sepe_sqed::qed::{QedBuilder, Scheme};
use sepe_tsys::{Bmc, BmcConfig, BmcMode};

/// The injected bug of the sweep (ADD result off by one — undetectable by
/// plain SQED).
pub fn bug() -> Mutation {
    Mutation::table1()[0].clone()
}

/// The sweep's detector: tiny processor, ADD-only universe.
pub fn detector(max_bound: usize, mode: BmcMode) -> Detector {
    detector_with(max_bound, mode, true, true)
}

/// [`detector`] with the word-level preprocessing (rewriting +
/// cone-of-influence) and the gate-level AIG reductions (structural
/// hashing, local rewriting, polarity-aware Tseitin) each explicitly on or
/// off.
pub fn detector_with(max_bound: usize, mode: BmcMode, simplify: bool, aig: bool) -> Detector {
    Detector::new(DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Add]),
        max_bound,
        bmc_mode: mode,
        simplify,
        aig,
        ..DetectorConfig::default()
    })
}

/// One full sweep through the detector in the given mode (word-level
/// preprocessing on).  Returns the wall time and the solver-reuse counters
/// of the run.
///
/// # Panics
///
/// Panics if the detection unexpectedly reports the bug (SQED must miss it).
pub fn run(max_bound: usize, mode: BmcMode, bug: &Mutation) -> (Duration, SolverReuseStats) {
    run_with(max_bound, mode, bug, true, true)
}

/// [`run`] with the word-level preprocessing and the gate-level AIG
/// reductions each explicitly on or off (the bench harness's
/// rewrite-on-vs-off and aig-on-vs-off arms).
pub fn run_with(
    max_bound: usize,
    mode: BmcMode,
    bug: &Mutation,
    simplify: bool,
    aig: bool,
) -> (Duration, SolverReuseStats) {
    let d = detector_with(max_bound, mode, simplify, aig);
    let start = Instant::now();
    let detection = d.check(Method::Sqed, Some(bug));
    let wall = start.elapsed();
    assert!(!detection.detected, "SQED must miss the Table-1 bug");
    (wall, detection.solver)
}

/// A batch of `copies` independent copies of the sweep (the default
/// pipeline, [`BmcMode::PerDepth`]), for the parallel engine's speedup
/// measurement: identical jobs make the ideal speedup exactly the worker
/// count, so the measured ratio isolates scheduling overhead and memory
/// contention from workload imbalance.
pub fn batch_jobs(max_bound: usize, copies: usize) -> Vec<DetectionJob> {
    let bug = bug();
    (0..copies)
        .map(|i| {
            DetectionJob::new(
                format!("sqed-sweep-{i}"),
                detector(max_bound, BmcMode::PerDepth).config().clone(),
                Method::Sqed,
                Some(bug.clone()),
            )
        })
        .collect()
}

/// A catalogue of `copies` independent copies of the sweep's bug, for the
/// batched in-solver arm: every copy becomes an activation-guarded mutation
/// of one shared transition system, so the whole catalogue is encoded once
/// and answered by one-hot `check_assuming` flips.  Identical entries make
/// the encode-once economics exact: the per-job engine pays `copies`
/// encodings of the same system where the batched detector pays one.
pub fn catalogue(copies: usize) -> Vec<CatalogueEntry> {
    let bug = bug();
    (0..copies)
        .map(|i| CatalogueEntry::new(format!("sqed-sweep-{i}"), bug.clone()))
        .collect()
}

/// The cumulative-incremental sweep, driven as growing `max_bound` calls on
/// one persistent [`Bmc`] — the cross-call solver-reuse path: each call
/// asserts only the new transition frame and queries only the depths not
/// proven by earlier calls.
///
/// # Panics
///
/// Panics if any call unexpectedly reports a counterexample.
pub fn run_cumulative(max_bound: usize, bug: &Mutation) -> (Duration, SolverReuseStats) {
    let d = detector(max_bound, BmcMode::CumulativeIncremental);
    let mut tm = TermManager::new();
    let builder = QedBuilder {
        processor: d.config().processor.clone(),
        original_opcodes: d.original_opcodes(Method::Sqed),
        queue_depth: d.config().queue_depth,
    };
    let system = builder.build(&mut tm, &Scheme::Sqed, Some(bug));
    let mut bmc = Bmc::new(BmcConfig {
        start_bound: 1, // the initial state is consistent by construction
        mode: BmcMode::CumulativeIncremental,
        ..BmcConfig::default()
    });
    let start = Instant::now();
    for bound in 1..=max_bound {
        let result = bmc.check(&mut tm, &system.ts, bound);
        assert!(
            !result.is_counterexample(),
            "SQED must miss the Table-1 bug"
        );
    }
    (start.elapsed(), bmc.stats().solver)
}
