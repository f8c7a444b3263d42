//! Integration tests of the parallel detection engine: determinism across
//! worker counts, prompt global cancellation, and verdict agreement across
//! the solver knobs.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::{CancelFlag, StopReason};
use sepe_sqed::batch::CatalogueEntry;
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::parallel::{BatchSpec, DetectionJob, Engine};
use sepe_tsys::BmcMode;

/// A fast per-bug configuration: tiny processor, the bug's target opcode
/// plus ADDI, shallow bound.  Small enough that the whole Table-1 mutation
/// set sweeps in seconds; the verdicts are still real model-checking
/// verdicts (consistent up to the bound).
fn tiny_config_for(bug: &Mutation, max_bound: usize) -> DetectorConfig {
    let mut opcodes = vec![Opcode::Addi];
    opcodes.extend(bug.target_opcode());
    DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&opcodes),
        max_bound,
        ..DetectorConfig::default()
    }
}

/// One SEPE-SQED job per Table-1 mutation.
fn table1_jobs(max_bound: usize) -> Vec<DetectionJob> {
    Mutation::table1()
        .iter()
        .map(|bug| {
            DetectionJob::new(
                bug.name.clone(),
                tiny_config_for(bug, max_bound),
                Method::SepeSqed,
                Some(bug.clone()),
            )
        })
        .collect()
}

#[test]
fn four_workers_match_one_worker_on_the_table1_mutation_set() {
    let sequential = Engine::new(1).run(table1_jobs(2)).expect_jobs();
    let parallel = Engine::new(4).run(table1_jobs(2)).expect_jobs();
    assert_eq!(sequential.detections.len(), parallel.detections.len());
    for (i, (seq, par)) in sequential
        .detections
        .iter()
        .zip(&parallel.detections)
        .enumerate()
    {
        assert_eq!(seq.bug, par.bug, "job {i} answers a different bug");
        assert_eq!(seq.detected, par.detected, "verdict diverges on job {i}");
        assert_eq!(
            seq.inconclusive, par.inconclusive,
            "conclusiveness diverges on job {i}"
        );
        assert_eq!(
            seq.bound_reached, par.bound_reached,
            "bound diverges on job {i}"
        );
        assert_eq!(
            seq.trace_len, par.trace_len,
            "trace length diverges on job {i}"
        );
        // The solver is deterministic and each job owns its state, so even
        // the conflict counts must agree bit for bit across worker counts.
        assert_eq!(
            seq.conflicts, par.conflicts,
            "search diverges on job {i} — worker state is leaking between jobs"
        );
    }
    assert_eq!(sequential.stats.tally.cancelled, 0);
    assert_eq!(parallel.stats.tally.cancelled, 0);
}

#[test]
fn global_deadline_stops_all_workers_promptly() {
    // Each job alone would run for minutes (the bound-8 SQED sweep against
    // an SQED-invisible bug explores every depth); the batch budget is a
    // fraction of a second, and the shared flag must cut every in-flight
    // SAT search loose within a short burst of conflicts.
    let bug = Mutation::table1()[0].clone();
    let config = DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Add]),
        max_bound: 8,
        ..DetectorConfig::default()
    };
    let jobs: Vec<DetectionJob> = (0..4)
        .map(|i| {
            DetectionJob::new(
                format!("hard-{i}"),
                config.clone(),
                Method::Sqed,
                Some(bug.clone()),
            )
        })
        .collect();
    let start = Instant::now();
    let outcome = Engine::new(2)
        .with_time_limit(Some(Duration::from_millis(300)))
        .run(jobs)
        .expect_jobs();
    let wall = start.elapsed();
    assert!(
        wall < Duration::from_secs(10),
        "cancellation took {wall:?} — workers are not being interrupted"
    );
    assert_eq!(outcome.detections.len(), 4);
    for (i, d) in outcome.detections.iter().enumerate() {
        assert!(
            d.inconclusive && !d.detected,
            "job {i} should be cut off inconclusive"
        );
    }
    assert!(
        outcome.stats.tally.cancelled >= 1,
        "at least the in-flight jobs must report as cancelled"
    );
}

#[test]
fn an_own_cancel_flag_counts_alike_on_the_jobs_and_catalogue_paths() {
    // The job's own flag is raised before the run: both engine modes stop
    // the entry inconclusive as `Cancelled` and must count it the same way.
    let bug = Mutation::table1()[0].clone();
    let flag: CancelFlag = Arc::new(AtomicBool::new(true));
    let config = DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Add, Opcode::Addi]),
        max_bound: 3,
        bmc_mode: BmcMode::PerDepth,
        cancel: vec![flag],
        ..DetectorConfig::default()
    };
    let engine = Engine::new(1);
    let job = DetectionJob::new(
        "own-flag",
        config.clone(),
        Method::SepeSqed,
        Some(bug.clone()),
    );
    let jobs = engine.run(vec![job]).expect_jobs();
    let entries = vec![CatalogueEntry::new("own-flag", bug)];
    let catalogue = engine
        .run(BatchSpec::catalogue(Method::SepeSqed, config, entries))
        .expect_catalogue();
    for (path, detection, tally) in [
        ("jobs", &jobs.detections[0], &jobs.stats.tally),
        (
            "catalogue",
            &catalogue.detections[0],
            &catalogue.stats.tally,
        ),
    ] {
        assert!(detection.inconclusive, "{path}: the flag stops the run");
        assert_eq!(detection.stop_reason, Some(StopReason::Cancelled), "{path}");
        assert_eq!(tally.cancelled, 1, "{path}: cancelled");
        assert_eq!(
            tally.stop_reasons.cancelled, 1,
            "{path}: stop_reasons.cancelled"
        );
    }
}

/// Four configurations that change *how* a query is solved without changing
/// *what* it decides: the per-depth pipeline, its AIG-off and rewrite-off
/// ablations, and the cumulative single-query mode.
fn knob_configs(base: &DetectorConfig) -> Vec<(&'static str, DetectorConfig)> {
    [
        ("per_depth", BmcMode::PerDepth, true, true),
        ("per_depth_aig_off", BmcMode::PerDepth, true, false),
        ("per_depth_norewrite", BmcMode::PerDepth, false, true),
        ("cumulative", BmcMode::Cumulative, true, true),
    ]
    .into_iter()
    .map(|(name, bmc_mode, simplify, aig)| {
        let config = DetectorConfig {
            bmc_mode,
            simplify,
            aig,
            ..base.clone()
        };
        (name, config)
    })
    .collect()
}

/// Runs one query under every knob configuration as ordinary engine jobs,
/// asserts each job's verdict is `detected` and matches the configuration's
/// solo `Detector::check`.
fn assert_knobs_agree(base: DetectorConfig, method: Method, bug: Option<Mutation>, detected: bool) {
    let configs = knob_configs(&base);
    let jobs: Vec<DetectionJob> = configs
        .iter()
        .map(|(name, config)| DetectionJob::new(*name, config.clone(), method, bug.clone()))
        .collect();
    let outcome = Engine::new(configs.len()).run(jobs).expect_jobs();
    assert_eq!(outcome.detections.len(), configs.len());
    for (i, (name, config)) in configs.iter().enumerate() {
        assert_eq!(outcome.reports[i].label, *name, "results out of order");
        let d = &outcome.detections[i];
        assert_eq!(d.detected, detected, "{name} gives the wrong verdict");
        assert!(!d.inconclusive, "{name} must conclude");
        let alone = Detector::new(config.clone()).check(method, bug.as_ref());
        assert_eq!(
            (alone.detected, alone.inconclusive),
            (d.detected, d.inconclusive),
            "{name} diverges from its solo run"
        );
    }
}

#[test]
fn solver_knobs_agree_on_a_clean_design() {
    // The clean design is consistent, so every configuration must conclude
    // UNSAT up to the bound, in the engine and alone.
    let base = DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Add, Opcode::Xori]),
        max_bound: 2,
        ..DetectorConfig::default()
    };
    assert_knobs_agree(base, Method::Sqed, None, false);
}

#[test]
#[ignore = "long formal check on a single-CPU host; run with cargo test -- --ignored"]
fn solver_knobs_agree_on_a_real_bug() {
    // A detected (SAT) verdict: the ADD off-by-one bug is visible to
    // SEPE-SQED within bound 4 under every configuration.
    let base = DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Add, Opcode::Addi]),
        max_bound: 4,
        ..DetectorConfig::default()
    };
    let bug = Mutation::table1()[0].clone();
    assert_knobs_agree(base, Method::SepeSqed, Some(bug), true);
}
