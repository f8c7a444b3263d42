//! One detection job, run either through the entry point users call (the
//! engine) or through the traced path that times each layer's public
//! function, plus the oracle that judges its output.

use std::time::Instant;

use sepe_processor::Mutation;
use sepe_smt::{StopReason, TermManager};
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::parallel::{DetectionJob, Engine};
use sepe_sqed::qed::{QedBuilder, Scheme};
use sepe_sqed::selfcheck::replay_confirms;
use sepe_tsys::{
    verify_certificate, Bmc, BmcConfig, BmcMode, BmcResult, BmcSession, Pdr, ProofMethod,
    QueryOutcome,
};

use crate::trace::Ctx;
use crate::{Counts, Facts, Status};

/// What the oracle expects of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// No counterexample within the bound: the method cannot see the bug.
    Miss,
    /// A counterexample that replays on the concrete twin.
    Detect,
    /// An unbounded proof whose certificate re-checks.
    Prove,
}

/// One detection job of a workload.
#[derive(Debug, Clone)]
pub struct Job {
    /// Label, unique within the workload.
    pub label: String,
    /// Verification method.
    pub method: Method,
    /// Detector configuration.
    pub config: DetectorConfig,
    /// Injected bug (`None` checks the clean design).
    pub mutation: Option<Mutation>,
    /// The oracle's expectation.
    pub expect: Expect,
}

/// A job's output, read the same way from both paths.
#[derive(Debug, Clone)]
pub struct Output {
    /// A counterexample survived the witness self-check.
    pub detected: bool,
    /// The run ended without a verdict.
    pub inconclusive: bool,
    /// Why it ended without a verdict.
    pub stop: Option<StopReason>,
    /// An unbounded proof was closed.
    pub proved: bool,
    /// The proof certificate's re-check result.
    pub proof_checked: Option<bool>,
    /// Counterexample length.
    pub trace_len: Option<usize>,
    /// The witness self-check's result on a counterexample (`None` when
    /// the configuration skips it).
    pub witness_validated: Option<bool>,
    /// Deepest bound reached.
    pub bound: usize,
    /// SAT conflicts.
    pub conflicts: u64,
    /// CNF clauses fed to the solver.
    pub cnf_clauses: u64,
}

impl Output {
    /// Verdict code for the fact table: 0 clean within the bound,
    /// 1 detected, 2 inconclusive, 3 proved.
    fn verdict(&self) -> u64 {
        if self.inconclusive {
            2
        } else if self.detected {
            1
        } else if self.proved {
            3
        } else {
            0
        }
    }

    /// Records the job's deterministic counters under its label.
    pub fn facts(&self, label: &str, facts: &mut Facts) {
        facts.insert(format!("{label}.verdict"), self.verdict());
        facts.insert(format!("{label}.bound"), self.bound as u64);
        facts.insert(format!("{label}.conflicts"), self.conflicts);
        facts.insert(format!("{label}.cnf_clauses"), self.cnf_clauses);
        facts.insert(
            format!("{label}.trace_len"),
            self.trace_len.unwrap_or(0) as u64,
        );
    }
}

impl Job {
    /// Runs the job on a one-worker engine, the way the harness binaries
    /// and the service schedule detections.
    pub fn run(&self) -> Output {
        let job = DetectionJob::new(
            self.label.clone(),
            self.config.clone(),
            self.method,
            self.mutation.clone(),
        );
        let batch = Engine::new(1).run(vec![job]).expect_jobs();
        let d = batch
            .detections
            .into_iter()
            .next()
            .expect("one job, one detection");
        Output {
            detected: d.detected,
            inconclusive: d.inconclusive,
            stop: d.stop_reason,
            proved: d.proved,
            proof_checked: d.proof_checked,
            trace_len: d.trace_len,
            witness_validated: d.witness_validated,
            bound: d.bound_reached,
            conflicts: d.conflicts,
            cnf_clauses: d.solver.cnf_clauses,
        }
    }

    /// The model-checker configuration `Detector::check` derives from the
    /// job's detector configuration.
    fn bmc_config(&self) -> BmcConfig {
        let c = &self.config;
        BmcConfig {
            conflict_limit: c.conflict_limit,
            time_limit: c.time_limit,
            start_bound: 1,
            mode: c.bmc_mode,
            simplify: c.simplify,
            aig: c.aig,
            frame_rescore: None,
            cancel: c.cancel.clone(),
            memory_limit: c.memory_limit,
            fault: Default::default(),
        }
    }

    /// Runs the job layer by layer: `QedBuilder::build`, then a
    /// `BmcSession` per depth (per-depth mode), `Bmc::check` (other modes)
    /// or `Pdr::check` plus `verify_certificate` (proofs), then
    /// `replay_confirms` on a counterexample.  The calls and their order are
    /// those of `Detector::check`, so the counters must come out identical.
    pub fn run_traced(&self, ctx: Ctx<'_>, counts: &mut Counts) -> Output {
        let cfg = &self.config;
        let detector = Detector::new(cfg.clone());
        let mut tm = TermManager::new();
        let scheme = match self.method {
            Method::Sqed => Scheme::Sqed,
            Method::SepeSqed => Scheme::Sepe(detector.equivalence_db()),
        };
        let builder = QedBuilder {
            processor: cfg.processor.clone(),
            original_opcodes: detector.original_opcodes(self.method),
            queue_depth: cfg.queue_depth,
        };
        let system = ctx.span("core.qed", |_| {
            builder.build(&mut tm, &scheme, self.mutation.as_ref())
        });
        let ts = &system.ts;
        let bmc_config = self.bmc_config();

        let (result, deepest, conflicts, cnf_clauses, proof_checked);
        match (cfg.prove, cfg.bmc_mode) {
            (Some(ProofMethod::Pdr), _) => {
                let run = ctx.span("tsys.pdr", |c| {
                    let run = Pdr::new(bmc_config).check(&mut tm, ts, cfg.max_bound);
                    c.reported("smt.sat", run.stats.solver.duration);
                    run
                });
                let s = &run.stats;
                counts.add("tsys.pdr.queries", s.queries as f64);
                counts.add("tsys.pdr.cubes_blocked", s.cubes_blocked as f64);
                counts.add("smt.sat.checks", s.queries as f64);
                counts.absorb_solver(&s.solver);
                proof_checked = match (&run.result, &run.certificate) {
                    (BmcResult::Proved { .. }, Some(cert)) if cfg.validate_proof => {
                        Some(ctx.span("tsys.prove", |_| {
                            verify_certificate(&mut tm, ts, cert).is_ok()
                        }))
                    }
                    (BmcResult::Proved { .. }, None) if cfg.validate_proof => Some(false),
                    _ => None,
                };
                (deepest, conflicts, cnf_clauses) =
                    (s.depth_reached, s.conflicts, s.solver.cnf_clauses);
                result = run.result;
            }
            (Some(ProofMethod::KInduction), _) => {
                panic!("no workload runs k-induction")
            }
            (None, BmcMode::PerDepth) => {
                let mut session =
                    ctx.span("smt.encode", |_| BmcSession::open(&mut tm, ts, &bmc_config));
                let mut end = BmcResult::NoCounterexample {
                    bound: cfg.max_bound,
                };
                for bound in 1..=cfg.max_bound {
                    ctx.span("smt.encode", |_| session.extend(&mut tm, bound));
                    let outcome = ctx.span("tsys.bmc", |c| {
                        let bad = session.bad_at(&mut tm, bound);
                        let outcome = session.query(&mut tm, bound, &[bad]);
                        let query = session.last_query_stats().expect("a query just ran");
                        c.reported("smt.sat", query.duration);
                        outcome
                    });
                    match outcome {
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
                let s = session.stats();
                counts.add("tsys.bmc.queries", s.queries as f64);
                counts.add("smt.sat.checks", s.solver.checks as f64);
                counts.absorb_solver(&s.solver);
                (deepest, conflicts, cnf_clauses) =
                    (s.deepest_bound, s.conflicts, s.solver.cnf_clauses);
                proof_checked = None;
                result = end;
            }
            (None, _) => {
                // The scratch-solver modes report no SAT time of their own:
                // the span stays opaque and its time unattributed.
                let mut bmc = Bmc::new(bmc_config);
                let end = ctx.opaque("tsys.bmc.check", |_| bmc.check(&mut tm, ts, cfg.max_bound));
                let s = bmc.stats();
                counts.add("tsys.bmc.queries", s.queries as f64);
                counts.add("smt.sat.checks", s.queries as f64);
                counts.absorb_encoding(&s.solver);
                (deepest, conflicts, cnf_clauses) =
                    (s.deepest_bound, s.conflicts, s.solver.cnf_clauses);
                proof_checked = None;
                result = end;
            }
        }
        counts.add("smt.sat.conflicts", conflicts as f64);

        let mut out = Output {
            detected: false,
            inconclusive: false,
            stop: None,
            proved: false,
            proof_checked,
            trace_len: None,
            witness_validated: None,
            bound: deepest,
            conflicts,
            cnf_clauses,
        };
        match result {
            BmcResult::Counterexample(witness) => {
                out.witness_validated = cfg.validate_witness.then(|| {
                    ctx.span("core.selfcheck", |_| {
                        replay_confirms(
                            &cfg.processor,
                            self.mutation.as_ref(),
                            self.method,
                            &witness,
                        )
                    })
                });
                if out.witness_validated == Some(false) {
                    out.inconclusive = true;
                    out.stop = Some(StopReason::WitnessMismatch);
                } else {
                    out.detected = true;
                    out.trace_len = Some(witness.num_steps());
                }
            }
            BmcResult::Proved { .. } => {
                if proof_checked == Some(false) {
                    out.inconclusive = true;
                    out.stop = Some(StopReason::ProofMismatch);
                } else {
                    out.proved = true;
                }
            }
            BmcResult::NoCounterexample { bound } => out.bound = bound,
            BmcResult::Unknown { bound, reason } => {
                out.inconclusive = true;
                out.stop = Some(reason);
                out.bound = bound;
            }
        }
        out
    }

    /// The oracle.  `shortest` is the per-depth reference trace length of
    /// the same bug and method (per-depth search returns a shortest
    /// counterexample, so no trace may be shorter).
    pub fn judge(&self, out: &Output, shortest: Option<usize>) -> Status {
        if out.inconclusive {
            return Status::Failed(format!("inconclusive: {:?}", out.stop));
        }
        match self.expect {
            Expect::Miss if out.detected => {
                Status::Wrong("reported a counterexample the method cannot produce".into())
            }
            Expect::Miss if out.bound != self.config.max_bound => Status::Wrong(format!(
                "clean only to bound {} of {}",
                out.bound, self.config.max_bound
            )),
            Expect::Miss => Status::Ok,
            Expect::Detect if !out.detected => {
                Status::Wrong("reported the injected bug absent within the bound".into())
            }
            Expect::Detect if out.witness_validated != Some(true) => Status::Wrong(
                "the counterexample was not confirmed by the witness self-check".into(),
            ),
            Expect::Detect => {
                let len = out.trace_len.unwrap_or(0);
                if shortest.is_some_and(|s| len < s) {
                    Status::Wrong(format!(
                        "trace of length {len} is shorter than the per-depth shortest {shortest:?}"
                    ))
                } else {
                    Status::Ok
                }
            }
            Expect::Prove if out.detected => {
                Status::Wrong("reported a counterexample on the clean design".into())
            }
            Expect::Prove if out.proved && out.proof_checked == Some(true) => Status::Ok,
            Expect::Prove => Status::Failed(format!(
                "not proved with a re-checked certificate (proved {}, checked {:?})",
                out.proved, out.proof_checked
            )),
        }
    }
}

/// Runs `jobs` in order as one pass.  `reference[i]` names the job whose
/// trace is the shortest-trace reference for job `i`.
pub fn run_jobs(
    jobs: &[Job],
    reference: &[Option<usize>],
    tracer: Option<&crate::trace::Tracer>,
) -> crate::Pass {
    let start = Instant::now();
    let mut pass = crate::Pass::default();
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut latencies = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let op_start = Instant::now();
        let out = match tracer {
            None => job.run(),
            Some(t) => t.op(i as u64, "op", |c| job.run_traced(c, &mut pass.counts)),
        };
        latencies.push(op_start.elapsed());
        outcomes.push(out);
    }
    pass.wall = start.elapsed();
    let mut trace_len_sum = 0;
    for (i, (job, out)) in jobs.iter().zip(&outcomes).enumerate() {
        let shortest = reference[i].and_then(|r| outcomes[r].trace_len);
        pass.ops.push(crate::Op {
            label: job.label.clone(),
            latency: latencies[i],
            status: job.judge(out, shortest),
        });
        out.facts(&job.label, &mut pass.facts);
        trace_len_sum += out.trace_len.unwrap_or(0);
    }
    if jobs.iter().any(|j| j.expect == Expect::Detect) {
        pass.extra
            .push(("trace_len_sum", trace_len_sum as f64, "instrs"));
    }
    pass
}
