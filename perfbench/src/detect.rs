//! `detect_table1`: the paper's Table 1 (quick profile) — every bug checked
//! by SQED (which must miss it), by SEPE-SQED per-depth (which must detect
//! it with a shortest trace) and by SEPE-SQED under the `DetectorConfig`
//! default mode (the path users hit) — then a PDR proof of the clean
//! tiny/ADD design with its certificate re-checked, all under one shared
//! conflict cap.

use sepe_bench::{table1, Profile};
use sepe_isa::Opcode;
use sepe_processor::ProcessorConfig;
use sepe_sqed::detect::{DetectorConfig, Method};
use sepe_sqed::EquivalenceDb;
use sepe_tsys::{BmcMode, ProofMethod};

use crate::job::{run_jobs, Expect, Job};
use crate::trace::Tracer;
use crate::{Pass, Workload};

/// The conflict cap of every query of every job.  The hardest queries that
/// end within it need (at the seed solver): SQED SUB 43,137 and SQED ADD
/// 42,049 conflicts (one cumulative query each), per-depth SEPE-SQED SUB
/// 29,370 at depth 6 and XOR 26,613.  The cap leaves each of them at least
/// 1.39x headroom, so a few percent more conflicts from a solver change
/// does not turn a finished job into a cap-out.  Only the default-mode XOR
/// job reaches it (it is still inconclusive after 268,928 conflicts).  The
/// PDR proof's queries stay under 5,000 conflicts each (the `bench_smoke`
/// proofs arm's cap).
pub const CONFLICT_CAP: u64 = 60_000;

/// SQED's bound in the Table-1 quick harness.
const SQED_BOUND: usize = 5;

/// The workload.
#[derive(Debug, Default)]
pub struct DetectTable1 {
    jobs: Vec<Job>,
    reference: Vec<Option<usize>>,
}

impl DetectTable1 {
    /// A workload over the quick Table-1 bug set.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Workload for DetectTable1 {
    fn setup(&mut self) {
        let bugs = table1::bugs(Profile::Quick);
        let harness: Vec<DetectorConfig> = bugs
            .iter()
            .map(|bug| table1::detector_for(bug, Profile::Quick).config().clone())
            .collect();
        // Built once and shared by every SEPE-SQED job of the pass (the
        // quick bugs share one data-path width).
        let db = EquivalenceDb::curated_for_width(harness[0].processor.xlen);
        self.jobs.clear();
        self.reference.clear();
        for (bug, harness) in bugs.into_iter().zip(harness) {
            let base = DetectorConfig {
                conflict_limit: Some(CONFLICT_CAP),
                time_limit: None,
                equivalence: Some(db.clone()),
                ..harness
            };
            let name = &bug.name;
            let perdepth = self.jobs.len() + 1;
            self.jobs.push(Job {
                label: format!("{name}/sqed"),
                method: Method::Sqed,
                config: DetectorConfig {
                    max_bound: SQED_BOUND,
                    ..base.clone()
                },
                mutation: Some(bug.clone()),
                expect: Expect::Miss,
            });
            self.jobs.push(Job {
                label: format!("{name}/sepe-perdepth"),
                method: Method::SepeSqed,
                config: DetectorConfig {
                    bmc_mode: BmcMode::PerDepth,
                    ..base.clone()
                },
                mutation: Some(bug.clone()),
                expect: Expect::Detect,
            });
            self.jobs.push(Job {
                label: format!("{name}/sepe-default"),
                method: Method::SepeSqed,
                config: base,
                mutation: Some(bug.clone()),
                expect: Expect::Detect,
            });
            self.reference
                .extend([None, Some(perdepth), Some(perdepth)]);
        }
        // The `bench_smoke` proofs arm: the cheapest configuration PDR
        // closes.
        self.jobs.push(Job {
            label: "clean/sqed-pdr".into(),
            method: Method::Sqed,
            config: DetectorConfig::builder()
                .processor(ProcessorConfig::tiny().with_opcodes(&[Opcode::Add]))
                .bound(4)
                .prove(ProofMethod::Pdr)
                .conflict_limit(CONFLICT_CAP)
                .build(),
            mutation: None,
            expect: Expect::Prove,
        });
        self.reference.push(None);
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        run_jobs(&self.jobs, &self.reference, tracer)
    }

    fn describe(&self) -> String {
        format!(
            "{} jobs: Table-1 quick bugs x (SQED bound {SQED_BOUND}, SEPE-SQED per-depth, SEPE-SQED default mode), PDR proof of clean tiny/ADD, conflict cap {CONFLICT_CAP} per query, no wall budget",
            self.jobs.len()
        )
    }
}
