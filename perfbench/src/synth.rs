//! `synth_hpf`: HPF-CEGIS on the Figure-3 quick cases, in the harness's
//! order, with no wall budget — each case stops at the wanted number of
//! programs or when its multisets run out, under per-query conflict caps
//! and the CEGIS iteration cap.  Every program is re-proved equivalent by
//! an independent validity query.

use std::time::Instant;

use sepe_bench::{fig3, Profile};
use sepe_smt::solver::is_valid;
use sepe_smt::{SatResult, TermManager};
use sepe_synth::cegis::template_result_term;
use sepe_synth::hpf::HpfCegis;
use sepe_synth::{EquivTemplate, Library, Spec, SynthesisCase, SynthesisConfig};

use crate::trace::Tracer;
use crate::{Op, Pass, Status, Workload};

/// Cases run per pass: the quick profile's first two (ADD, SUB).  The
/// third (SLL) needs over 30 s on its own, too long for a timed pass.
pub const CASES: usize = 2;

/// Per-query conflict cap of the synthesis and verification solvers.  On
/// ADD and SUB it finds the same programs after the same multisets as the
/// harness's 50,000 while bounding each capped-out query's cost.
pub const QUERY_CAP: u64 = 2_000;

/// The workload.
#[derive(Debug, Default)]
pub struct SynthHpf {
    config: Option<SynthesisConfig>,
    library: Option<Library>,
    cases: Vec<SynthesisCase>,
    multisets: usize,
}

impl SynthHpf {
    /// A workload over the first Figure-3 quick cases.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Re-proves `program` equivalent to `spec` at the synthesis width with a
/// fresh term manager and a plain validity query.
pub fn verified(spec: &Spec, program: &EquivTemplate) -> bool {
    let mut tm = TermManager::new();
    let inputs = spec.fresh_inputs(&mut tm, "oracle");
    let pre = spec.input_constraint(&mut tm, &inputs);
    let want = spec.result(&mut tm, &inputs);
    let got = template_result_term(&mut tm, program, spec, &inputs);
    let same = tm.eq(want, got);
    let claim = tm.implies(pre, same);
    is_valid(&mut tm, claim, None) == SatResult::Sat
}

impl Workload for SynthHpf {
    fn setup(&mut self) {
        let config = SynthesisConfig {
            synth_conflict_limit: Some(QUERY_CAP),
            verify_conflict_limit: Some(QUERY_CAP),
            time_limit: None,
            ..fig3::synthesis_config(Profile::Quick)
        };
        let library = Library::standard();
        self.multisets = library.multisets(config.multiset_size).len();
        self.cases = fig3::cases(Profile::Quick)
            .into_iter()
            .take(CASES)
            .collect();
        self.library = Some(library);
        self.config = Some(config);
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let config = self.config.as_ref().expect("set up");
        let library = self.library.as_ref().expect("set up");
        let start = Instant::now();
        let mut pass = Pass::default();
        let mut results = Vec::new();
        for (i, case) in self.cases.iter().enumerate() {
            let op_start = Instant::now();
            let mut hpf = HpfCegis::new(config.clone(), library.clone());
            let result = match tracer {
                None => hpf.synthesize(&case.spec),
                Some(t) => t.op(i as u64, "op", |c| {
                    c.span("synth.hpf", |c| {
                        let r = hpf.synthesize(&case.spec);
                        c.reported("smt.sat", r.solver.duration);
                        r
                    })
                }),
            };
            results.push((op_start.elapsed(), result));
        }
        pass.wall = start.elapsed();
        let mut found = 0;
        for (case, (latency, r)) in self.cases.iter().zip(results) {
            let label = format!("{}-{}", case.id, case.spec.name);
            let unverified = r
                .programs
                .iter()
                .filter(|p| !verified(&case.spec, p))
                .count();
            let status = if unverified > 0 {
                Status::Wrong(format!(
                    "{unverified} program(s) not equivalent to the spec"
                ))
            } else if r.programs.len() < config.programs_wanted {
                Status::Failed(format!(
                    "{} of {} programs after {} multisets",
                    r.programs.len(),
                    config.programs_wanted,
                    r.multisets_tried
                ))
            } else {
                Status::Ok
            };
            found += r.programs.len() - unverified;
            pass.ops.push(Op {
                label: label.clone(),
                latency,
                status,
            });
            pass.facts
                .insert(format!("{label}.programs"), r.programs.len() as u64);
            pass.facts
                .insert(format!("{label}.multisets_tried"), r.multisets_tried as u64);
            pass.facts.insert(
                format!("{label}.multisets_successful"),
                r.multisets_successful as u64,
            );
            pass.facts
                .insert(format!("{label}.checks"), r.solver.checks);
            pass.facts
                .insert(format!("{label}.conflicts"), r.solver.conflicts);
            pass.facts
                .insert(format!("{label}.cnf_clauses"), r.solver.cnf_clauses);
            let c = &mut pass.counts;
            c.add("synth.hpf.multisets_tried", r.multisets_tried as f64);
            c.add(
                "synth.hpf.multisets_successful",
                r.multisets_successful as f64,
            );
            c.add("synth.cegis.checks", r.solver.checks as f64);
            c.add("synth.cegis.conflicts", r.solver.conflicts as f64);
            c.add("smt.sat.checks", r.solver.checks as f64);
            c.add("smt.sat.conflicts", r.solver.conflicts as f64);
            c.absorb_solver(&r.solver);
        }
        pass.extra.push(("programs_found", found as f64, "count"));
        pass
    }

    fn describe(&self) -> String {
        let config = self.config.as_ref();
        format!(
            "{} Figure-3 quick case(s), width {}, {} programs wanted per case, {} multisets, per-query cap {QUERY_CAP} conflicts, no wall budget",
            self.cases.len(),
            config.map_or(0, |c| c.width),
            config.map_or(0, |c| c.programs_wanted),
            self.multisets,
        )
    }
}
