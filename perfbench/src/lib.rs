//! End-to-end and per-layer benchmark of the SEPE-SQED stack.
//!
//! Three workloads ([`WORKLOADS`]) drive the repository's crates through
//! their public API only.  An untraced run repeats a workload's fixed input
//! set ("a pass") for a fixed number of seconds and reports the end-to-end
//! metrics; a traced run repeats one untraced pass, then one pass through
//! the traced path — one level below each entry point where the public API
//! allows it — and reports per-layer metrics folded from its spans
//! ([`trace`]) and from the counters the program reports itself.
//!
//! Every operation is judged by an oracle ([`Status`]).  Every pass yields
//! a set of deterministic [`Facts`] (verdicts, conflicts, CNF clauses,
//! trace lengths, programs found, cache hits and misses) that must repeat
//! exactly from pass to pass and between the untraced and the traced path.

pub mod detect;
pub mod job;
pub mod serve;
pub mod synth;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use trace::{LayerTimes, Tracer};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["detect_table1", "synth_hpf", "serve_mixed"];

/// `setup_s` is the median of this many set-ups, each timed alone before
/// the first pass (the teardown after each is untimed).
const SETUP_RUNS: usize = 51;

/// How one operation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// The oracle accepts the output.
    Ok,
    /// No usable answer (capped, inconclusive, fewer programs than asked,
    /// transport error): counts as failed.
    Failed(String),
    /// The output contradicts the oracle: counts as failed and makes the
    /// whole run incorrect.
    Wrong(String),
}

/// One timed operation: a detection job, a synthesis case or a request.
#[derive(Debug, Clone)]
pub struct Op {
    /// Operation label.
    pub label: String,
    /// Host time of the operation.
    pub latency: Duration,
    /// The oracle's judgement.
    pub status: Status,
}

/// Deterministic counters of one pass, keyed by `<operation>.<counter>`.
pub type Facts = BTreeMap<String, u64>;

/// Per-layer work counters the program reports, summed over a pass.
#[derive(Debug, Clone, Default)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    /// Adds `value` to counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    /// Raises counter `name` to at least `value`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.0.entry(name).or_default();
        *slot = slot.max(value);
    }

    /// The counter's value (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds the reuse counters of one incremental solver lifetime.
    pub fn absorb_solver(&mut self, s: &sepe_smt::SolverReuseStats) {
        self.add("smt.sat.propagations", s.propagations as f64);
        self.add("smt.sat.learnt_deleted", s.learnt_deleted as f64);
        self.max("smt.sat.learnt_high_water", s.learnt_high_water as f64);
        if s.propagations > 0 {
            self.add("smt.sat.reported_ms", s.duration.as_secs_f64() * 1e3);
        }
        self.absorb_encoding(s);
    }

    /// Adds the encoding counters (CNF, AIG, rewriting) of one solver.
    pub fn absorb_encoding(&mut self, s: &sepe_smt::SolverReuseStats) {
        self.add("smt.encode.cnf_clauses", s.cnf_clauses as f64);
        self.add("smt.encode.cnf_vars", s.cnf_vars as f64);
        self.add("smt.encode.aig_nodes", s.encode.aig.nodes as f64);
        self.add("smt.encode.strash_hits", s.encode.aig.strash_hits as f64);
        self.add("smt.encode.terms_cached", s.encode.terms_cached as f64);
        self.add("smt.encode.terms_reused", s.encode.terms_reused as f64);
        self.add("smt.rewrite.pins", s.encode.rewrite.pins as f64);
    }
}

/// One pass over a workload's fixed input set.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host time of the whole pass.
    pub wall: Duration,
    /// Every operation, in issue order.
    pub ops: Vec<Op>,
    /// Deterministic counters.
    pub facts: Facts,
    /// Per-layer counters (filled on the traced path).
    pub counts: Counts,
    /// Workload-specific end-to-end figures: name, value, unit.
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

/// A workload: set-up, passes over a fixed input set, teardown.
pub trait Workload {
    /// Builds what every operation of a pass shares; timed as set-up.
    fn setup(&mut self);
    /// Runs the fixed input set once: untraced through the entry points
    /// users call, or traced through the decomposed path.
    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass;
    /// Releases what set-up built (untimed).
    fn teardown(&mut self) {}
    /// Human-readable description of the generated input.
    fn describe(&self) -> String;
}

/// Builds a workload by name; `seed` drives every generated input.
pub fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "detect_table1" => Some(Box::new(detect::DetectTable1::new())),
        "synth_hpf" => Some(Box::new(synth::SynthHpf::new())),
        "serve_mixed" => Some(Box::new(serve::ServeMixed::new(seed))),
        _ => None,
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a benchmark run prints.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// No wrong verdict and no counter that failed to repeat.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (including wrong ones).
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Report lines printed above it.
    pub report: Vec<String>,
}

impl Outcome {
    /// The final JSON line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The interquartile mean: the mean of the sample without its lowest and
/// highest quarter (each rounded down).  A run of `detect_table1` has 16
/// unlike operations, so a median would be one operation's time and carry
/// all of its noise; this averages the middle ones (0 when empty).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// Samples from which on the tail is the highest sample with ten samples
/// above it: from here those ten are at most a quarter of the sample.
pub const TAIL_MIN_SAMPLES: usize = 44;

/// The tail latency: the highest sample with at least ten samples above
/// it.  Below [`TAIL_MIN_SAMPLES`] that sample would not lie in the slowest
/// quarter, so the tail is the mean of the slowest quarter (at least one
/// sample): one slow operation alone varies too much from run to run.  The
/// threshold sits far from every workload's sample count, so a run's
/// length never switches the rule.  Returns the value and how many samples
/// it stands for.
pub fn tail(values: &[f64]) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0),
        n if n < TAIL_MIN_SAMPLES => {
            let slowest = &v[n - (n / 4).max(1)..];
            (
                slowest.iter().sum::<f64>() / slowest.len() as f64,
                slowest.len(),
            )
        }
        n => (v[n - 11], 1),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_difference(a: &Facts, b: &Facts) -> Option<String> {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .find(|k| a.get(*k) != b.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", a.get(k), b.get(k)))
}

fn judge(passes: &[Pass], outcome: &mut Outcome) {
    // Failure lines, each once with the number of passes it occurred in.
    let mut lines: BTreeMap<String, usize> = BTreeMap::new();
    for op in passes.iter().flat_map(|p| &p.ops) {
        outcome.attempted += 1;
        let line = match &op.status {
            Status::Ok => continue,
            Status::Failed(why) => format!("failed  {}: {why}", op.label),
            Status::Wrong(why) => {
                outcome.correct = false;
                format!("WRONG   {}: {why}", op.label)
            }
        };
        outcome.failed += 1;
        *lines.entry(line).or_default() += 1;
    }
    for (line, times) in lines {
        outcome.report.push(format!("{line} (x{times})"));
    }
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if let Some(diff) = first_difference(&passes[0].facts, &pass.facts) {
            outcome.correct = false;
            outcome
                .report
                .push(format!("counters did not repeat in pass {i}: {diff}"));
        }
    }
}

/// Times one set-up (the teardown after it is untimed).
fn timed_setup(w: &mut dyn Workload) -> f64 {
    let start = Instant::now();
    w.setup();
    let took = start.elapsed().as_secs_f64();
    w.teardown();
    took
}

/// The untraced run: set-up samples, then passes until `seconds` would be
/// exceeded by one more pass (at least one pass; each after its own
/// untimed set-up).
pub fn run_untraced(w: &mut dyn Workload, seconds: f64) -> Outcome {
    let setup: Vec<f64> = (0..SETUP_RUNS).map(|_| timed_setup(w)).collect();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        w.setup();
        passes.push(w.pass(None));
        w.teardown();
        let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
        if start.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
    }
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    judge(&passes, &mut outcome);

    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.ops)
        .map(|op| op.latency.as_secs_f64())
        .collect();
    let (op_tail, beyond) = tail(&latencies);
    let pass_share = 1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setup),
            unit: "s",
        },
        Metric {
            name: "wall_s",
            value: median(&walls),
            unit: "s",
        },
        Metric {
            name: "op_iqm_s",
            value: interquartile_mean(&latencies),
            unit: "s",
        },
        Metric {
            name: "op_tail_s",
            value: op_tail,
            unit: "s",
        },
        Metric {
            name: "pass_share",
            value: pass_share,
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mib(),
            unit: "MiB",
        },
    ];
    outcome.report.push(format!(
        "{} pass(es), {} operations, {} set-up samples; op_tail_s {}",
        passes.len(),
        latencies.len(),
        setup.len(),
        if latencies.len() < TAIL_MIN_SAMPLES {
            format!("is the mean of the slowest {beyond} operation(s)")
        } else {
            format!("has 10 of {} samples above it", latencies.len())
        }
    ));
    outcome
        .report
        .push(format!("fail_share = {} ratio", 1.0 - pass_share));
    // Per-operation medians, for workloads with a short operation list.
    let mut by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for op in passes.iter().flat_map(|p| &p.ops) {
        by_label
            .entry(&op.label)
            .or_default()
            .push(op.latency.as_secs_f64());
    }
    if by_label.len() <= 20 {
        for op in &passes[0].ops {
            outcome.report.push(format!(
                "op {} = {} s",
                op.label,
                median(&by_label[op.label.as_str()])
            ));
        }
    }
    // Workload-specific figures: the median over passes.
    for (i, (name, _, unit)) in passes[0].extra.iter().enumerate() {
        let values: Vec<f64> = passes.iter().map(|p| p.extra[i].1).collect();
        outcome
            .report
            .push(format!("{name} = {} {unit}", median(&values)));
    }
    outcome
}

/// The per-layer metrics of `BENCHMARK.json`, in its order.
pub fn layer_metrics(traced: &Pass, times: &LayerTimes, untraced_wall: Duration) -> Vec<Metric> {
    let c = &traced.counts;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let strash = c.get("smt.encode.strash_hits");
    let reused = c.get("smt.encode.terms_reused");
    let tried = c.get("synth.hpf.multisets_tried");
    let cegis_checks = c.get("synth.cegis.checks");
    let hits = c.get("service.cache.hits");
    let misses = c.get("service.cache.misses");
    let root = times.root.as_secs_f64();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("smt.sat.busy_s", times.busy_s("smt.sat"), "s"),
        m("smt.sat.conflicts", c.get("smt.sat.conflicts"), "count"),
        m(
            "smt.sat.propagations",
            c.get("smt.sat.propagations"),
            "count",
        ),
        m(
            "smt.sat.props_per_ms",
            ratio(c.get("smt.sat.propagations"), c.get("smt.sat.reported_ms")),
            "1/ms",
        ),
        m("smt.sat.checks", c.get("smt.sat.checks"), "count"),
        m(
            "smt.sat.learnt_deleted",
            c.get("smt.sat.learnt_deleted"),
            "count",
        ),
        m(
            "smt.sat.learnt_high_water",
            c.get("smt.sat.learnt_high_water"),
            "count",
        ),
        m("smt.encode.busy_s", times.busy_s("smt.encode"), "s"),
        m(
            "smt.encode.cnf_clauses",
            c.get("smt.encode.cnf_clauses"),
            "count",
        ),
        m("smt.encode.cnf_vars", c.get("smt.encode.cnf_vars"), "count"),
        m(
            "smt.encode.aig_nodes",
            c.get("smt.encode.aig_nodes"),
            "count",
        ),
        m(
            "smt.encode.strash_hit_ratio",
            ratio(strash, strash + c.get("smt.encode.aig_nodes")),
            "ratio",
        ),
        m(
            "smt.encode.term_reuse_ratio",
            ratio(reused, reused + c.get("smt.encode.terms_cached")),
            "ratio",
        ),
        m("smt.rewrite.pins", c.get("smt.rewrite.pins"), "count"),
        m("tsys.bmc.queries", c.get("tsys.bmc.queries"), "count"),
        m("tsys.bmc.self_s", times.self_s("tsys.bmc"), "s"),
        m("tsys.pdr.busy_s", times.busy_s("tsys.pdr"), "s"),
        m("tsys.pdr.queries", c.get("tsys.pdr.queries"), "count"),
        m(
            "tsys.pdr.cubes_blocked",
            c.get("tsys.pdr.cubes_blocked"),
            "count",
        ),
        m("tsys.prove.check_s", times.busy_s("tsys.prove"), "s"),
        m("core.qed.build_s", times.busy_s("core.qed"), "s"),
        m(
            "core.selfcheck.replay_s",
            times.busy_s("core.selfcheck"),
            "s",
        ),
        m("synth.hpf.busy_s", times.busy_s("synth.hpf"), "s"),
        m("synth.hpf.self_s", times.self_s("synth.hpf"), "s"),
        m("synth.hpf.multisets_tried", tried, "count"),
        m(
            "synth.hpf.success_ratio",
            ratio(c.get("synth.hpf.multisets_successful"), tried),
            "ratio",
        ),
        m("synth.cegis.checks", cegis_checks, "count"),
        m(
            "synth.cegis.conflicts_per_check",
            ratio(c.get("synth.cegis.conflicts"), cegis_checks),
            "count",
        ),
        m(
            "service.cache.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        m("service.cache.misses", misses, "count"),
        m(
            "service.protocol.reply_bytes",
            c.get("service.protocol.reply_bytes"),
            "B",
        ),
        m(
            "service.server.overhead_s",
            c.get("service.server.overhead_s"),
            "s",
        ),
        m(
            "service.client.retries",
            c.get("service.client.retries"),
            "count",
        ),
        m(
            "service.server.busy_rejections",
            c.get("service.server.busy_rejections"),
            "count",
        ),
        m("core.engine.encodes", c.get("core.engine.encodes"), "count"),
        m(
            "trace.overhead_share",
            ratio(traced.wall.as_secs_f64(), untraced_wall.as_secs_f64()) - 1.0,
            "ratio",
        ),
        m(
            "trace.unattributed_share",
            ratio(times.unattributed.as_secs_f64(), root),
            "ratio",
        ),
    ]
}

/// The traced run: one untraced pass, then one traced pass whose
/// deterministic counters must equal the untraced pass's.
pub fn run_traced(w: &mut dyn Workload) -> Outcome {
    w.setup();
    let untraced = w.pass(None);
    w.teardown();
    w.setup();
    let tracer = Tracer::default();
    let traced = w.pass(Some(&tracer));
    w.teardown();

    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let passes = [untraced, traced];
    judge(&passes, &mut outcome);
    let [untraced, traced] = passes;
    let spans = tracer.spans();
    let times = LayerTimes::fold(&spans);
    outcome.metrics = layer_metrics(&traced, &times, untraced.wall);
    outcome.report.push(format!(
        "traced pass: {} spans over {} operations; untraced wall {:.3} s, traced wall {:.3} s",
        spans.len(),
        traced.ops.len(),
        untraced.wall.as_secs_f64(),
        traced.wall.as_secs_f64()
    ));
    for (layer, busy) in &times.busy {
        outcome.report.push(format!(
            "span {layer:<16} busy {:>10.4} s  self {:>10.4} s",
            busy.as_secs_f64(),
            times.self_s(layer)
        ));
    }
    outcome
}
