//! Exact-repeat check: on every workload, two untraced passes and one
//! traced pass produce identical deterministic counters (verdicts,
//! conflicts, CNF clauses, trace lengths, programs found, multisets tried,
//! cache hits and misses), and no oracle reports a wrong verdict.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a few minutes: it runs every workload's input set three times).

use perfbench::trace::Tracer;
use perfbench::{workload, Facts, Status};

fn three_passes(name: &str) {
    let mut w = workload(name, 7).expect("known workload");
    let mut facts: Vec<Facts> = Vec::new();
    for traced in [false, false, true] {
        w.setup();
        let tracer = Tracer::default();
        let pass = w.pass(traced.then_some(&tracer));
        w.teardown();
        for op in &pass.ops {
            assert!(
                !matches!(op.status, Status::Wrong(_)),
                "{name}: {} {:?}",
                op.label,
                op.status
            );
        }
        assert!(!pass.facts.is_empty(), "{name}: a pass records counters");
        facts.push(pass.facts);
    }
    assert_eq!(
        facts[0], facts[1],
        "{name}: counters differ between two untraced passes"
    );
    assert_eq!(
        facts[0], facts[2],
        "{name}: the traced pass measured a different program"
    );
}

#[test]
fn detect_table1_repeats_exactly() {
    three_passes("detect_table1");
}

#[test]
fn synth_hpf_repeats_exactly() {
    three_passes("synth_hpf");
}

#[test]
fn serve_mixed_repeats_exactly() {
    three_passes("serve_mixed");
}
