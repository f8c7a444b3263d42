//! The benchmark command:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints report lines (every end-to-end figure by name and unit, failed
//! operations, span totals), then one JSON line with `correct`,
//! `attempted`, `failed` and the metrics: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`).  Exits
//! nonzero on a wrong verdict or a counter that failed to repeat.

use std::process::ExitCode;

fn arg(args: &[String], flag: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
        .ok_or_else(|| format!("missing {flag}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (|| -> Result<(String, u64, f64, bool), String> {
        let workload = arg(&args, "--workload")?;
        let seed = arg(&args, "--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = arg(&args, "--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        let trace = match arg(&args, "--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        };
        Ok((workload, seed, seconds, trace))
    })();
    let (name, seed, seconds, trace) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(mut workload) = perfbench::workload(&name, seed) else {
        eprintln!(
            "perfbench: unknown workload {name:?} (known: {})",
            perfbench::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = if trace {
        perfbench::run_traced(workload.as_mut())
    } else {
        perfbench::run_untraced(workload.as_mut(), seconds)
    };
    println!("workload {name}: {}", workload.describe());
    for line in &outcome.report {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
