//! End-to-end check of the perf harness determinism contract: two same-seed
//! runs of a workload must agree on every non-timing field of the
//! `fexiot-bench/v1` document, and `diff_reports` must report no
//! breaking drift between them.
//!
//! Kept as a single test because the harness runs against the global obs
//! registry — concurrent tests would pollute each other's counters.

use fexiot_bench::perf::{self, PerfConfig};
use fexiot_bench::Scale;
use fexiot_obs::diff::{diff_reports, validate_bench_report, DiffConfig, Severity};
use fexiot_obs::profile::parse_collapsed;

#[test]
fn same_seed_runs_are_bit_identical_outside_timing() {
    let cfg = PerfConfig {
        scale: Scale::Small,
        reps: 1,
        seed: 7,
        threads: 1,
    };
    let a = perf::run_workload("featurize", &cfg).expect("known workload");
    let b = perf::run_workload("featurize", &cfg).expect("known workload");

    assert!(!a.items.is_empty(), "workload recorded no counters");
    assert_eq!(a.items, b.items, "counter items drifted between runs");
    assert_eq!(a.tracked, b.tracked);
    if a.tracked {
        assert_eq!(a.alloc, b.alloc, "alloc counters drifted between runs");
    }

    let doc_a = perf::to_json(&a, &cfg);
    let doc_b = perf::to_json(&b, &cfg);
    validate_bench_report(&doc_a).expect("run A produces a valid document");
    validate_bench_report(&doc_b).expect("run B produces a valid document");

    let diff = diff_reports(&doc_a, &doc_b, &DiffConfig::default());
    let breaking: Vec<_> = diff
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Breaking)
        .collect();
    assert!(breaking.is_empty(), "breaking drift between same-seed runs: {breaking:?}");

    // The collapsed stacks parse and cover the workload's span tree.
    let stacks = parse_collapsed(&a.collapsed).expect("collapsed stacks parse");
    assert!(!stacks.is_empty(), "no stacks collected");
    assert!(
        stacks.iter().any(|(path, _)| path.starts_with("pipeline")),
        "pipeline spans missing from {stacks:?}"
    );
}
