//! `obs-diff [options] <baseline.json> <current.json>` — compares two
//! `fexiot-obs` run reports, or two `fexiot-bench/v1` benchmark documents
//! (told apart by the `schema` field; mixing the two is a usage error), and
//! exits non-zero when deterministic data drifted (or, with
//! `--strict-timing`, when timings regressed beyond tolerance). This is the
//! CI perf/behaviour regression gate. Both families go through the same
//! structural diff, whose severity rules are listed in
//! `fexiot_obs::diff`.
//!
//! Options:
//!   --timing-tolerance FRAC   allowed fractional slowdown (default 0.25)
//!   --timing-floor-us N       ignore `*_us` timings below this in the
//!                             baseline (default 1000)
//!   --strict-timing           timing regressions become breaking
//!   --json                    print the fexiot-obs-diff/v1 verdict document
//!
//! Exit codes: 0 pass, 1 fail (breaking findings), 2 usage/IO error.

use fexiot_obs::diff::{diff_reports, validate_bench_report, DiffConfig, BENCH_SCHEMA};
use fexiot_obs::{validate_report, Json};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: obs-diff [--timing-tolerance FRAC] [--timing-floor-us N] \
         [--strict-timing] [--json] <baseline.json> <current.json>\n\
         (accepts two fexiot-obs/v1 reports or two fexiot-bench/v1 documents)"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) == Some(BENCH_SCHEMA) {
        validate_bench_report(&doc).map_err(|e| format!("{path}: {e}"))?;
    } else {
        validate_report(&doc).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(doc)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = DiffConfig::default();
    let mut as_json = false;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--timing-tolerance" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(v)) if v >= 0.0 && v.is_finite() => cfg.timing_tolerance = v,
                _ => return usage(),
            },
            "--timing-floor-us" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => cfg.timing_floor_us = v,
                _ => return usage(),
            },
            "--strict-timing" => cfg.strict_timing = true,
            "--json" => as_json = true,
            flag if flag.starts_with("--") => {
                eprintln!("obs-diff: unknown flag {flag:?}");
                return usage();
            }
            path => files.push(path.to_string()),
        }
    }
    let [baseline, current] = files.as_slice() else {
        return usage();
    };
    let (base_doc, cur_doc) = match (load(baseline), load(current)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("obs-diff: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let is_bench = |doc: &Json| doc.get("schema").and_then(Json::as_str) == Some(BENCH_SCHEMA);
    if is_bench(&base_doc) != is_bench(&cur_doc) {
        eprintln!(
            "obs-diff: {baseline} and {current} use different schemas \
             (cannot compare an obs report with a bench document)"
        );
        return ExitCode::from(2);
    }
    let report = diff_reports(&base_doc, &cur_doc, &cfg);
    if as_json {
        println!(
            "{}",
            report.to_json(
                &Path::new(baseline).display().to_string(),
                &Path::new(current).display().to_string()
            )
        );
    } else {
        print!("{}", report.render());
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
