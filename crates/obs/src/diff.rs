//! Comparison of two obs run reports (`fexiot-obs/v4`, or the older v1–v3)
//! or two `fexiot-bench/v1` benchmark documents: the engine behind the
//! `obs-diff` binary and the CI regression gate.
//!
//! One recursive walk over the two JSON documents decides every verdict.
//! The field name is read in exactly one place, `classify`, which applies
//! the naming rule the registry already uses for exports
//! ([`is_timing_name`], [`is_environment_name`]); everything else follows
//! from where a value sits in the document:
//!
//! | value | verdict |
//! |---|---|
//! | top-level `schema` | not compared |
//! | top-level `run` | a change is advisory |
//! | deterministic (any other name) | must match exactly, numbers by value; drift or one-sided presence is breaking |
//! | top-level object present on one side only | advisory (older-schema baseline or flag change) |
//! | `*_us` timing | a slowdown past `timing_tolerance` is flagged; baselines below `timing_floor_us` are skipped |
//! | `*_per_sec`, `speedup_milli` timing | a drop past `timing_tolerance` is flagged |
//! | `par.*` environment | any drift is advisory |
//! | object whose `tracked` flag differs | one advisory finding; contents not compared |
//! | span tree | nodes matched by index and `name`; `elapsed_us` is timing |
//!
//! Timing findings (one-sided timing values included) are advisory, or
//! breaking under `strict_timing`. A timing-named object is judged by one
//! number: its `p50` (the bench `timing_us` block) or its mean `sum / count`
//! (histograms). Objects are walked member by member; arrays other than
//! span trees compare as a whole.

use crate::json::Json;
use crate::registry::{is_environment_name, is_timing_name, TIMING_SUFFIX};

/// Schema tag of the machine-readable verdict document.
pub const DIFF_SCHEMA: &str = "fexiot-obs-diff/v1";

/// How bad one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Deterministic data drifted — the run changed behaviour.
    Breaking,
    /// Wall-clock data regressed beyond tolerance — worth a look.
    Advisory,
}

/// One observed difference between the two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub severity: Severity,
    /// What kind of data drifted: `timing` for wall-clock findings, `span`
    /// inside span trees, `report` for top-level scalars, `counter`,
    /// `gauge`, `histogram` or `item` inside those maps, otherwise the
    /// top-level section name (`timeseries`, `stream`, `alloc`, …).
    pub kind: String,
    /// Dotted location, e.g. `counters.fed.sim.participants`.
    pub path: String,
    pub message: String,
}

/// Diff tuning knobs.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Fractional slowdown tolerated before a timing finding is raised
    /// (0.25 = current may be up to 25% slower than baseline).
    pub timing_tolerance: f64,
    /// `*_us` values (span `elapsed_us`, the bench p50, `_us` gauges and
    /// histogram means) below this in the baseline are never timing-flagged
    /// (sub-millisecond timings are pure noise).
    pub timing_floor_us: u64,
    /// Promote timing findings to breaking (local perf gating; CI keeps
    /// them advisory because shared runners are noisy).
    pub strict_timing: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            timing_tolerance: 0.25,
            timing_floor_us: 1000,
            strict_timing: false,
        }
    }
}

/// Findings cap — a badly divergent pair of reports should produce a
/// readable verdict, not thousands of lines.
const MAX_FINDINGS: usize = 100;

/// The diff verdict: all findings plus pass/fail.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub findings: Vec<Finding>,
    /// Findings discarded after [`MAX_FINDINGS`].
    pub truncated: usize,
}

impl DiffReport {
    fn push(&mut self, severity: Severity, kind: &str, path: &str, message: String) {
        if self.findings.len() >= MAX_FINDINGS {
            self.truncated += 1;
            return;
        }
        self.findings.push(Finding {
            severity,
            kind: kind.to_string(),
            path: path.to_string(),
            message,
        });
    }
    pub fn breaking(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Breaking)
            .count()
    }

    pub fn advisory(&self) -> usize {
        self.findings.len() - self.breaking()
    }

    /// True when nothing breaking was found (advisory findings never fail).
    pub fn passed(&self) -> bool {
        self.breaking() == 0
    }

    /// The machine-readable verdict document (`fexiot-obs-diff/v1`).
    pub fn to_json(&self, baseline: &str, current: &str) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(DIFF_SCHEMA.into())),
            ("baseline".into(), Json::Str(baseline.into())),
            ("current".into(), Json::Str(current.into())),
            (
                "verdict".into(),
                Json::Str(if self.passed() { "pass" } else { "fail" }.into()),
            ),
            ("breaking".into(), Json::UInt(self.breaking() as u64)),
            ("advisory".into(), Json::UInt(self.advisory() as u64)),
            ("truncated".into(), Json::UInt(self.truncated as u64)),
            (
                "findings".into(),
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                (
                                    "severity".into(),
                                    Json::Str(
                                        match f.severity {
                                            Severity::Breaking => "breaking",
                                            Severity::Advisory => "advisory",
                                        }
                                        .into(),
                                    ),
                                ),
                                ("kind".into(), Json::Str(f.kind.clone())),
                                ("path".into(), Json::Str(f.path.clone())),
                                ("message".into(), Json::Str(f.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable rendering, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Breaking => "BREAKING",
                Severity::Advisory => "advisory",
            };
            out.push_str(&format!("{tag:9} {:13} {}: {}\n", f.kind, f.path, f.message));
        }
        if self.truncated > 0 {
            out.push_str(&format!("… {} more findings truncated\n", self.truncated));
        }
        out.push_str(&format!(
            "verdict: {} ({} breaking, {} advisory)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.breaking(),
            self.advisory()
        ));
        out
    }
}

/// How a field name says its value is judged.
#[derive(Clone, Copy)]
enum Class {
    /// A pure function of the seeded workload: must match exactly.
    Deterministic,
    /// Wall-clock data: durations get worse upward, rates downward.
    Timing { higher_is_worse: bool },
    /// Execution-environment fact (worker-pool sizing): drift is advisory.
    Environment,
}

/// The one place a field name affects the verdict. `speedup_milli` is the
/// bench store digest's warm/cold ratio — a rate without the `_per_sec`
/// suffix, kept under its name because committed baselines carry it.
fn classify(key: &str) -> Class {
    if is_timing_name(key) || key == "speedup_milli" {
        Class::Timing {
            higher_is_worse: key.ends_with(TIMING_SUFFIX),
        }
    } else if is_environment_name(key) {
        Class::Environment
    } else {
        Class::Deterministic
    }
}

/// Compares two validated documents of the same family — two obs run
/// reports (any schema version: the tag is not compared, so an older
/// baseline diffs cleanly against a newer report) or two bench documents.
/// See the module docs for the rules.
pub fn diff_reports(baseline: &Json, current: &Json, cfg: &DiffConfig) -> DiffReport {
    let mut walk = Walk {
        cfg,
        out: DiffReport::default(),
    };
    for (key, a, b) in union(baseline, current) {
        let kind = match key {
            "schema" => continue,
            "counters" => "counter",
            "gauges" => "gauge",
            "histograms" => "histogram",
            "items" => "item",
            _ if a.or(b).is_some_and(is_scalar) => "report",
            _ => key,
        };
        let class = if key == "run" {
            Class::Environment
        } else {
            classify(key)
        };
        walk.member(kind, key, class, a, b, true);
    }
    walk.out
}

struct Walk<'c> {
    cfg: &'c DiffConfig,
    out: DiffReport,
}

impl Walk<'_> {
    /// One named value, present on at least one side.
    fn member(
        &mut self,
        kind: &str,
        path: &str,
        class: Class,
        a: Option<&Json>,
        b: Option<&Json>,
        top_level: bool,
    ) {
        let (a, b) = match (a, b) {
            (Some(a), Some(b)) => (a, b),
            (one, other) => {
                let (severity, kind) = match class {
                    Class::Timing { .. } => (self.timing_severity(), "timing"),
                    Class::Environment => (Severity::Advisory, kind),
                    Class::Deterministic if top_level && one.or(other).is_some_and(is_object) => {
                        (Severity::Advisory, kind)
                    }
                    Class::Deterministic => (Severity::Breaking, kind),
                };
                let message = match (one, other) {
                    (Some(was), _) => format!("disappeared (was {})", brief(was)),
                    (_, Some(now)) => format!("appeared (now {})", brief(now)),
                    (None, None) => unreachable!("key came from the union"),
                };
                self.out.push(severity, kind, path, message);
                return;
            }
        };
        match class {
            Class::Deterministic => self.value(kind, path, a, b),
            Class::Timing { higher_is_worse } => self.timing(path, higher_is_worse, a, b),
            Class::Environment if !same(a, b) => self.out.push(
                Severity::Advisory,
                kind,
                path,
                format!("{} -> {} (execution environment)", brief(a), brief(b)),
            ),
            Class::Environment => {}
        }
    }

    /// A deterministic value present on both sides.
    fn value(&mut self, kind: &str, path: &str, a: &Json, b: &Json) {
        match (a, b) {
            (Json::Obj(_), Json::Obj(_)) => {
                let (ta, tb) = (a.get("tracked"), b.get("tracked"));
                if ta != tb {
                    let show = |t: Option<&Json>| t.map_or("absent".into(), brief);
                    self.out.push(
                        Severity::Advisory,
                        kind,
                        &format!("{path}.tracked"),
                        format!("{} -> {}; contents not compared", show(ta), show(tb)),
                    );
                    return;
                }
                for (key, va, vb) in union(a, b) {
                    let here = format!("{path}.{key}");
                    self.member(kind, &here, classify(key), va, vb, false);
                }
            }
            (Json::Arr(na), Json::Arr(nb)) if is_span_tree(na) || is_span_tree(nb) => {
                self.spans(path, na, nb)
            }
            _ if !same(a, b) => self.out.push(
                Severity::Breaking,
                kind,
                path,
                format!("{} -> {}", brief(a), brief(b)),
            ),
            _ => {}
        }
    }

    /// Span trees: nodes are matched by index and name, then walked like
    /// any object (so `elapsed_us` is timing and `children` recurses here).
    fn spans(&mut self, path: &str, a: &[Json], b: &[Json]) {
        if a.len() != b.len() {
            let message = format!("{} spans -> {}", a.len(), b.len());
            self.out.push(Severity::Breaking, "span", path, message);
            return;
        }
        for (i, (na, nb)) in a.iter().zip(b).enumerate() {
            let (name_a, name_b) = (span_name(na), span_name(nb));
            let here = format!("{path}[{i}].{name_a}");
            if name_a != name_b {
                let message = format!("name {name_a:?} -> {name_b:?}");
                self.out.push(Severity::Breaking, "span", &here, message);
            } else {
                self.value("span", &here, na, nb);
            }
        }
    }

    /// A timing value present on both sides: only a regression past the
    /// tolerance is a finding.
    fn timing(&mut self, path: &str, higher_is_worse: bool, a: &Json, b: &Json) {
        let (Some((ta, stat)), Some((tb, _))) = (timing_summary(a), timing_summary(b)) else {
            return;
        };
        let worse_by = if higher_is_worse { tb / ta } else { ta / tb };
        let below_floor = higher_is_worse && ta < self.cfg.timing_floor_us as f64;
        if ta > 0.0 && !below_floor && worse_by > 1.0 + self.cfg.timing_tolerance {
            let message = format!(
                "{stat}{} -> {} ({:.0}% worse, tolerance {:.0}%)",
                short(ta),
                short(tb),
                (worse_by - 1.0) * 100.0,
                self.cfg.timing_tolerance * 100.0
            );
            self.out.push(self.timing_severity(), "timing", path, message);
        }
    }

    fn timing_severity(&self) -> Severity {
        if self.cfg.strict_timing {
            Severity::Breaking
        } else {
            Severity::Advisory
        }
    }
}

/// The one number a timing value is judged by: a number itself, a block
/// with percentiles its `p50`, a histogram its mean `sum / count`.
fn timing_summary(v: &Json) -> Option<(f64, &'static str)> {
    if let Some(x) = v.as_f64() {
        return Some((x, ""));
    }
    if let Some(p50) = v.get("p50").and_then(Json::as_f64) {
        return Some((p50, "p50 "));
    }
    let sum = v.get("sum").and_then(Json::as_f64)?;
    let count = v.get("count").and_then(Json::as_f64)?;
    (count > 0.0).then(|| (sum / count, "mean "))
}

/// Whole numbers verbatim, fractions to one decimal.
fn short(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.1}")
    }
}

/// Both objects' keys in sorted order, each with its value on either side
/// (`None` = absent there).
fn union<'a>(a: &'a Json, b: &'a Json) -> Vec<(&'a str, Option<&'a Json>, Option<&'a Json>)> {
    let members = |doc: &'a Json| match doc {
        Json::Obj(members) => members.as_slice(),
        _ => &[],
    };
    let mut keys: Vec<&str> = members(a)
        .iter()
        .chain(members(b))
        .map(|(k, _)| k.as_str())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter().map(|k| (k, a.get(k), b.get(k))).collect()
}

/// Exact equality, except that numbers compare by value (`2` equals `2.0`).
fn same(a: &Json, b: &Json) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

fn span_name(node: &Json) -> &str {
    node.get("name").and_then(Json::as_str).unwrap_or("?")
}

/// A span tree is a non-empty array of `{name, children, …}` nodes.
fn is_span_tree(nodes: &[Json]) -> bool {
    !nodes.is_empty()
        && nodes
            .iter()
            .all(|n| n.get("name").is_some() && n.get("children").is_some())
}

fn is_object(v: &Json) -> bool {
    matches!(v, Json::Obj(_))
}

fn is_scalar(v: &Json) -> bool {
    !matches!(v, Json::Obj(_) | Json::Arr(_))
}

/// One-line rendering for messages: scalars verbatim, containers by size.
fn brief(v: &Json) -> String {
    match v {
        Json::Arr(items) => format!("[{} items]", items.len()),
        Json::Obj(members) => format!("{{{} fields}}", members.len()),
        _ => v.to_string(),
    }
}

/// Schema tag of the per-workload benchmark document emitted by the
/// `fexiot-bench` perf harness (`crates/bench/src/perf.rs`).
pub const BENCH_SCHEMA: &str = "fexiot-bench/v1";

/// Timing percentile fields every `fexiot-bench/v1` document carries (all
/// unsigned microseconds).
pub const BENCH_TIMING_FIELDS: &[&str] = &["mean", "p50", "p90", "p99", "min", "max", "total"];

/// Validates that a JSON document is a well-formed `fexiot-bench/v1`
/// benchmark report. Returns a description of the first problem found.
pub fn validate_bench_report(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing string field 'schema'")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("unknown schema {schema:?} (expected {BENCH_SCHEMA:?})"));
    }
    for field in ["workload", "scale"] {
        doc.get(field)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field '{field}'"))?;
    }
    for field in ["reps", "seed", "threads"] {
        doc.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing integer field '{field}'"))?;
    }
    // Optional fleet-identity fields (federated workloads only): typed when
    // present, absent otherwise.
    if let Some(v) = doc.get("clients") {
        v.as_u64()
            .ok_or("'clients' must be an unsigned integer when present")?;
    }
    if let Some(v) = doc.get("topology") {
        v.as_str().ok_or("'topology' must be a string when present")?;
    }
    // Optional throughput digest (streaming workloads only): typed when
    // present, absent otherwise.
    if let Some(tp) = doc.get("throughput") {
        for field in ["events", "events_per_sec", "latency_p99_ticks"] {
            if tp.get(field).and_then(Json::as_u64).is_none() {
                return Err(format!("throughput missing integer field '{field}'"));
            }
        }
    }
    // Optional artifact-store digest (the store_warm workload only): the
    // warm-loaded payload digest and byte count are deterministic; the cold
    // populate time and derived speedup are wall-clock.
    if let Some(st) = doc.get("store") {
        st.get("digest")
            .and_then(Json::as_str)
            .ok_or("store missing string field 'digest'")?;
        for field in ["blob_bytes", "cold_us", "speedup_milli"] {
            if st.get(field).and_then(Json::as_u64).is_none() {
                return Err(format!("store missing integer field '{field}'"));
            }
        }
    }
    match doc.get("items") {
        Some(Json::Obj(members)) => {
            for (k, v) in members {
                if v.as_u64().is_none() {
                    return Err(format!("items[{k:?}] is not an unsigned integer"));
                }
            }
        }
        _ => return Err("missing object field 'items'".into()),
    }
    let alloc = doc.get("alloc").ok_or("missing object field 'alloc'")?;
    match alloc.get("tracked") {
        Some(Json::Bool(_)) => {}
        _ => return Err("alloc.tracked must be a boolean".into()),
    }
    for field in ["allocs", "bytes", "peak_live_bytes"] {
        if alloc.get(field).and_then(Json::as_u64).is_none() {
            return Err(format!("alloc missing integer field '{field}'"));
        }
    }
    let timing = doc
        .get("timing_us")
        .ok_or("missing object field 'timing_us'")?;
    for field in BENCH_TIMING_FIELDS {
        if timing.get(field).and_then(Json::as_u64).is_none() {
            return Err(format!("timing_us missing integer field '{field}'"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(counter: u64, elapsed: u64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"fexiot-obs/v1","run":"t","spans":[{{"name":"root","elapsed_us":{elapsed},"children":[]}}],"counters":{{"a.b":{counter}}},"gauges":{{}},"histograms":{{}},"dropped_spans":0}}"#
        ))
        .expect("valid report")
    }

    #[test]
    fn identical_reports_pass() {
        let d = diff_reports(&report(3, 100), &report(3, 100), &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert!(d.findings.is_empty());
    }

    #[test]
    fn counter_drift_is_breaking() {
        let d = diff_reports(&report(3, 100), &report(4, 100), &DiffConfig::default());
        assert!(!d.passed());
        assert_eq!(d.findings[0].kind, "counter");
        assert!(d.render().contains("counters.a.b"));
    }

    #[test]
    fn timing_regression_is_advisory_unless_strict() {
        let base = report(3, 10_000);
        let slow = report(3, 20_000);
        let lax = diff_reports(&base, &slow, &DiffConfig::default());
        assert!(lax.passed());
        assert_eq!(lax.advisory(), 1);
        let strict = diff_reports(
            &base,
            &slow,
            &DiffConfig {
                strict_timing: true,
                ..DiffConfig::default()
            },
        );
        assert!(!strict.passed());
    }

    #[test]
    fn sub_floor_spans_never_flag_timing() {
        let d = diff_reports(&report(3, 100), &report(3, 900), &DiffConfig::default());
        assert!(d.findings.is_empty(), "{}", d.render());
    }

    #[test]
    fn verdict_json_is_machine_readable() {
        let d = diff_reports(&report(3, 100), &report(4, 100), &DiffConfig::default());
        let doc = d.to_json("base.json", "cur.json");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(DIFF_SCHEMA));
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("fail"));
        assert_eq!(doc.get("breaking").and_then(Json::as_u64), Some(1));
    }

    /// A v2 report: same shape as [`report`] plus `timeseries`/`slo`.
    fn report_v2(counter: u64, series_values: &str, slo_failed: bool) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"fexiot-obs/v2","run":"t","spans":[{{"name":"root","elapsed_us":100,"children":[]}}],"counters":{{"a.b":{counter}}},"gauges":{{}},"histograms":{{}},"dropped_spans":0,"timeseries":{{"capacity":4096,"series":{{"fed.round.participants":{{"kind":"sample","rounds":[0,1],"values":{series_values},"dropped":0}}}}}},"slo":{{"failed":{slo_failed},"verdicts":[{{"name":"r","rule":"r: mean(m) over all rounds <= 1","metric":"m","status":"{}","value":0.5,"rounds_evaluated":2,"rounds_failed":{},"first_failed_round":null}}]}}}}"#,
            if slo_failed { "fail" } else { "pass" },
            if slo_failed { 1 } else { 0 },
        ))
        .expect("valid v2 report")
    }

    #[test]
    fn v1_baseline_diffs_cleanly_against_v2_report() {
        // The v1→v2 compatibility contract: both versions validate, and a v1
        // baseline vs a v2 report (new sections appeared) yields advisory
        // findings only — no spurious breakage from the schema bump.
        let v1 = report(3, 100);
        let v2 = report_v2(3, "[2,2]", false);
        crate::report::validate_report(&v1).expect("v1 still validates");
        crate::report::validate_report(&v2).expect("v2 validates");
        let d = diff_reports(&v1, &v2, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.advisory(), 2, "{}", d.render()); // timeseries + slo appeared
        // And symmetrically when the baseline is the v2 report.
        let d = diff_reports(&v2, &v1, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
    }

    /// A v3 report: same shape as [`report_v2`] plus a `root_cause` section.
    fn report_v3(counter: u64, top_cause: &str) -> Json {
        let mut doc = report_v2(counter, "[2,2]", true);
        if let Json::Obj(members) = &mut doc {
            members[0].1 = Json::Str("fexiot-obs/v3".into());
            members.push((
                "root_cause".into(),
                Json::parse(&format!(
                    r#"{{"rules":[{{"rule":"r","window":[0,1],"causes":[{{"cause":"{top_cause}","events":3,"ticks":9,"share":1}}]}}]}}"#
                ))
                .expect("valid section"),
            ));
        }
        doc
    }

    #[test]
    fn v2_baseline_diffs_cleanly_against_v3_report() {
        // The v2→v3 compatibility contract, matching the v1→v2 precedent: a
        // v2 baseline vs a v3 report (root_cause section appeared) yields an
        // advisory finding only, in both directions.
        let v2 = report_v2(3, "[2,2]", true);
        let v3 = report_v3(3, "straggler");
        crate::report::validate_report(&v2).expect("v2 still validates");
        crate::report::validate_report(&v3).expect("v3 validates");
        let d = diff_reports(&v2, &v3, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.advisory(), 1, "{}", d.render()); // root_cause appeared
        assert_eq!(d.findings[0].kind, "root_cause");
        let d = diff_reports(&v3, &v2, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        // Both sides carrying the section still compare exactly: a different
        // top cause is deterministic drift, hence breaking.
        let d = diff_reports(&report_v3(3, "straggler"), &report_v3(3, "agg_crash"), &DiffConfig::default());
        assert!(!d.passed(), "{}", d.render());
        assert_eq!(d.findings[0].kind, "root_cause");
        assert_eq!(d.findings[0].path, "root_cause.rules");
    }

    /// A v4 report: same shape as [`report_v2`] plus a `stream` section.
    fn report_v4(counter: u64, digest: &str, shed: u64) -> Json {
        let mut doc = report_v2(counter, "[2,2]", false);
        if let Json::Obj(members) = &mut doc {
            members[0].1 = Json::Str("fexiot-obs/v4".into());
            members.push((
                "stream".into(),
                Json::parse(&format!(
                    r#"{{"events":10,"detected":10,"vulnerable":2,"drifting":0,"shed":{shed},"stall_ticks":0,"rounds":1,"ticks":5,"detections_digest":"fnv1a:{digest}","actors":[{{"name":"maintain","capacity":32,"policy":"block","enqueued":10,"dequeued":10,"shed":0,"stall_ticks":0,"max_depth":3}}]}}"#
                ))
                .expect("valid section"),
            ));
        }
        doc
    }

    #[test]
    fn v2_baseline_diffs_cleanly_against_v4_stream_report() {
        // The pre-v4 compatibility contract: a baseline without the `stream`
        // section vs a streaming report yields an advisory finding only.
        let v2 = report_v2(3, "[2,2]", false);
        let v4 = report_v4(3, "00000000deadbeef", 0);
        crate::report::validate_report(&v4).expect("v4 validates");
        let d = diff_reports(&v2, &v4, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.advisory(), 1, "{}", d.render()); // stream appeared
        assert_eq!(d.findings[0].kind, "stream");
        let d = diff_reports(&v4, &v2, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        // Both sides carrying the section compare exactly — each finding
        // names the drifted field.
        let d = diff_reports(
            &report_v4(3, "00000000deadbeef", 0),
            &report_v4(3, "00000000cafef00d", 0),
            &DiffConfig::default(),
        );
        assert!(!d.passed(), "{}", d.render());
        assert_eq!(d.findings[0].kind, "stream");
        assert_eq!(d.findings[0].path, "stream.detections_digest", "{}", d.render());
        let d = diff_reports(
            &report_v4(3, "00000000deadbeef", 0),
            &report_v4(3, "00000000deadbeef", 4),
            &DiffConfig::default(),
        );
        assert!(!d.passed(), "{}", d.render());
        assert_eq!(d.findings[0].path, "stream.shed", "{}", d.render());
    }

    #[test]
    fn timeseries_and_slo_drift_between_v2_reports_is_breaking() {
        let base = report_v2(3, "[2,2]", false);
        let d = diff_reports(&base, &report_v2(3, "[2,2]", false), &DiffConfig::default());
        assert!(d.passed() && d.findings.is_empty(), "{}", d.render());
        // Same cumulative counters, different per-round trajectory: caught.
        let d = diff_reports(&base, &report_v2(3, "[1,3]", false), &DiffConfig::default());
        assert!(!d.passed());
        assert_eq!(d.findings[0].kind, "timeseries");
        // SLO verdict flip: caught.
        let d = diff_reports(&base, &report_v2(3, "[2,2]", true), &DiffConfig::default());
        assert!(!d.passed());
        assert!(d.findings.iter().any(|f| f.kind == "slo"), "{}", d.render());
    }

    fn report_with_gauges(gauges: &str) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"fexiot-obs/v1","run":"t","spans":[],"counters":{{}},"gauges":{gauges},"histograms":{{}},"dropped_spans":0}}"#
        ))
        .expect("valid report")
    }

    #[test]
    fn rate_gauge_appearance_and_drift_are_advisory() {
        let base = report_with_gauges("{}");
        let cur = report_with_gauges(r#"{"pipeline.featurize.sentences_per_sec":120.5}"#);
        let d = diff_reports(&base, &cur, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.advisory(), 1);

        // A >tolerance rate drop is flagged — but still advisory by default.
        let fast = report_with_gauges(r#"{"x_per_sec":1000.0}"#);
        let slow = report_with_gauges(r#"{"x_per_sec":100.0}"#);
        let d = diff_reports(&fast, &slow, &DiffConfig::default());
        assert!(d.passed());
        assert_eq!(d.findings[0].kind, "timing");
        // A rate *increase* is never a finding.
        let d = diff_reports(&slow, &fast, &DiffConfig::default());
        assert!(d.findings.is_empty(), "{}", d.render());
    }

    #[test]
    fn deterministic_gauge_drift_stays_breaking() {
        let a = report_with_gauges(r#"{"fed.sim.mean_loss":0.5}"#);
        let b = report_with_gauges(r#"{"fed.sim.mean_loss":0.75}"#);
        let d = diff_reports(&a, &b, &DiffConfig::default());
        assert!(!d.passed());
        assert_eq!(d.findings[0].kind, "gauge");
    }

    #[test]
    fn us_gauge_slowdown_is_timing_and_speedup_is_not() {
        let fast = report_with_gauges(r#"{"stream.detect_us":5000.0}"#);
        let slow = report_with_gauges(r#"{"stream.detect_us":10000.0}"#);
        let d = diff_reports(&fast, &slow, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.findings.len(), 1, "{}", d.render());
        assert_eq!(d.findings[0].kind, "timing");
        assert_eq!(d.findings[0].path, "gauges.stream.detect_us");
        let d = diff_reports(&slow, &fast, &DiffConfig::default());
        assert!(d.findings.is_empty(), "{}", d.render());
    }

    #[test]
    fn environment_gauge_drift_is_advisory() {
        let a = report_with_gauges(r#"{"par.pool.workers":1.0}"#);
        let b = report_with_gauges(r#"{"par.pool.workers":4.0}"#);
        let d = diff_reports(&a, &b, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.advisory(), 1, "{}", d.render());
        assert_eq!(d.findings[0].kind, "gauge");
        // Environment drift stays advisory under strict timing too.
        let strict = DiffConfig { strict_timing: true, ..DiffConfig::default() };
        assert!(diff_reports(&a, &b, &strict).passed());
    }

    #[test]
    fn timing_histogram_is_judged_by_its_mean() {
        let hist = |sum: u64| {
            report_with_gauges("{}").to_string().replace(
                r#""histograms":{}"#,
                &format!(r#""histograms":{{"fed.client.train_us":{{"count":2,"sum":{sum}}}}}"#),
            )
        };
        let (a, b) = (hist(4_000), hist(10_000));
        let (a, b) = (Json::parse(&a).unwrap(), Json::parse(&b).unwrap());
        let d = diff_reports(&a, &b, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.findings.len(), 1, "{}", d.render());
        assert_eq!(d.findings[0].kind, "timing");
        assert!(d.findings[0].message.starts_with("mean 2000 -> 5000"), "{}", d.render());
    }

    fn bench(seed: u64, graphs: u64, allocs: u64, tracked: bool, p50: u64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"fexiot-bench/v1","workload":"featurize","scale":"small","reps":5,"seed":{seed},"threads":1,"items":{{"graphs":{graphs}}},"alloc":{{"tracked":{tracked},"allocs":{allocs},"bytes":0,"peak_live_bytes":0}},"timing_us":{{"mean":{p50},"p50":{p50},"p90":{p50},"p99":{p50},"min":{p50},"max":{p50},"total":{p50}}}}}"#
        ))
        .expect("valid bench doc")
    }

    #[test]
    fn bench_docs_validate_and_identical_pass() {
        let doc = bench(42, 150, 0, false, 5000);
        validate_bench_report(&doc).expect("well-formed");
        let d = diff_reports(&doc, &bench(42, 150, 0, false, 5000), &DiffConfig::default());
        assert!(d.passed() && d.findings.is_empty(), "{}", d.render());
        assert!(validate_bench_report(&report(1, 1)).is_err(), "obs schema must be rejected");
    }

    #[test]
    fn bench_item_and_seed_drift_are_breaking() {
        let d = diff_reports(
            &bench(42, 150, 0, false, 5000),
            &bench(42, 151, 0, false, 5000),
            &DiffConfig::default(),
        );
        assert!(!d.passed());
        assert_eq!(d.findings[0].kind, "item");
        let d = diff_reports(
            &bench(42, 150, 0, false, 5000),
            &bench(43, 150, 0, false, 5000),
            &DiffConfig::default(),
        );
        assert!(!d.passed());
        assert_eq!(d.findings[0].kind, "report");
    }

    #[test]
    fn bench_fleet_identity_drift_is_breaking() {
        let with_fleet = |clients: u64, topology: &str| {
            let mut doc = bench(42, 150, 0, false, 5000);
            if let Json::Obj(members) = &mut doc {
                members.push(("clients".into(), Json::UInt(clients)));
                members.push(("topology".into(), Json::Str(topology.into())));
            }
            doc
        };
        let a = with_fleet(2000, "hier:2");
        validate_bench_report(&a).expect("fleet identity fields are valid");
        // Same fleet shape: clean pass.
        let d = diff_reports(&a, &with_fleet(2000, "hier:2"), &DiffConfig::default());
        assert!(d.passed() && d.findings.is_empty(), "{}", d.render());
        // Different fleet size, and fleet vs no-fleet: both breaking.
        let d = diff_reports(&a, &with_fleet(100, "hier:2"), &DiffConfig::default());
        assert!(!d.passed());
        assert_eq!(d.findings[0].path, "clients");
        let d = diff_reports(&a, &bench(42, 150, 0, false, 5000), &DiffConfig::default());
        assert!(!d.passed(), "fleet vs flat must not compare");
        // A malformed fleet field is rejected up front.
        let mut bad = bench(42, 150, 0, false, 5000);
        if let Json::Obj(members) = &mut bad {
            members.push(("clients".into(), Json::Str("many".into())));
        }
        assert!(validate_bench_report(&bad).is_err());
    }

    #[test]
    fn bench_throughput_mixes_deterministic_and_advisory_severities() {
        let with_tp = |events: u64, eps: u64, p99: u64| {
            let mut doc = bench(42, 150, 0, false, 5000);
            if let Json::Obj(members) = &mut doc {
                members.push((
                    "throughput".into(),
                    Json::Obj(vec![
                        ("events".into(), Json::UInt(events)),
                        ("events_per_sec".into(), Json::UInt(eps)),
                        ("latency_p99_ticks".into(), Json::UInt(p99)),
                    ]),
                ));
            }
            doc
        };
        let cfg = DiffConfig::default();
        let a = with_tp(240, 50_000, 1);
        validate_bench_report(&a).expect("throughput fields are valid");
        // Identical digests: clean pass.
        let d = diff_reports(&a, &with_tp(240, 50_000, 1), &cfg);
        assert!(d.passed() && d.findings.is_empty(), "{}", d.render());
        // Event count and virtual-time p99 are deterministic: breaking.
        let d = diff_reports(&a, &with_tp(239, 50_000, 1), &cfg);
        assert!(!d.passed());
        assert_eq!(d.findings[0].path, "throughput.events");
        let d = diff_reports(&a, &with_tp(240, 50_000, 9), &cfg);
        assert!(!d.passed());
        assert_eq!(d.findings[0].path, "throughput.latency_p99_ticks");
        // A sustained-rate collapse past tolerance is advisory wall-clock.
        let d = diff_reports(&a, &with_tp(240, 10_000, 1), &cfg);
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.findings[0].path, "throughput.events_per_sec");
        assert_eq!(d.findings[0].severity, Severity::Advisory);
        // One-sided presence (pre-streaming baseline): advisory only.
        let d = diff_reports(&bench(42, 150, 0, false, 5000), &a, &cfg);
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.findings[0].kind, "throughput");
        // A malformed throughput field is rejected up front.
        let mut bad = bench(42, 150, 0, false, 5000);
        if let Json::Obj(members) = &mut bad {
            members.push(("throughput".into(), Json::Obj(vec![])));
        }
        assert!(validate_bench_report(&bad).is_err());
    }

    #[test]
    fn bench_store_digest_mixes_deterministic_and_advisory_severities() {
        let with_store = |digest: &str, blob_bytes: u64, speedup_milli: u64| {
            let mut doc = bench(42, 150, 0, false, 5000);
            if let Json::Obj(members) = &mut doc {
                members.push((
                    "store".into(),
                    Json::Obj(vec![
                        ("digest".into(), Json::Str(digest.to_string())),
                        ("blob_bytes".into(), Json::UInt(blob_bytes)),
                        ("cold_us".into(), Json::UInt(90_000)),
                        ("speedup_milli".into(), Json::UInt(speedup_milli)),
                    ]),
                ));
            }
            doc
        };
        let cfg = DiffConfig::default();
        let a = with_store("fnv1a:00000000deadbeef", 40_000, 12_000);
        validate_bench_report(&a).expect("store fields are valid");
        // Identical digests: clean pass.
        let d = diff_reports(&a, &with_store("fnv1a:00000000deadbeef", 40_000, 12_000), &cfg);
        assert!(d.passed() && d.findings.is_empty(), "{}", d.render());
        // Payload digest and blob size are deterministic: breaking.
        let d = diff_reports(&a, &with_store("fnv1a:0000000000000bad", 40_000, 12_000), &cfg);
        assert!(!d.passed());
        assert_eq!(d.findings[0].path, "store.digest");
        let d = diff_reports(&a, &with_store("fnv1a:00000000deadbeef", 39_999, 12_000), &cfg);
        assert!(!d.passed());
        assert_eq!(d.findings[0].path, "store.blob_bytes");
        // A warm-speedup collapse past tolerance is advisory wall-clock; an
        // improvement is never flagged.
        let d = diff_reports(&a, &with_store("fnv1a:00000000deadbeef", 40_000, 2_000), &cfg);
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.findings[0].path, "store.speedup_milli");
        assert_eq!(d.findings[0].severity, Severity::Advisory);
        let d = diff_reports(&a, &with_store("fnv1a:00000000deadbeef", 40_000, 90_000), &cfg);
        assert!(d.findings.is_empty(), "{}", d.render());
        // One-sided presence (pre-store baseline): advisory only.
        let d = diff_reports(&bench(42, 150, 0, false, 5000), &a, &cfg);
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.findings[0].kind, "store");
        // A malformed store section is rejected up front.
        let mut bad = bench(42, 150, 0, false, 5000);
        if let Json::Obj(members) = &mut bad {
            members.push(("store".into(), Json::Obj(vec![])));
        }
        assert!(validate_bench_report(&bad).is_err());
    }

    #[test]
    fn bench_store_cold_us_regression_is_advisory() {
        let with_cold = |cold_us: u64| {
            let mut doc = bench(42, 150, 0, false, 5000);
            if let Json::Obj(members) = &mut doc {
                members.push((
                    "store".into(),
                    Json::Obj(vec![
                        ("digest".into(), Json::Str("fnv1a:00000000deadbeef".into())),
                        ("blob_bytes".into(), Json::UInt(40_000)),
                        ("cold_us".into(), Json::UInt(cold_us)),
                        ("speedup_milli".into(), Json::UInt(12_000)),
                    ]),
                ));
            }
            doc
        };
        let d = diff_reports(&with_cold(90_000), &with_cold(200_000), &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.findings.len(), 1, "{}", d.render());
        assert_eq!(d.findings[0].path, "store.cold_us");
        assert_eq!(d.findings[0].severity, Severity::Advisory);
        // A faster cold populate is never flagged.
        let d = diff_reports(&with_cold(200_000), &with_cold(90_000), &DiffConfig::default());
        assert!(d.findings.is_empty(), "{}", d.render());
    }

    #[test]
    fn bench_alloc_drift_breaking_only_when_both_tracked() {
        let cfg = DiffConfig::default();
        let d = diff_reports(&bench(42, 150, 100, true, 5000), &bench(42, 150, 101, true, 5000), &cfg);
        assert!(!d.passed());
        assert_eq!(d.findings[0].kind, "alloc");
        // Tracked vs untracked: advisory note, no breaking comparison.
        let d = diff_reports(&bench(42, 150, 100, true, 5000), &bench(42, 150, 0, false, 5000), &cfg);
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.advisory(), 1);
    }

    #[test]
    fn bench_timing_drift_advisory_unless_strict() {
        let base = bench(42, 150, 0, false, 10_000);
        let slow = bench(42, 150, 0, false, 20_000);
        let d = diff_reports(&base, &slow, &DiffConfig::default());
        assert!(d.passed());
        assert_eq!(d.advisory(), 1);
        let d = diff_reports(
            &base,
            &slow,
            &DiffConfig { strict_timing: true, ..DiffConfig::default() },
        );
        assert!(!d.passed());
    }
}
