//! The workload-independent half of the benchmark: the closed loop, the
//! end-to-end run, the traced run, percentiles and the result line.

use fexiot_obs::{Snapshot, SpanNode};
use std::collections::BTreeMap;
use std::time::Instant;

/// Input sizes. [`Size::full`] is what the benchmark measures; the smoke
/// tests use a toy size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Graphs in the generated training corpus (audit, federate, serve).
    pub graphs: usize,
    /// Audit: rounds of the home pool (see `audit::split_pool`).
    pub pool_rounds: usize,
    /// Federate: clients in the federation.
    pub clients: usize,
    /// Federate: rounds run before the quality probe.
    pub quality_rounds: usize,
    /// Serve: replay fleets in the op list.
    pub fleets: usize,
    /// Serve: homes per fleet.
    pub homes: usize,
    /// Timed set-ups per run: at least this many, and more until they add
    /// up to `setup_secs`. `setup_s` is their median.
    pub setups: usize,
    pub setup_secs: f64,
    /// Ops per timing window, rounded up to whole op-list periods.
    pub window_ops: usize,
}

impl Size {
    pub fn full() -> Self {
        Self {
            graphs: 3000,
            pool_rounds: 16,
            clients: 20,
            quality_rounds: 3,
            fleets: 160,
            homes: 32,
            setups: 3,
            setup_secs: 3.0,
            window_ops: 100,
        }
    }
}

/// Per-layer metrics of the traced run, with their units. Every traced run
/// reports all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.graphs", "count"),
    ("core.train_s", "s"),
    ("gnn.contrastive_s", "s"),
    ("gnn.trainer.pairs", "count"),
    ("fed.build_s", "s"),
    ("stream.fleet_build_s", "s"),
    ("store.put_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.bytes_read", "bytes"),
    ("core.detect_ms", "ms"),
    ("explain.search_ms", "ms"),
    ("explain.evals_per_s", "1/s"),
    ("explain.search.evals", "count"),
    ("explain.search.shap_evals", "count"),
    ("explain.search.expansions", "count"),
    ("explain.fidelity", "ratio"),
    ("explain.sparsity", "ratio"),
    ("fed.local_train_ms", "ms"),
    ("fed.receive_ms", "ms"),
    ("fed.aggregate_ms", "ms"),
    ("fed.round_bytes", "bytes"),
    ("fed.client.steps", "count"),
    ("fed.participants", "count"),
    ("fed.dropped", "count"),
    ("fed.retried_messages", "count"),
    ("fed.lost_messages", "count"),
    ("fed.backoff_ticks", "ticks"),
    ("fed.eval_s", "s"),
    ("stream.detect_share", "ratio"),
    ("stream.detect_us", "us"),
    ("stream.ticks", "ticks"),
    ("stream.stall_ticks", "ticks"),
    ("stream.shed", "count"),
    ("stream.latency_p99_ticks", "ticks"),
    ("stream.mailbox.enqueued", "count"),
    ("par.width_speedup", "ratio"),
    ("obs.overhead_ratio", "ratio"),
];

/// End-to-end metrics, with their units, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("quality", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Sums of the traced run, keyed by per-layer metric name. Switched off in
/// the end-to-end run, where [`Layers::time`] is a plain call.
#[derive(Debug, Default)]
pub struct Layers {
    on: bool,
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn off() -> Self {
        Self::default()
    }

    pub fn on() -> Self {
        Self {
            on: true,
            sums: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`; when tracing, adds its wall time to `name` (see [`Layers::add_secs`]).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.add_secs(name, started.elapsed().as_secs_f64());
        out
    }

    /// Adds a duration to `name` in the unit its suffix names: `_ms`, `_us`,
    /// else seconds.
    pub fn add_secs(&mut self, name: &'static str, secs: f64) {
        let scale = if name.ends_with("_ms") {
            1e3
        } else if name.ends_with("_us") {
            1e6
        } else {
            1.0
        };
        self.add(name, secs * scale);
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.sums.entry(name).or_default() += v;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.sums.insert(name, v);
    }

    /// Divides each of `names` by `by` (sums become per-op means).
    pub fn per(&mut self, names: &[&'static str], by: f64) {
        for name in names {
            let v = self.get(name);
            self.set(name, if by > 0.0 { v / by } else { 0.0 });
        }
    }
}

/// One workload of the benchmark: a set-up, a fixed op list that ops cycle
/// over, a warm-up that also measures quality, and the traced run's
/// per-layer bookkeeping.
pub trait Workload: Sized {
    /// Builds the seeded inputs and everything the first op needs. This is
    /// what `setup_s` times.
    fn setup(seed: u64, size: &Size, layers: &mut Layers) -> Result<Self, String>;

    /// Untimed: runs the discarded warm-up ops and returns `quality`.
    fn warm_up(&mut self, layers: &mut Layers) -> Result<f64, String>;

    /// Runs op `i` and checks its output; returns the units of work done.
    fn op(&mut self, i: usize, layers: &mut Layers) -> Result<u64, String>;

    /// Any `period` consecutive ops do the same multiset of work.
    fn period(&self) -> usize;

    /// Traced run: folds the program's counters and spans recorded by one
    /// op into `layers`.
    fn absorb_op(&mut self, snap: &Snapshot, layers: &mut Layers);

    /// Traced run: turns the sums of `ops` traced ops into per-layer metrics.
    fn finish(&mut self, layers: &mut Layers, ops: usize);
}

/// Result of one closed loop.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub latencies_ms: Vec<f64>,
    /// Units of work per op (0 for a failed op).
    pub works: Vec<u64>,
    pub secs: f64,
    pub failed: usize,
}

/// Closed loop with one caller: op `i + 1` starts when op `i` has returned.
/// Stops once `secs` have passed and at least `min_ops` ran, or at `max_ops`.
/// A failed op counts as attempted and failed; its latency is kept.
fn run_loop<W: Workload>(
    w: &mut W,
    layers: &mut Layers,
    secs: f64,
    min_ops: usize,
    max_ops: usize,
) -> LoopStats {
    let mut out = LoopStats::default();
    let started = Instant::now();
    let mut i = 0;
    while i < max_ops && (i < min_ops || started.elapsed().as_secs_f64() < secs) {
        let t = Instant::now();
        let result = w.op(i, layers);
        out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.works.push(*result.as_ref().unwrap_or(&0));
        match result {
            Ok(_) => {}
            Err(e) => {
                if out.failed < 5 {
                    eprintln!("op {i} failed: {e}");
                }
                out.failed += 1;
            }
        }
        if layers.is_on() {
            let reg = fexiot_obs::global();
            w.absorb_op(&reg.snapshot(), layers);
            reg.reset();
        }
        i += 1;
    }
    out.secs = started.elapsed().as_secs_f64();
    out
}

/// What one run prints as its last line.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result line: one JSON object. Values print in Rust's shortest
    /// round-trip form, so every measured digit is kept.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    sorted.get(nearest_rank(sorted.len(), q) - 1).copied()
}

/// [`percentile`], reported only when at least `beyond` samples lie past
/// its rank, so the tail it claims to bound is actually observed.
pub fn tail_percentile(sorted: &[f64], q: f64, beyond: usize) -> Option<f64> {
    let observed = sorted.len().saturating_sub(nearest_rank(sorted.len(), q)) >= beyond;
    percentile(sorted, q).filter(|_| observed)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Metric names are letters, digits, `_`, `.` and `-`, start with a letter
/// or digit, and are at most 64 long.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Untimed rehearsal of the set-up and three ops: brings the machine out of
/// idle and faults in the allocator before anything is timed.
fn rehearse<W: Workload>(seed: u64, size: &Size) -> Result<(), String> {
    let mut w = W::setup(seed, size, &mut Layers::off())?;
    (0..3).try_for_each(|i| w.op(i, &mut Layers::off()).map(drop))
}

/// Throughput, p50 and p90 of one timing window.
fn window_stats(latencies_ms: &[f64], works: &[u64]) -> [Option<f64>; 3] {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let secs = latencies_ms.iter().sum::<f64>() / 1e3;
    [
        Some(works.iter().sum::<u64>() as f64 / secs),
        percentile(&sorted, 0.5),
        tail_percentile(&sorted, 0.9, 10),
    ]
}

/// The end-to-end run: timed set-ups (median reported), then a timed
/// closed loop of at least `secs` seconds and one window on the last one.
/// The loop is cut into windows of whole op-list periods; throughput, p50
/// and p90 are each the median over the complete windows, so a stall that
/// spans less than half the run does not set them. No tracing.
pub fn end_to_end<W: Workload>(seed: u64, secs: f64, size: &Size) -> Result<Report, String> {
    rehearse::<W>(seed, size)?;
    let mut setups = Vec::with_capacity(size.setups);
    let mut state = None;
    while setups.len() < size.setups.max(1) || setups.iter().sum::<f64>() < size.setup_secs {
        drop(state.take());
        let started = Instant::now();
        let w = W::setup(seed, size, &mut Layers::off())?;
        setups.push(started.elapsed().as_secs_f64());
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up ran");
    let quality = w.warm_up(&mut Layers::off())?;
    let window = w.period() * size.window_ops.div_ceil(w.period());
    let run = run_loop(&mut w, &mut Layers::off(), secs, window, usize::MAX);
    drop(w);

    let windows: Vec<[Option<f64>; 3]> = run
        .latencies_ms
        .chunks_exact(window)
        .zip(run.works.chunks_exact(window))
        .map(|(lat, work)| window_stats(lat, work))
        .collect();
    let median_of = |k: usize| -> Option<f64> {
        let v: Option<Vec<f64>> = windows.iter().map(|w| w[k]).collect();
        v.map(|v| median(&v))
    };
    let p90 = median_of(2);
    eprintln!(
        "{} ops in {:.2} s, {} windows of {window} ops; p90 {}",
        run.latencies_ms.len(),
        run.secs,
        windows.len(),
        if p90.is_some() {
            "reported"
        } else {
            "not reported: fewer than 10 ops beyond it in a window"
        }
    );
    let values = [
        Some(median(&setups)),
        median_of(0),
        median_of(1),
        p90,
        Some(quality),
        peak_rss_mb(),
    ];
    let mut metrics = Vec::new();
    let mut complete = true;
    for (&(name, unit), v) in END_TO_END.iter().zip(values) {
        match v.filter(|v| v.is_finite()) {
            Some(v) => metrics.push((name, v, unit)),
            None => complete = false,
        }
    }
    Ok(Report {
        correct: complete && run.failed == 0,
        attempted: run.latencies_ms.len(),
        failed: run.failed,
        metrics,
    })
}

/// Sum of `elapsed_us` over every span named `name`, in seconds.
pub fn span_secs(snap: &Snapshot, name: &str) -> f64 {
    fn walk(nodes: &[SpanNode], name: &str) -> u64 {
        nodes
            .iter()
            .map(|n| u64::from(n.name == name) * n.elapsed_us + walk(&n.children, name))
            .sum()
    }
    walk(&snap.roots, name) as f64 / 1e6
}

pub fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

/// One untraced pass for the traced run's ratios: fresh set-up and warm-up,
/// then `max_ops` ops (or as many as `secs` allow when `max_ops` is MAX).
fn plain_pass<W: Workload>(
    seed: u64,
    size: &Size,
    secs: f64,
    min_ops: usize,
    max_ops: usize,
) -> Result<LoopStats, String> {
    let mut w = W::setup(seed, size, &mut Layers::off())?;
    w.warm_up(&mut Layers::off())?;
    Ok(run_loop(&mut w, &mut Layers::off(), secs, min_ops, max_ops))
}

/// The traced run. Pass A runs untraced at the default width for a third of
/// `secs` and fixes the op count `k`. Pass B repeats the same `k` ops with
/// the global obs registry on and every layer call timed from outside;
/// pass C repeats them untraced at width 1. Only pass B feeds per-layer
/// sums; A and C give `obs.overhead_ratio` and `par.width_speedup`.
pub fn traced<W: Workload>(seed: u64, secs: f64, size: &Size) -> Result<Report, String> {
    rehearse::<W>(seed, size)?;
    let third = secs / 3.0;
    // At least ten ops, so the ratios never rest on one or two.
    let a = plain_pass::<W>(seed, size, third, size.window_ops.min(10), usize::MAX)?;
    let k = a.latencies_ms.len();

    let reg = fexiot_obs::global();
    fexiot_obs::set_global_enabled(true);
    reg.reset();
    let mut layers = Layers::on();
    let mut w = W::setup(seed, size, &mut layers)?;
    let snap = reg.snapshot();
    layers.add("graph.graphs", counter(&snap, "graph.dataset.graphs"));
    layers.add("gnn.trainer.pairs", counter(&snap, "gnn.trainer.pairs"));
    layers.add("gnn.contrastive_s", span_secs(&snap, "train.contrastive"));
    layers.add("store.bytes_read", counter(&snap, "store.bytes_read"));
    w.warm_up(&mut layers)?;
    reg.reset();
    let b = run_loop(&mut w, &mut layers, 0.0, k, k);
    w.finish(&mut layers, k);
    drop(w);
    fexiot_obs::set_global_enabled(false);
    reg.reset();

    let width = fexiot_par::pool().threads();
    fexiot_par::set_threads(1);
    let c = plain_pass::<W>(seed, size, 0.0, k, k)?;
    fexiot_par::set_threads(width);

    layers.set("par.width_speedup", c.secs / a.secs);
    layers.set("obs.overhead_ratio", b.secs / a.secs);
    eprintln!(
        "traced run: {k} ops per pass; width {width}: {:.3} s untraced, {:.3} s traced; width 1: {:.3} s",
        a.secs, b.secs, c.secs
    );
    let failed = a.failed + b.failed + c.failed;
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name), unit))
        .collect();
    Ok(Report {
        correct: failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite()),
        attempted: 3 * k,
        failed,
        metrics,
    })
}

/// A hand-built graph of `n` identical manual-trigger rules.
#[cfg(test)]
pub fn hand_graph(n: usize, edges: Vec<(usize, usize)>) -> fexiot_graph::InteractionGraph {
    use fexiot_graph::{
        rule::dev, Command, DeviceKind, Location, Platform, Rule, RuleNode, Trigger,
    };
    let nodes = (0..n as u32)
        .map(|id| RuleNode {
            rule: Rule {
                id,
                platform: Platform::Ifttt,
                trigger: Trigger::Manual,
                actions: vec![Command {
                    device: dev(DeviceKind::Light, Location::Kitchen),
                    activate: true,
                }],
                text: String::new(),
            },
            features: vec![0.0],
        })
        .collect();
    fexiot_graph::InteractionGraph::new(nodes, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{audit::Audit, federate::Federate, serve::Serve};
    use fexiot_obs::Json;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&sorted, 0.5), Some(20.0));
        assert_eq!(percentile(&sorted, 0.9), Some(40.0));
        assert_eq!(percentile(&sorted, 0.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9, 10), Some(90.0));
        // 99 samples: rank 90 leaves only 9 beyond.
        assert_eq!(tail_percentile(&hundred[..99], 0.9, 10), None);
        assert_eq!(tail_percentile(&[], 0.9, 10), None);
        assert_eq!(tail_percentile(&[1.0], 0.5, 0), Some(1.0));
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?} accepted");
        }
        for good in ["setup_s", "fed.client.steps", "a-b", "9x", &"a".repeat(64)] {
            assert!(valid_metric_name(good), "{good:?} rejected");
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        assert!(names.iter().all(|n| valid_metric_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    /// The metric tables here and in BENCHMARK.json name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(rows)) = doc.get(key) else {
                panic!("{key} is not a list");
            };
            let listed: Vec<(&str, &str)> = rows
                .iter()
                .map(|r| {
                    let field = |f: &str| r.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, table.to_vec(), "{key}");
        }
    }

    #[test]
    fn report_renders_one_json_line() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.125, "s"), ("quality", 1.0, "ratio")],
        };
        let line = report.to_json();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("parses");
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    fn toy_size() -> Size {
        Size {
            graphs: 240,
            pool_rounds: 1,
            clients: 4,
            quality_rounds: 1,
            fleets: 2,
            homes: 4,
            setups: 1,
            setup_secs: 0.0,
            window_ops: 3,
        }
    }

    fn smoke<W: Workload>(name: &str) {
        let size = toy_size();
        let e2e = end_to_end::<W>(7, 0.0, &size).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(e2e.failed, 0, "{name}");
        assert!(e2e.attempted >= size.window_ops, "{name}");
        let quality = e2e
            .metrics
            .iter()
            .find(|m| m.0 == "quality")
            .expect("quality");
        assert!(
            (0.0..=1.0).contains(&quality.1),
            "{name}: quality {}",
            quality.1
        );
        let traced = traced::<W>(7, 0.0, &size).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(traced.failed, 0, "{name}");
        assert!(traced.correct, "{name}");
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
    }

    /// All three workloads at toy size, end to end and traced: no op fails.
    /// One test, because the traced run switches process-global state (the
    /// obs registry and the pool width).
    #[test]
    fn toy_workloads_run_without_failed_ops() {
        smoke::<Audit>("audit");
        smoke::<Federate>("federate");
        smoke::<Serve>("serve");
    }
}
