//! Continuous benchmark harness: six end-to-end workloads timed with
//! wall-clock percentiles and allocation counters, exported as
//! schema-stable `fexiot-bench/v1` JSON (see `fexiot_obs::diff`).
//!
//! The split between deterministic and wall-clock fields mirrors the obs
//! report contract: `items` (counter deltas of the final timed rep) and
//! `alloc` (when tracked) must be bit-identical across same-seed runs, so
//! `obs-diff` treats their drift as breaking; `timing_us` is advisory
//! unless `--strict-timing`.

use crate::scale::Scale;
use fexiot::{build_federation, FederationConfig, FexIot, FexIotConfig};
use fexiot_explain::{explain, fexiot_config};
use fexiot_fed::FaultPlan;
use fexiot_graph::{generate_dataset, DatasetConfig};
use fexiot_obs::alloc::{self, AllocStats};
use fexiot_obs::registry::{Registry, Snapshot, SpanNode};
use fexiot_obs::Json;
use fexiot_tensor::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Workload names, in run order. `featurize` is the corpus→featurize→fuse
/// graph pipeline, `gnn_epoch` one contrastive training epoch, `fed_round`
/// one federated round under fault injection, `explain` one beam-search
/// explanation of a detection, `registry_absorb` the obs merge path that
/// folds per-client trace registries into the global one (the hot loop of a
/// traced federated round at fleet scale), `stream_ingest` the streaming
/// actor pipeline consuming one replayed fleet corpus end to end (ingest →
/// maintain → sharded detect, `fexiot-cli serve`'s engine), and
/// `store_warm` the artifact store's warm path (manifest parse +
/// hash-verified blob reads + fixed-layout matrix decode, `fexiot-cli
/// eval --store`'s warm-start engine).
pub const WORKLOADS: &[&str] = &[
    "featurize",
    "gnn_epoch",
    "fed_round",
    "explain",
    "registry_absorb",
    "stream_ingest",
    "store_warm",
];

/// Schema identifier of one line in the append-only benchmark history
/// (`results/bench/history.jsonl`).
pub const HISTORY_SCHEMA: &str = "fexiot-bench-history/v1";

/// Harness configuration. One unrecorded warmup rep always runs before the
/// `reps` timed ones.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    pub scale: Scale,
    pub reps: usize,
    pub seed: u64,
    /// Parallel execution width the workloads ran at. Part of the bench
    /// identity: `obs-diff` refuses to compare reports with different
    /// `threads` (wall-clock numbers at different widths are not comparable).
    pub threads: usize,
}

impl Default for PerfConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            reps: 5,
            seed: 42,
            threads: fexiot_par::pool().threads(),
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub workload: &'static str,
    /// Deterministic obs counters of the final timed rep (allocation
    /// attribution counters excluded — those move between builds).
    pub items: Vec<(String, u64)>,
    /// Whether the `track-alloc` feature compiled the tracking allocator in.
    pub tracked: bool,
    /// Allocation delta of the final timed rep (all zero when untracked).
    pub alloc: AllocStats,
    /// Wall-clock microseconds per timed rep, in run order.
    pub timings_us: Vec<u64>,
    /// Flamegraph-compatible collapsed stacks of the final timed rep.
    pub collapsed: String,
    /// Federation size, for federated workloads. Part of the bench identity
    /// when present: runs at different fleet sizes are never comparable.
    pub clients: Option<u64>,
    /// Aggregation topology label (`flat` or `hier:N`), for federated
    /// workloads. Also identity when present.
    pub topology: Option<String>,
    /// Sustained throughput, for streaming workloads only.
    pub throughput: Option<ThroughputStats>,
    /// Artifact-store warm-load digest, for the `store_warm` workload only.
    pub store: Option<StoreWarmStats>,
}

/// Digest of one `store_warm` run. `digest` (FNV-1a of every blob the cold
/// populate wrote, in manifest order) and `blob_bytes` are deterministic
/// data — same seed ⇒ same artifacts, at any thread width; `cold_us` and
/// the derived `speedup_milli` (cold time over warm p50, ×1000) are
/// wall-clock and get the advisory timing treatment in `obs-diff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreWarmStats {
    pub digest: u64,
    pub blob_bytes: u64,
    pub cold_us: u64,
    pub speedup_milli: u64,
}

/// Throughput digest of one streaming workload run. `events` and the
/// virtual-time `latency_p99_ticks` are deterministic data (same seed ⇒
/// same values); `events_per_sec` is derived from the wall-clock p50 and
/// gets the advisory timing treatment in `obs-diff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThroughputStats {
    /// Events consumed per rep.
    pub events: u64,
    /// Sustained events per second at the wall-clock p50 rep time.
    pub events_per_sec: u64,
    /// p99 ingest→detect latency in virtual ticks of the final rep.
    pub latency_p99_ticks: u64,
}

/// Nearest-rank percentile summary of per-rep wall-clock times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSummary {
    pub mean: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub min: u64,
    pub max: u64,
    pub total: u64,
}

/// Computes the nearest-rank percentile summary. Panics on an empty slice.
pub fn timing_summary(timings_us: &[u64]) -> TimingSummary {
    assert!(!timings_us.is_empty(), "timing_summary: no reps");
    let mut sorted = timings_us.to_vec();
    sorted.sort_unstable();
    let total: u64 = sorted.iter().sum();
    let pct = |p: f64| {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    };
    TimingSummary {
        mean: total / sorted.len() as u64,
        p50: pct(50.0),
        p90: pct(90.0),
        p99: pct(99.0),
        min: sorted[0],
        max: *sorted.last().expect("non-empty"),
        total,
    }
}

/// Counters of the final rep that are deterministic across same-seed runs:
/// everything except the tracking allocator's per-span attribution
/// (`{span}_allocs` / `{span}_bytes`), which depends on the build rather
/// than the workload inputs.
pub fn deterministic_items(snap: &Snapshot) -> Vec<(String, u64)> {
    fn walk(nodes: &[SpanNode], out: &mut std::collections::BTreeSet<String>) {
        for n in nodes {
            out.insert(n.name.clone());
            walk(&n.children, out);
        }
    }
    let mut span_names = std::collections::BTreeSet::new();
    walk(&snap.roots, &mut span_names);
    snap.counters
        .iter()
        .filter(|(name, _)| {
            let attributed = |suffix: &str| {
                name.strip_suffix(suffix)
                    .is_some_and(|base| span_names.contains(base))
            };
            !attributed("_allocs") && !attributed("_bytes")
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Runs `body` for one warmup plus `cfg.reps` timed reps against the global
/// obs registry (reset before every rep, so the final snapshot covers
/// exactly one rep). Allocation stats are sampled immediately around the
/// body so registry snapshotting is not charged to the workload.
fn run_reps(
    workload: &'static str,
    cfg: &PerfConfig,
    mut body: impl FnMut(),
) -> WorkloadReport {
    let reg = fexiot_obs::global();
    let was_enabled = reg.is_enabled();
    reg.set_enabled(true);
    let mut timings_us = Vec::with_capacity(cfg.reps);
    let mut last = (AllocStats::default(), Snapshot::default());
    for rep in 0..cfg.reps + 1 {
        reg.reset();
        let before = alloc::stats();
        let started = Instant::now();
        body();
        let elapsed = started.elapsed();
        let after = alloc::stats();
        if rep == 0 {
            continue; // warmup
        }
        timings_us.push(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        last = (after.delta_since(&before), reg.snapshot());
    }
    reg.set_enabled(was_enabled);
    let (alloc_delta, snap) = last;
    WorkloadReport {
        workload,
        items: deterministic_items(&snap),
        tracked: alloc::is_tracking(),
        alloc: alloc_delta,
        timings_us,
        collapsed: fexiot_obs::collapsed_stacks(&snap),
        clients: None,
        topology: None,
        throughput: None,
        store: None,
    }
}

fn featurize_report(cfg: &PerfConfig) -> WorkloadReport {
    let graph_count = cfg.scale.pick(60, 600);
    let seed = cfg.seed;
    run_reps("featurize", cfg, move || {
        let mut rng = Rng::seed_from_u64(seed);
        let mut ds_cfg = DatasetConfig::small_ifttt();
        ds_cfg.graph_count = graph_count;
        black_box(generate_dataset(&ds_cfg, &mut rng));
    })
}

fn gnn_epoch_report(cfg: &PerfConfig) -> WorkloadReport {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = cfg.scale.pick(60, 300);
    let ds = generate_dataset(&ds_cfg, &mut rng);
    let labels = fexiot_gnn::binary_labels(&ds);
    let feature_dim = ds.graphs[0].nodes[0].features.len();
    let train_cfg = fexiot_gnn::ContrastiveConfig {
        epochs: 1,
        pairs_per_epoch: cfg.scale.pick(48, 256),
        seed: cfg.seed,
        ..Default::default()
    };
    let seed = cfg.seed;
    let scale = cfg.scale;
    run_reps("gnn_epoch", cfg, move || {
        // A fresh encoder per rep keeps every rep's work identical.
        let mut enc_rng = Rng::seed_from_u64(seed);
        let mut encoder = fexiot_gnn::Encoder::Gin(fexiot_gnn::Gin::new(
            feature_dim,
            &[scale.pick(16, 32)],
            scale.pick(8, 16),
            &mut enc_rng,
        ));
        black_box(fexiot_gnn::train_contrastive(
            &mut encoder,
            &ds.graphs,
            &labels,
            &train_cfg,
        ));
    })
}

fn fed_round_report(cfg: &PerfConfig) -> WorkloadReport {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = cfg.scale.pick(90, 600);
    let ds = generate_dataset(&ds_cfg, &mut rng);
    let mut pipeline = FexIotConfig::default().with_seed(cfg.seed);
    pipeline.contrastive.epochs = 1;
    pipeline.contrastive.pairs_per_epoch = cfg.scale.pick(16, 64);
    let fed_cfg = FederationConfig {
        n_clients: cfg.scale.pick(5, 20),
        alpha: 1.0,
        rounds: cfg.reps + 1,
        pipeline,
        faults: FaultPlan::none()
            .with_seed(cfg.seed)
            .with_dropout(0.2)
            .with_straggler(0.2)
            .with_msg_loss(0.1),
        ..Default::default()
    };
    let n_clients = fed_cfg.n_clients;
    let topology = if fed_cfg.topology.is_hierarchical() {
        format!("hier:{}", fed_cfg.topology.aggregators)
    } else {
        "flat".to_string()
    };
    let mut sim = build_federation(&ds, &fed_cfg);
    sim.attach_obs(fexiot_obs::global().clone());
    // Reps are successive rounds of one simulation: round `r`'s work is a
    // deterministic function of (seed, r), so the final rep's counters are
    // stable for a fixed rep count.
    let mut report = run_reps("fed_round", cfg, move || {
        black_box(sim.run_round());
    });
    report.clients = Some(n_clients as u64);
    report.topology = Some(topology);
    report
}

fn explain_report(cfg: &PerfConfig) -> WorkloadReport {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = cfg.scale.pick(120, 400);
    let ds = generate_dataset(&ds_cfg, &mut rng);
    let mut fx_cfg = FexIotConfig::default().with_seed(cfg.seed);
    fx_cfg.contrastive.epochs = cfg.scale.pick(3, 8);
    let model = FexIot::train(&ds, fx_cfg);
    let target = ds
        .graphs
        .iter()
        .find(|g| g.node_count() >= 5)
        .cloned()
        .expect("dataset has a 5+ node graph");
    let search = fexiot_config(cfg.scale.pick(4, 10), 3, cfg.scale.pick(16, 48));
    run_reps("explain", cfg, move || {
        black_box(explain(model.scorer(), &target, &search));
    })
}

/// The `Registry::absorb` merge path in isolation: pre-built per-client
/// trace snapshots (span tree + counters + gauges + histograms, the shape a
/// traced federated round produces) folded into the global registry. This is
/// the per-round hot loop at fleet scale, so its cost is tracked as its own
/// workload.
fn registry_absorb_report(cfg: &PerfConfig) -> WorkloadReport {
    let children = cfg.scale.pick(64, 256);
    let snaps: Vec<Snapshot> = (0..children)
        .map(|i| {
            let reg = std::sync::Arc::new(Registry::new());
            {
                let _client = reg.span(format!("client[{i}]"));
                let _train = reg.span("fed.client.train");
                reg.counter_add("fed.client.steps", 32);
                reg.counter_add("fed.sim.participants", 1);
                reg.gauge_set("fed.client.lr", 0.05);
                reg.hist_record(
                    "fed.client.loss",
                    fexiot_obs::buckets::LOSS,
                    (i % 10) as f64 / 10.0,
                );
            }
            reg.snapshot()
        })
        .collect();
    run_reps("registry_absorb", cfg, move || {
        let reg = fexiot_obs::global();
        for snap in &snaps {
            reg.absorb(black_box(snap));
        }
        reg.counter_add("bench.absorb.children", snaps.len() as u64);
    })
}

/// The streaming detection service end to end: one replayed per-home event
/// corpus pushed through the bounded-mailbox actor pipeline (ingestor →
/// graph maintainer → detection shards over `fexiot-par`), exactly the
/// engine behind `fexiot-cli serve`. The fleet is generated once outside
/// the reps; each rep re-streams the same events against fresh graph
/// copies, so the final rep's `stream.*` counters are pure functions of
/// the seed.
fn stream_ingest_report(cfg: &PerfConfig) -> WorkloadReport {
    use fexiot_stream::{replay_fleet, run_stream, FleetConfig, RuntimeDetector, StreamConfig};
    let mut fleet_cfg = FleetConfig {
        homes: cfg.scale.pick(8, 24),
        home_size: 6,
        seed: cfg.seed,
        ..FleetConfig::default()
    };
    fleet_cfg.sim.duration *= cfg.scale.pick(2, 4) as u64;
    let fleet = replay_fleet(&fleet_cfg);
    let events = fleet.events.len() as u64;
    let stream_cfg = StreamConfig::default();
    let detector = RuntimeDetector::default();
    let mut report = run_reps("stream_ingest", cfg, move || {
        let reg = fexiot_obs::global();
        black_box(run_stream(
            &fleet.graphs,
            &fleet.events,
            &detector,
            &stream_cfg,
            reg,
            None,
        ));
    });
    // The final rep's registry state is still live after `run_reps`, so the
    // deterministic virtual-time p99 gauge can be read back directly.
    let latency_p99_ticks = fexiot_obs::global()
        .metrics_snapshot()
        .gauges
        .get("stream.detect.latency_p99_ticks")
        .copied()
        .unwrap_or(0.0) as u64;
    let p50 = timing_summary(&report.timings_us).p50;
    report.throughput = Some(ThroughputStats {
        events,
        events_per_sec: events
            .saturating_mul(1_000_000)
            .checked_div(p50)
            .unwrap_or(0),
        latency_p99_ticks,
    });
    report
}

/// The artifact store's warm path end to end: each rep opens the store
/// fresh from disk (manifest parse + schema check), then warm-loads the
/// dataset and the trained model through hash-verified blob reads and the
/// fixed-layout matrix codec — exactly what `fexiot-cli eval --store` does
/// on a warm run. The store is populated once, cold, outside the reps; the
/// cold wall-clock is kept as the advisory baseline for the warm speedup.
fn store_warm_report(cfg: &PerfConfig) -> WorkloadReport {
    use fexiot::store::Store;
    let train_graphs = cfg.scale.pick(60, 300);
    let dir = std::env::temp_dir().join(format!(
        "fexiot-bench-store-{}-{}",
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cold_started = Instant::now();
    let mut store = Store::open(&dir).expect("bench store dir");
    let cold = fexiot::warm::load_or_train_model(
        Some(&mut store),
        cfg.seed,
        train_graphs,
        fexiot_gnn::EncoderKind::Gin,
    );
    assert!(!cold.warm, "fresh store must populate cold");
    let cold_us = u64::try_from(cold_started.elapsed().as_micros()).unwrap_or(u64::MAX);
    // Digest every blob the cold populate wrote, in manifest (key) order:
    // deterministic data at any seed-matched rerun, any thread width.
    let mut blob_bytes = 0u64;
    let mut all = Vec::new();
    for entry in store.list() {
        blob_bytes += entry.len;
        let blob = dir.join("blobs").join(format!("{:016x}.bin", entry.blob));
        all.extend_from_slice(&std::fs::read(&blob).expect("cold-written blob"));
    }
    let digest = fexiot_tensor::codec::fnv1a(&all);
    drop(store);
    let seed = cfg.seed;
    let rep_dir = dir.clone();
    let mut report = run_reps("store_warm", cfg, move || {
        let mut store = Store::open(&rep_dir).expect("bench store dir");
        let ds = fexiot::warm::load_or_generate_dataset(
            Some(&mut store),
            seed,
            train_graphs,
            false,
        );
        assert!(ds.warm, "populated store must warm-load the dataset");
        black_box(ds.value);
        let model = fexiot::warm::load_or_train_model(
            Some(&mut store),
            seed,
            train_graphs,
            fexiot_gnn::EncoderKind::Gin,
        );
        assert!(model.warm, "populated store must warm-load the model");
        black_box(model.value);
    });
    let _ = std::fs::remove_dir_all(&dir);
    let p50 = timing_summary(&report.timings_us).p50;
    report.store = Some(StoreWarmStats {
        digest,
        blob_bytes,
        cold_us,
        speedup_milli: cold_us.saturating_mul(1000).checked_div(p50).unwrap_or(0),
    });
    report
}

/// Runs one named workload; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &PerfConfig) -> Option<WorkloadReport> {
    match name {
        "featurize" => Some(featurize_report(cfg)),
        "gnn_epoch" => Some(gnn_epoch_report(cfg)),
        "fed_round" => Some(fed_round_report(cfg)),
        "explain" => Some(explain_report(cfg)),
        "registry_absorb" => Some(registry_absorb_report(cfg)),
        "stream_ingest" => Some(stream_ingest_report(cfg)),
        "store_warm" => Some(store_warm_report(cfg)),
        _ => None,
    }
}

/// Runs every workload in [`WORKLOADS`] order.
pub fn run_all(cfg: &PerfConfig) -> Vec<WorkloadReport> {
    WORKLOADS
        .iter()
        .map(|w| run_workload(w, cfg).expect("known workload"))
        .collect()
}

/// Renders one workload as a `fexiot-bench/v1` document (validated by
/// `fexiot_obs::diff::validate_bench_report`).
pub fn to_json(report: &WorkloadReport, cfg: &PerfConfig) -> Json {
    let t = timing_summary(&report.timings_us);
    let obj = |pairs: Vec<(&str, Json)>| {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let mut fields = vec![
        ("schema", Json::Str(fexiot_obs::diff::BENCH_SCHEMA.to_string())),
        ("workload", Json::Str(report.workload.to_string())),
        ("scale", Json::Str(cfg.scale.name().to_string())),
        ("reps", Json::UInt(cfg.reps as u64)),
        ("seed", Json::UInt(cfg.seed)),
        ("threads", Json::UInt(cfg.threads as u64)),
    ];
    // Federated workloads carry their fleet shape as extra identity fields
    // (`obs-diff` refuses to compare across different shapes).
    if let Some(clients) = report.clients {
        fields.push(("clients", Json::UInt(clients)));
    }
    if let Some(topology) = &report.topology {
        fields.push(("topology", Json::Str(topology.clone())));
    }
    // Streaming workloads carry a throughput digest: deterministic event
    // count and virtual-time p99 latency, plus the wall-clock-derived
    // sustained rate (advisory in `obs-diff`, like `timing_us`).
    if let Some(tp) = &report.throughput {
        fields.push((
            "throughput",
            obj(vec![
                ("events", Json::UInt(tp.events)),
                ("events_per_sec", Json::UInt(tp.events_per_sec)),
                ("latency_p99_ticks", Json::UInt(tp.latency_p99_ticks)),
            ]),
        ));
    }
    // The store_warm workload carries its warm-load digest: deterministic
    // blob digest + size, plus the wall-clock-derived cold time and warm
    // speedup (advisory in `obs-diff`, like `timing_us`).
    if let Some(s) = &report.store {
        fields.push((
            "store",
            obj(vec![
                ("digest", Json::Str(format!("fnv1a:{:016x}", s.digest))),
                ("blob_bytes", Json::UInt(s.blob_bytes)),
                ("cold_us", Json::UInt(s.cold_us)),
                ("speedup_milli", Json::UInt(s.speedup_milli)),
            ]),
        ));
    }
    fields.extend([
        (
            "items",
            Json::Obj(
                report
                    .items
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                    .collect(),
            ),
        ),
        (
            "alloc",
            obj(vec![
                ("tracked", Json::Bool(report.tracked)),
                ("allocs", Json::UInt(report.alloc.allocs)),
                ("bytes", Json::UInt(report.alloc.bytes)),
                ("peak_live_bytes", Json::UInt(report.alloc.peak_live_bytes)),
            ]),
        ),
        (
            "timing_us",
            obj(vec![
                ("mean", Json::UInt(t.mean)),
                ("p50", Json::UInt(t.p50)),
                ("p90", Json::UInt(t.p90)),
                ("p99", Json::UInt(t.p99)),
                ("min", Json::UInt(t.min)),
                ("max", Json::UInt(t.max)),
                ("total", Json::UInt(t.total)),
            ]),
        ),
    ]);
    obj(fields)
}

/// Renders one append-only history line (`fexiot-bench-history/v1`): the run
/// identity plus a p50/p90/total timing digest per workload. `unix_ts` is
/// supplied by the caller so the renderer itself stays deterministic.
pub fn history_line(reports: &[WorkloadReport], cfg: &PerfConfig, unix_ts: u64) -> String {
    let workloads = reports
        .iter()
        .map(|r| {
            let t = timing_summary(&r.timings_us);
            let mut digest = vec![
                ("p50_us".into(), Json::UInt(t.p50)),
                ("p90_us".into(), Json::UInt(t.p90)),
                ("total_us".into(), Json::UInt(t.total)),
            ];
            if let Some(tp) = &r.throughput {
                digest.push(("events_per_sec".into(), Json::UInt(tp.events_per_sec)));
            }
            if let Some(s) = &r.store {
                digest.push(("speedup_milli".into(), Json::UInt(s.speedup_milli)));
            }
            (r.workload.to_string(), Json::Obj(digest))
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str(HISTORY_SCHEMA.to_string())),
        ("unix_ts".into(), Json::UInt(unix_ts)),
        ("scale".into(), Json::Str(cfg.scale.name().to_string())),
        ("reps".into(), Json::UInt(cfg.reps as u64)),
        ("seed".into(), Json::UInt(cfg.seed)),
        ("threads".into(), Json::UInt(cfg.threads as u64)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
    .to_string()
}

/// Keeps only the newest `cap` non-empty lines of the append-only JSONL
/// history. `cap == 0` means keep-all (the default when `--history-cap` is
/// not given). Blank lines are dropped either way; the result always ends
/// with a newline per surviving line, so re-capping is idempotent.
pub fn cap_history_lines(text: &str, cap: usize) -> String {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let keep = if cap == 0 { lines.len() } else { cap.min(lines.len()) };
    lines[lines.len() - keep..]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Renders a per-workload p50 trend summary of an append-only history file:
/// one row per workload with the first and newest p50 and their delta
/// (absolute and percent). Workloads appear in first-seen order, so a
/// history written by this harness lists them in [`WORKLOADS`] order.
pub fn history_summary(text: &str) -> Result<String, String> {
    let mut series: Vec<(String, Vec<u64>)> = Vec::new();
    let mut runs = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("history line {}: {e:?}", i + 1))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != HISTORY_SCHEMA {
            return Err(format!(
                "history line {}: schema {schema:?} is not {HISTORY_SCHEMA:?}",
                i + 1
            ));
        }
        let Some(Json::Obj(workloads)) = doc.get("workloads") else {
            return Err(format!("history line {}: missing workloads section", i + 1));
        };
        runs += 1;
        for (name, digest) in workloads {
            let p50 = digest.get("p50_us").and_then(Json::as_u64).ok_or_else(|| {
                format!("history line {}: workload {name:?} has no p50_us", i + 1)
            })?;
            match series.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => v.push(p50),
                None => series.push((name.clone(), vec![p50])),
            }
        }
    }
    if runs == 0 {
        return Err("history is empty".to_string());
    }
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{HISTORY_SCHEMA} · {runs} run(s)");
    let _ = writeln!(
        out,
        "{:<18} {:>5} {:>12} {:>11} {:>9} {:>9}",
        "workload", "runs", "p50_first_us", "p50_last_us", "delta_us", "delta_pct"
    );
    for (name, p50s) in &series {
        let first = p50s[0];
        let last = *p50s.last().expect("non-empty series");
        let delta = last as i64 - first as i64;
        let pct = if first == 0 {
            "n/a".to_string()
        } else {
            format!("{:+.1}%", delta as f64 / first as f64 * 100.0)
        };
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:>12} {:>11} {:>+9} {:>9}",
            name,
            p50s.len(),
            first,
            last,
            delta,
            pct
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fexiot_obs::diff::validate_bench_report;

    #[test]
    fn timing_summary_uses_nearest_rank() {
        let t = timing_summary(&[40, 10, 30, 20]);
        assert_eq!(t.p50, 20);
        assert_eq!(t.p90, 40);
        assert_eq!(t.p99, 40);
        assert_eq!(t.min, 10);
        assert_eq!(t.max, 40);
        assert_eq!(t.mean, 25);
        assert_eq!(t.total, 100);
        let single = timing_summary(&[7]);
        assert_eq!(single.p50, 7);
        assert_eq!(single.p99, 7);
    }

    #[test]
    fn to_json_produces_a_valid_bench_document() {
        let report = WorkloadReport {
            workload: "featurize",
            items: vec![("graph.corpus.rules".to_string(), 320)],
            tracked: false,
            alloc: AllocStats::default(),
            timings_us: vec![120, 100, 140],
            collapsed: String::new(),
            clients: None,
            topology: None,
            throughput: None,
            store: None,
        };
        let cfg = PerfConfig::default();
        let doc = to_json(&report, &cfg);
        validate_bench_report(&doc).expect("valid bench document");
        assert!(doc.get("clients").is_none(), "no fleet identity unless set");

        let fleet = WorkloadReport {
            clients: Some(2000),
            topology: Some("hier:2".to_string()),
            ..report
        };
        let doc = to_json(&fleet, &cfg);
        validate_bench_report(&doc).expect("valid fleet bench document");
        assert_eq!(doc.get("clients").and_then(Json::as_u64), Some(2000));
        assert_eq!(
            doc.get("topology").and_then(Json::as_str),
            Some("hier:2")
        );
        // Round-trips through the parser unchanged.
        let parsed = Json::parse(&doc.to_string()).expect("parse own output");
        validate_bench_report(&parsed).expect("valid after round-trip");
        assert_eq!(
            parsed.get("items").and_then(|i| i.get("graph.corpus.rules")).and_then(Json::as_u64),
            Some(320)
        );
    }

    #[test]
    fn registry_absorb_workload_is_deterministic_and_fast_to_rerun() {
        // `run_reps` owns the global registry for the whole test.
        let _obs = crate::obs_lock::exclusive();
        let cfg = PerfConfig {
            reps: 2,
            ..PerfConfig::default()
        };
        let a = registry_absorb_report(&cfg);
        let b = registry_absorb_report(&cfg);
        assert_eq!(a.items, b.items, "absorb counters are deterministic");
        let children = cfg.scale.pick(64, 256) as u64;
        let item = |name: &str| {
            a.items
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("item {name}"))
        };
        assert_eq!(item("bench.absorb.children"), children);
        assert_eq!(item("fed.sim.participants"), children);
        assert_eq!(item("fed.client.steps"), children * 32);
        let doc = to_json(&a, &cfg);
        validate_bench_report(&doc).expect("valid bench document");
    }

    #[test]
    fn stream_ingest_workload_is_deterministic_with_throughput_digest() {
        // `run_reps` owns the global registry for the whole test.
        let _obs = crate::obs_lock::exclusive();
        let cfg = PerfConfig {
            reps: 2,
            ..PerfConfig::default()
        };
        let a = stream_ingest_report(&cfg);
        let b = stream_ingest_report(&cfg);
        assert_eq!(a.items, b.items, "stream counters are deterministic");
        let item = |name: &str| {
            a.items
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("item {name}"))
        };
        let tp = a.throughput.expect("streaming workload carries throughput");
        assert!(tp.events > 0);
        assert_eq!(item("stream.ingest.events"), tp.events);
        assert_eq!(item("stream.detect.events"), tp.events, "block policy sheds nothing");
        assert_eq!(
            a.throughput.map(|t| (t.events, t.latency_p99_ticks)),
            b.throughput.map(|t| (t.events, t.latency_p99_ticks)),
            "deterministic throughput fields agree across runs"
        );
        let doc = to_json(&a, &cfg);
        validate_bench_report(&doc).expect("valid bench document");
        assert_eq!(
            doc.get("throughput").and_then(|t| t.get("events")).and_then(Json::as_u64),
            Some(tp.events)
        );
        // The history digest carries the sustained rate for trend greps.
        let line = history_line(std::slice::from_ref(&a), &cfg, 1);
        let parsed = Json::parse(&line).expect("parses");
        let eps = parsed
            .get("workloads")
            .and_then(|w| w.get("stream_ingest"))
            .and_then(|d| d.get("events_per_sec"))
            .and_then(Json::as_u64)
            .expect("events_per_sec in history digest");
        assert_eq!(eps, tp.events_per_sec);
    }

    #[test]
    fn store_warm_workload_is_deterministic_with_store_digest() {
        // `run_reps` owns the global registry for the whole test.
        let _obs = crate::obs_lock::exclusive();
        let cfg = PerfConfig {
            reps: 2,
            ..PerfConfig::default()
        };
        let a = store_warm_report(&cfg);
        let b = store_warm_report(&cfg);
        assert_eq!(a.items, b.items, "warm-load counters are deterministic");
        let item = |name: &str| {
            a.items
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("item {name}"))
        };
        // Each rep warm-loads two artifacts (dataset + model) and never
        // misses; the bytes read match the manifest's recorded sizes.
        assert_eq!(item("store.hits"), 2);
        assert!(a.items.iter().all(|(k, _)| k != "store.misses"));
        assert!(a.items.iter().all(|(k, _)| k != "store.corrupt"));
        let s = a.store.expect("store_warm carries a store digest");
        assert_eq!(item("store.bytes_read"), s.blob_bytes);
        assert_eq!(
            a.store.map(|s| (s.digest, s.blob_bytes)),
            b.store.map(|s| (s.digest, s.blob_bytes)),
            "deterministic store fields agree across runs"
        );
        let doc = to_json(&a, &cfg);
        validate_bench_report(&doc).expect("valid bench document");
        assert_eq!(
            doc.get("store").and_then(|s| s.get("blob_bytes")).and_then(Json::as_u64),
            Some(s.blob_bytes)
        );
        // The history digest carries the warm speedup for trend greps.
        let line = history_line(std::slice::from_ref(&a), &cfg, 1);
        let parsed = Json::parse(&line).expect("parses");
        let speedup = parsed
            .get("workloads")
            .and_then(|w| w.get("store_warm"))
            .and_then(|d| d.get("speedup_milli"))
            .and_then(Json::as_u64)
            .expect("speedup_milli in history digest");
        assert_eq!(speedup, s.speedup_milli);
    }

    #[test]
    fn history_line_is_one_parseable_json_record() {
        let report = WorkloadReport {
            workload: "featurize",
            items: vec![],
            tracked: false,
            alloc: AllocStats::default(),
            timings_us: vec![120, 100, 140],
            collapsed: String::new(),
            clients: None,
            topology: None,
            throughput: None,
            store: None,
        };
        let cfg = PerfConfig::default();
        let line = history_line(std::slice::from_ref(&report), &cfg, 1754000000);
        assert!(!line.contains('\n'), "JSONL: one line per run");
        let doc = Json::parse(&line).expect("parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(HISTORY_SCHEMA));
        assert_eq!(doc.get("unix_ts").and_then(Json::as_u64), Some(1754000000));
        let digest = doc
            .get("workloads")
            .and_then(|w| w.get("featurize"))
            .expect("workload digest");
        assert_eq!(digest.get("p50_us").and_then(Json::as_u64), Some(120));
        assert_eq!(digest.get("p90_us").and_then(Json::as_u64), Some(140));
        assert_eq!(digest.get("total_us").and_then(Json::as_u64), Some(360));
    }

    fn digest_report(workload: &'static str, p50_us: u64) -> WorkloadReport {
        WorkloadReport {
            workload,
            items: vec![],
            tracked: false,
            alloc: AllocStats::default(),
            timings_us: vec![p50_us],
            collapsed: String::new(),
            clients: None,
            topology: None,
            throughput: None,
            store: None,
        }
    }

    #[test]
    fn history_cap_keeps_newest_lines_and_drops_blanks() {
        let text = "a\n\nb\nc\n";
        assert_eq!(cap_history_lines(text, 0), "a\nb\nc\n", "0 = keep-all");
        assert_eq!(cap_history_lines(text, 2), "b\nc\n");
        assert_eq!(cap_history_lines(text, 9), "a\nb\nc\n");
        // Idempotent: capping an already-capped history is a no-op.
        assert_eq!(cap_history_lines(&cap_history_lines(text, 2), 2), "b\nc\n");
        assert_eq!(cap_history_lines("", 3), "");
    }

    #[test]
    fn history_summary_reports_per_workload_p50_trend() {
        let cfg = PerfConfig::default();
        let l1 = history_line(
            &[digest_report("featurize", 100), digest_report("fed_round", 50)],
            &cfg,
            1,
        );
        let l2 = history_line(
            &[digest_report("featurize", 80), digest_report("fed_round", 60)],
            &cfg,
            2,
        );
        let text = format!("{l1}\n{l2}\n");
        let summary = history_summary(&text).expect("summary renders");
        assert!(summary.contains("2 run(s)"), "{summary}");
        let featurize = summary
            .lines()
            .find(|l| l.starts_with("featurize"))
            .expect("featurize row");
        for field in ["2", "100", "80", "-20", "-20.0%"] {
            assert!(featurize.contains(field), "{featurize:?} missing {field}");
        }
        let fed = summary
            .lines()
            .find(|l| l.starts_with("fed_round"))
            .expect("fed_round row");
        for field in ["50", "60", "+10", "+20.0%"] {
            assert!(fed.contains(field), "{fed:?} missing {field}");
        }
    }

    #[test]
    fn history_summary_rejects_empty_or_foreign_input() {
        assert!(history_summary("").is_err());
        assert!(history_summary("\n\n").is_err());
        assert!(history_summary("not json\n").is_err());
        assert!(history_summary("{\"schema\":\"other/v1\"}\n").is_err());
    }

    #[test]
    fn deterministic_items_drop_alloc_attribution_counters() {
        let mut snap = Snapshot {
            roots: vec![SpanNode {
                name: "pipeline.featurize".to_string(),
                elapsed_us: 10,
                children: Vec::new(),
            }],
            ..Default::default()
        };
        snap.counters.insert("pipeline.featurize_allocs".to_string(), 5);
        snap.counters.insert("pipeline.featurize_bytes".to_string(), 640);
        // A `_bytes` counter that is NOT span attribution survives.
        snap.counters.insert("fed.comm.uploaded_bytes".to_string(), 9);
        snap.counters.insert("graph.corpus.rules".to_string(), 40);
        let items = deterministic_items(&snap);
        assert_eq!(
            items,
            vec![
                ("fed.comm.uploaded_bytes".to_string(), 9),
                ("graph.corpus.rules".to_string(), 40),
            ]
        );
    }
}
