//! `serve`: a fleet service scores homes as their events arrive, the
//! `fexiot-cli serve --store` path. One replay fleet streamed per op.

use crate::harness::{counter, Layers, Size, Workload};
use fexiot::gnn::EncoderKind;
use fexiot::store::{ArtifactKind, Store};
use fexiot::{model_identity, FexIot, FexIotConfig};
use fexiot_graph::{detect_vulnerabilities, generate_dataset, DatasetConfig, InteractionGraph};
use fexiot_obs::Snapshot;
use fexiot_stream::{
    replay_fleet, run_stream, Detector, Fleet, FleetConfig, StreamConfig, StreamVerdict,
};
use fexiot_tensor::Rng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Rules per replayed home.
const HOME_SIZE: usize = 6;

/// Simulated seconds fleet `k` of `fleets` reports: evenly spread over
/// 0.5–1.5× the default hour. A fleet's event rate depends on its corpus
/// and falls into two clusters; the spread windows blend them into one
/// continuous batch-size distribution, so no percentile sits in the gap.
fn window_secs(k: u64, fleets: u64) -> u64 {
    let hour = FleetConfig::default().sim.duration;
    hour / 2 + hour * (2 * k + 1) / (2 * fleets)
}

pub struct Serve {
    model: FexIot,
    fleets: Vec<Fleet>,
    /// Per-fleet detections digest of the untimed warm-up pass; every timed
    /// pass over the same fleet must reproduce it.
    digests: Vec<u64>,
}

/// Counts what the detector adapter saw. `timed` and `truth` are fixed for
/// one batch; the counters are shared by the detection shards.
#[derive(Default)]
pub struct Probe {
    timed: bool,
    truth: bool,
    calls: AtomicU64,
    busy_ns: AtomicU64,
    agree: AtomicU64,
}

impl Probe {
    fn observe(&self, vulnerable: bool, graph: &InteractionGraph) {
        if self.timed || self.truth {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        if self.truth && vulnerable == structurally_vulnerable(graph) {
            self.agree.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `quality` of the service: share of observed verdicts that agree
    /// with the structural ground truth.
    pub fn quality(&self) -> f64 {
        self.agree.load(Ordering::Relaxed) as f64 / self.calls.load(Ordering::Relaxed).max(1) as f64
    }
}

/// Structural ground truth of a served graph.
pub fn structurally_vulnerable(graph: &InteractionGraph) -> bool {
    !detect_vulnerabilities(graph).is_empty()
}

/// The trained model behind the stream's [`Detector`] trait, as the CLI's
/// adapter does it, plus the benchmark's probe.
pub struct ModelDetector<'a> {
    pub model: &'a FexIot,
    pub probe: &'a Probe,
}

impl Detector for ModelDetector<'_> {
    fn detect(&self, graph: &InteractionGraph) -> StreamVerdict {
        let started = self.probe.timed.then(Instant::now);
        let d = self.model.detect(graph);
        if let Some(t) = started {
            self.probe
                .busy_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        self.probe.observe(d.vulnerable, graph);
        StreamVerdict {
            vulnerable: d.vulnerable,
            score: d.score,
            drifting: d.drifting,
        }
    }
}

/// Fresh store directory inside the build directory, so the benchmark
/// writes only inside its checkout.
fn store_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    base.join(format!("fexbench-store-{}", std::process::id()))
}

impl Serve {
    /// Streams fleet `f` through the default service and checks the run:
    /// nothing shed, every event detected, and (once known) the warm-up digest.
    fn stream(&self, f: usize, probe: &Probe) -> Result<fexiot_stream::StreamStats, String> {
        let fleet = &self.fleets[f];
        let detector = ModelDetector {
            model: &self.model,
            probe,
        };
        let out = run_stream(
            &fleet.graphs,
            &fleet.events,
            &detector,
            &StreamConfig::default(),
            // The global registry: off unless this is the traced run.
            fexiot_obs::global(),
            None,
        );
        let s = out.stats;
        if s.shed != 0 || s.detected != s.events {
            return Err(format!(
                "fleet {f}: {} events, {} detected, {} shed",
                s.events, s.detected, s.shed
            ));
        }
        if let Some(&want) = self.digests.get(f) {
            if s.digest != want {
                return Err(format!(
                    "fleet {f}: digest {:016x}, warm-up gave {want:016x}",
                    s.digest
                ));
            }
        }
        Ok(s)
    }
}

impl Workload for Serve {
    /// Train MAGNN on a heterogeneous corpus, register it in a fresh store,
    /// reopen the store and hot-load it by identity, then build the fleets.
    fn setup(seed: u64, size: &Size, layers: &mut Layers) -> Result<Self, String> {
        let mut cfg = DatasetConfig::small_hetero();
        cfg.graph_count = size.graphs;
        let dataset = layers.time("graph.generate_s", || {
            generate_dataset(&cfg, &mut Rng::seed_from_u64(seed))
        });
        let (train, _) = dataset.train_test_split(0.8, &mut Rng::seed_from_u64(seed ^ 0x5EED));
        let trained = layers.time("core.train_s", || {
            FexIot::train(
                &train,
                FexIotConfig::default()
                    .with_encoder(EncoderKind::Magnn)
                    .with_seed(seed),
            )
        });
        let dir = store_dir();
        let _ = std::fs::remove_dir_all(&dir);
        let id = model_identity(seed, size.graphs, EncoderKind::Magnn);
        let mut store = Store::open(&dir).map_err(|e| e.to_string())?;
        layers
            .time("store.put_ms", || {
                store.put(ArtifactKind::Model, &id, &trained.save_to_bytes())
            })
            .map_err(|e| e.to_string())?;
        drop((store, trained));
        let store = Store::open(&dir).map_err(|e| e.to_string())?;
        let model = layers.time("store.load_ms", || {
            let bytes = store
                .get(ArtifactKind::Model, &id)
                .map_err(|e| e.to_string())?;
            FexIot::load_from_bytes(&bytes).map_err(|e| e.to_string())
        })?;
        let _ = std::fs::remove_dir_all(&dir);
        let fleets = layers.time("stream.fleet_build_s", || {
            (0..size.fleets as u64)
                .map(|k| {
                    let mut cfg = FleetConfig {
                        homes: size.homes,
                        home_size: HOME_SIZE,
                        seed: seed << 16 | k,
                        ..FleetConfig::default()
                    };
                    cfg.sim.duration = window_secs(k, size.fleets as u64);
                    replay_fleet(&cfg)
                })
                .collect()
        });
        Ok(Self {
            model,
            fleets,
            digests: Vec::new(),
        })
    }

    /// One untimed pass over every fleet: records each fleet's digest and
    /// scores every served verdict against the structural ground truth.
    fn warm_up(&mut self, _layers: &mut Layers) -> Result<f64, String> {
        self.digests.clear();
        let probe = Probe {
            truth: true,
            ..Probe::default()
        };
        let mut digests = Vec::with_capacity(self.fleets.len());
        for f in 0..self.fleets.len() {
            digests.push(self.stream(f, &probe)?.digest);
        }
        self.digests = digests;
        Ok(probe.quality())
    }

    fn op(&mut self, i: usize, layers: &mut Layers) -> Result<u64, String> {
        let probe = Probe {
            timed: layers.is_on(),
            ..Probe::default()
        };
        let started = Instant::now();
        let s = self.stream(i % self.fleets.len(), &probe)?;
        if layers.is_on() {
            layers.add("stream.batch_s", started.elapsed().as_secs_f64());
            layers.add(
                "stream.detect_busy_s",
                probe.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
            );
            layers.add(
                "stream.detect_calls",
                probe.calls.load(Ordering::Relaxed) as f64,
            );
            layers.add("stream.ticks", s.ticks as f64);
            layers.add("stream.stall_ticks", s.stall_ticks as f64);
            layers.add("stream.shed", s.shed as f64);
        }
        Ok(s.events)
    }

    fn period(&self) -> usize {
        self.fleets.len()
    }

    fn absorb_op(&mut self, snap: &Snapshot, layers: &mut Layers) {
        layers.add(
            "stream.mailbox.enqueued",
            counter(snap, "stream.mailbox.enqueued"),
        );
        let p99 = snap
            .gauges
            .get("stream.detect.latency_p99_ticks")
            .copied()
            .unwrap_or(0.0);
        layers.add("stream.latency_p99_ticks", p99);
    }

    fn finish(&mut self, layers: &mut Layers, ops: usize) {
        let busy = layers.get("stream.detect_busy_s");
        let calls = layers.get("stream.detect_calls").max(1.0);
        layers.set(
            "stream.detect_share",
            busy / layers.get("stream.batch_s").max(f64::MIN_POSITIVE),
        );
        layers.set("stream.detect_us", busy * 1e6 / calls);
        layers.set("core.detect_ms", busy * 1e3 / calls);
        layers.per(
            &[
                "stream.ticks",
                "stream.stall_ticks",
                "stream.shed",
                "stream.latency_p99_ticks",
                "stream.mailbox.enqueued",
            ],
            ops as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::hand_graph;

    #[test]
    fn quality_scores_verdicts_against_structural_truth() {
        // Two rules that trigger each other form an action loop.
        let looped = hand_graph(2, vec![(0, 1), (1, 0)]);
        let single = hand_graph(1, vec![]);
        assert!(structurally_vulnerable(&looped));
        assert!(!structurally_vulnerable(&single));
        let probe = Probe {
            truth: true,
            ..Probe::default()
        };
        probe.observe(true, &looped);
        probe.observe(true, &single);
        assert_eq!(probe.quality(), 0.5);
        probe.observe(false, &single);
        probe.observe(true, &looped);
        assert_eq!(probe.quality(), 0.75);
    }
}
