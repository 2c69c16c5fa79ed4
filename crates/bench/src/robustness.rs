//! Robustness experiment: accuracy vs fault rate. Sweeps client dropout
//! (with lossy links and corrupted updates riding along at lower rates) and
//! measures how gracefully each aggregation strategy degrades when the
//! federation becomes unreliable.

use crate::scale::Scale;
use fexiot::fed::{Corruption, Failover, FaultPlan, Sampling, Strategy, Topology};
use fexiot::{build_federation, build_federation_with_data, FederationConfig, FexIotConfig};
use fexiot_graph::{generate_dataset, DatasetConfig, GraphDataset};
use fexiot_ml::Metrics;
use fexiot_tensor::rng::Rng;

/// One cell of the sweep: a strategy trained under a given dropout rate.
#[derive(Debug, Clone)]
pub struct RobustnessPoint {
    pub strategy: &'static str,
    pub dropout: f64,
    pub accuracy: f64,
    pub f1: f64,
    pub total_mb: f64,
    /// Fraction of client-rounds that actually contributed an update.
    pub participation: f64,
    /// Total quarantined updates over the run.
    pub quarantined: usize,
    /// Simulated ticks summed over the run's per-round critical path —
    /// the fault cost the slowest client chain added to each round.
    pub critical_ticks: u64,
}

/// Dropout rates swept (per client, per round).
pub fn dropout_rates() -> Vec<f64> {
    vec![0.0, 0.1, 0.3, 0.5]
}

/// Runs the accuracy-vs-fault-rate sweep.
pub fn run(scale: Scale) -> Vec<RobustnessPoint> {
    let mut rng = Rng::seed_from_u64(77);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = scale.pick(200, 1500);
    let ds = generate_dataset(&ds_cfg, &mut rng);
    let (train, test) = ds.train_test_split(0.8, &mut rng);

    let strategies = [Strategy::FedAvg, Strategy::fexiot_default()];
    let rounds = scale.pick(5, 40);
    let n_clients = scale.pick(6, 25);

    let mut points = Vec::new();
    for strategy in strategies {
        for &dropout in &dropout_rates() {
            let mut pipeline = FexIotConfig::default().with_seed(77);
            pipeline.contrastive.epochs = 1;
            pipeline.contrastive.pairs_per_epoch = scale.pick(48, 128);
            let faults = if dropout > 0.0 {
                FaultPlan::none()
                    .with_seed(77)
                    .with_dropout(dropout)
                    .with_msg_loss(dropout * 0.3)
                    .with_corruption(dropout * 0.3, Corruption::NonFinite)
            } else {
                FaultPlan::none()
            };
            let config = FederationConfig {
                n_clients,
                alpha: 1.0,
                strategy: strategy.clone(),
                rounds,
                pipeline,
                faults,
                ..Default::default()
            };
            let _cell_span =
                fexiot_obs::span(&format!("bench.robustness[{}:{dropout}]", strategy.name()));
            let mut sim = build_federation(&train, &config);
            if fexiot_obs::global_enabled() {
                sim.attach_obs(std::sync::Arc::clone(fexiot_obs::global()));
            }
            let reports = sim.run();
            let client_rounds: usize = reports.iter().map(|r| r.faults.clients).sum();
            let contributed: usize = reports.iter().map(|r| r.faults.participants).sum();
            let quarantined: usize = reports.iter().map(|r| r.faults.quarantined).sum();
            let critical_ticks = sim.critical_path().iter().map(|e| e.total_ticks).sum();
            let mean = Metrics::mean(&sim.evaluate(&test));
            points.push(RobustnessPoint {
                strategy: strategy.name(),
                dropout,
                accuracy: mean.accuracy,
                f1: mean.f1,
                total_mb: sim.comm.total_mb(),
                participation: contributed as f64 / client_rounds.max(1) as f64,
                quarantined,
                critical_ticks,
            });
        }
    }
    points
}

/// One cell of the fleet-scale sweep: a sampled, quorum-gated, hierarchical
/// federation of `clients` clients under the given dropout rate.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    pub clients: usize,
    pub dropout: f64,
    /// Mean accuracy over a fixed 24-client probe (evaluating thousands of
    /// clients individually would dwarf the training cost being measured).
    pub accuracy: f64,
    /// Total tree traffic (client links + aggregator trunk) per round.
    pub bytes_per_round: f64,
    /// Fraction of sampled client-rounds that contributed an update.
    pub participation: f64,
    /// Rounds that failed their quorum gate and degraded to a no-op.
    pub quorum_aborts: usize,
    /// Rounds that saw at least one edge aggregator down.
    pub agg_down_rounds: usize,
}

/// Fleet sizes swept: laptop-friendly by default, paper-fleet (100 / 1000 /
/// 2000 clients) at `--full`.
pub fn fleet_sizes(scale: Scale) -> Vec<usize> {
    scale.pick(vec![40, 120], vec![100, 1000, 2000])
}

/// Runs the fleet-scale resilience sweep: every fleet size crossed with
/// every dropout rate, under per-round sampling (fixed cohort), two edge
/// aggregators with ring failover, a 50% quorum gate, and aggregator
/// crashes riding along at a third of the client dropout rate.
pub fn run_fleet(scale: Scale) -> Vec<FleetPoint> {
    let mut rng = Rng::seed_from_u64(77);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = scale.pick(120, 600);
    let ds = generate_dataset(&ds_cfg, &mut rng);
    let (train, test) = ds.train_test_split(0.8, &mut rng);
    let rounds = scale.pick(4, 15);
    let cohort = scale.pick(12, 64);

    let mut points = Vec::new();
    for &n_clients in &fleet_sizes(scale) {
        for &dropout in &dropout_rates() {
            let mut pipeline = FexIotConfig::default().with_seed(77);
            pipeline.contrastive.epochs = 1;
            pipeline.contrastive.pairs_per_epoch = scale.pick(24, 64);
            let faults = if dropout > 0.0 {
                FaultPlan::none()
                    .with_seed(77)
                    .with_dropout(dropout)
                    .with_agg_crash(dropout * 0.3, 2)
            } else {
                FaultPlan::none()
            };
            let config = FederationConfig {
                n_clients,
                alpha: 1.0,
                strategy: Strategy::FedAvg,
                rounds,
                pipeline,
                faults,
                sampling: Sampling::FixedK(cohort),
                topology: Topology::hierarchical(2, Failover::Reassign),
                quorum: 0.5,
                ..Default::default()
            };
            // Deal graphs round-robin: a Dirichlet split at fleet scale
            // would leave most clients with no data at all.
            let splits: Vec<GraphDataset> = (0..n_clients)
                .map(|i| {
                    let graphs: Vec<_> = train
                        .graphs
                        .iter()
                        .skip(i % train.len())
                        .step_by(n_clients.max(1))
                        .cloned()
                        .collect();
                    GraphDataset::new(if graphs.is_empty() {
                        vec![train.graphs[i % train.len()].clone()]
                    } else {
                        graphs
                    })
                })
                .collect();
            let _cell_span =
                fexiot_obs::span(&format!("bench.fleet[{n_clients}:{dropout}]"));
            let mut sim = build_federation_with_data(splits, &config);
            if fexiot_obs::global_enabled() {
                sim.attach_obs(std::sync::Arc::clone(fexiot_obs::global()));
            }
            let reports = sim.run();
            let sampled: usize = reports.iter().map(|r| r.faults.sampled).sum();
            let contributed: usize = reports.iter().map(|r| r.faults.participants).sum();
            let quorum_aborts = reports.iter().filter(|r| r.faults.quorum_aborted).count();
            let agg_down_rounds = reports.iter().filter(|r| r.faults.agg_down > 0).count();
            let probe: Vec<Metrics> = sim
                .clients
                .iter_mut()
                .take(24)
                .map(|c| c.evaluate(&test))
                .collect();
            points.push(FleetPoint {
                clients: n_clients,
                dropout,
                accuracy: Metrics::mean(&probe).accuracy,
                bytes_per_round: sim.comm.total_bytes() as f64 / rounds as f64,
                participation: contributed as f64 / sampled.max(1) as f64,
                quorum_aborts,
                agg_down_rounds,
            });
        }
    }
    points
}

/// Accuracy lost between the fault-free and the worst-fault runs of a
/// strategy (positive = degradation).
pub fn degradation(points: &[RobustnessPoint], strategy: &str) -> f64 {
    let of = |d: f64| {
        points
            .iter()
            .find(|p| p.strategy == strategy && (p.dropout - d).abs() < 1e-9)
            .map(|p| p.accuracy)
            .unwrap_or(0.0)
    };
    let max_dropout = dropout_rates().last().copied().unwrap_or(0.0);
    of(0.0) - of(max_dropout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_cells_and_stays_sane() {
        let _obs = crate::obs_lock::shared();
        let points = run(Scale::Small);
        assert_eq!(points.len(), 2 * dropout_rates().len());
        for p in &points {
            assert!(
                p.accuracy.is_finite() && (0.0..=1.0).contains(&p.accuracy),
                "{p:?}"
            );
            assert!((0.0..=1.0).contains(&p.participation), "{p:?}");
            if p.dropout == 0.0 {
                assert!((p.participation - 1.0).abs() < 1e-12, "{p:?}");
                assert_eq!(p.quarantined, 0, "{p:?}");
                assert_eq!(p.critical_ticks, 0, "fault-free path must be idle: {p:?}");
            } else {
                assert!(p.participation < 1.0, "faults never fired: {p:?}");
            }
        }
        // Even at 50% dropout the federation must keep learning something:
        // accuracy stays above coin-flip-ish levels rather than collapsing.
        for p in points.iter().filter(|p| p.dropout >= 0.5) {
            assert!(p.accuracy > 0.4, "collapsed under faults: {p:?}");
        }
    }

    #[test]
    fn fleet_sweep_covers_all_cells_and_stays_sane() {
        let _obs = crate::obs_lock::shared();
        let points = run_fleet(Scale::Small);
        assert_eq!(
            points.len(),
            fleet_sizes(Scale::Small).len() * dropout_rates().len()
        );
        for p in &points {
            assert!(
                p.accuracy.is_finite() && (0.0..=1.0).contains(&p.accuracy),
                "{p:?}"
            );
            assert!((0.0..=1.0).contains(&p.participation), "{p:?}");
            assert!(p.bytes_per_round > 0.0, "no traffic recorded: {p:?}");
            if p.dropout == 0.0 {
                assert!((p.participation - 1.0).abs() < 1e-12, "{p:?}");
                assert_eq!(p.quorum_aborts, 0, "{p:?}");
                assert_eq!(p.agg_down_rounds, 0, "{p:?}");
            } else {
                assert!(p.participation < 1.0, "faults never fired: {p:?}");
            }
        }
        // Deterministic: the same sweep reproduces the same cells exactly.
        let again = run_fleet(Scale::Small);
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
            assert_eq!(a.bytes_per_round.to_bits(), b.bytes_per_round.to_bits());
            assert_eq!(a.quorum_aborts, b.quorum_aborts);
        }
    }
}
