//! `federate`: a platform operator trains the contrastive GNN across
//! clients under faults; one federated round per op.

use crate::harness::{counter, span_secs, Layers, Size, Workload};
use fexiot::ml::Metrics;
use fexiot::{build_federation, FederationConfig, FexIotConfig};
use fexiot_fed::{FaultPlan, FedSim, RoundReport};
use fexiot_graph::{generate_dataset, DatasetConfig, GraphDataset};
use fexiot_obs::Snapshot;
use fexiot_tensor::Rng;

pub struct Federate {
    sim: FedSim,
    held_out: GraphDataset,
    quality_rounds: usize,
}

/// The per-round checks: the round's traffic accounting holds its
/// invariants and the training loss is a number.
pub fn check_round(report: &RoundReport) -> Result<(), String> {
    if let Some(e) = &report.comm_error {
        return Err(format!("round {}: comm accounting: {e}", report.round));
    }
    if !report.mean_loss.is_finite() {
        return Err(format!("round {}: loss {}", report.round, report.mean_loss));
    }
    Ok(())
}

/// `quality` of the federation: mean per-client held-out accuracy.
pub fn mean_accuracy(per_client: &[Metrics]) -> f64 {
    Metrics::mean(per_client).accuracy
}

impl Workload for Federate {
    fn setup(seed: u64, size: &Size, layers: &mut Layers) -> Result<Self, String> {
        let mut cfg = DatasetConfig::small_ifttt();
        cfg.graph_count = size.graphs;
        let dataset = layers.time("graph.generate_s", || {
            generate_dataset(&cfg, &mut Rng::seed_from_u64(seed))
        });
        let (train, held_out) =
            dataset.train_test_split(0.8, &mut Rng::seed_from_u64(seed ^ 0xFED));
        let mut pipeline = FexIotConfig::default().with_seed(seed);
        pipeline.contrastive.epochs = 1;
        pipeline.contrastive.pairs_per_epoch = 64;
        // The fault plan of the repository's `fed_round` perf workload.
        let config = FederationConfig {
            n_clients: size.clients,
            alpha: 1.0,
            pipeline,
            faults: FaultPlan::none()
                .with_seed(seed)
                .with_dropout(0.2)
                .with_straggler(0.2)
                .with_msg_loss(0.1),
            ..Default::default()
        };
        let mut sim = layers.time("fed.build_s", || build_federation(&train, &config));
        if layers.is_on() {
            sim.attach_obs(fexiot_obs::global().clone());
        }
        Ok(Self {
            sim,
            held_out,
            quality_rounds: size.quality_rounds,
        })
    }

    /// Runs the fixed number of quality rounds, then scores every client on
    /// the held-out graphs. Timed rounds continue from there.
    fn warm_up(&mut self, layers: &mut Layers) -> Result<f64, String> {
        for _ in 0..self.quality_rounds {
            check_round(&self.sim.run_round())?;
        }
        let per_client = layers.time("fed.eval_s", || self.sim.evaluate(&self.held_out));
        Ok(mean_accuracy(&per_client))
    }

    fn op(&mut self, _i: usize, layers: &mut Layers) -> Result<u64, String> {
        let bytes_before = self.sim.comm.total_bytes();
        let report = self.sim.run_round();
        check_round(&report)?;
        if layers.is_on() {
            let t = &report.faults;
            layers.add(
                "fed.round_bytes",
                (report.cumulative_comm.total_bytes() - bytes_before) as f64,
            );
            layers.add("fed.participants", t.participants as f64);
            layers.add("fed.dropped", t.dropped as f64);
            layers.add("fed.retried_messages", t.retried_messages as f64);
            layers.add("fed.lost_messages", t.lost_messages as f64);
            layers.add("fed.backoff_ticks", t.backoff_ticks as f64);
        }
        Ok(1)
    }

    fn period(&self) -> usize {
        1
    }

    fn absorb_op(&mut self, snap: &Snapshot, layers: &mut Layers) {
        layers.add_secs(
            "fed.local_train_ms",
            span_secs(snap, "fed.client.local_train"),
        );
        layers.add_secs("fed.receive_ms", span_secs(snap, "fed.sim.receive"));
        layers.add_secs("fed.aggregate_ms", span_secs(snap, "fed.sim.aggregate"));
        layers.add("fed.client.steps", counter(snap, "gnn.trainer.pairs"));
    }

    fn finish(&mut self, layers: &mut Layers, ops: usize) {
        layers.per(
            &[
                "fed.local_train_ms",
                "fed.receive_ms",
                "fed.aggregate_ms",
                "fed.round_bytes",
                "fed.client.steps",
                "fed.participants",
                "fed.dropped",
                "fed.retried_messages",
                "fed.lost_messages",
                "fed.backoff_ticks",
            ],
            ops as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fexiot_fed::{CommStats, RoundTelemetry};

    fn metrics(accuracy: f64) -> Metrics {
        Metrics {
            accuracy,
            precision: 0.0,
            recall: 0.0,
            f1: 0.0,
        }
    }

    #[test]
    fn quality_is_mean_client_accuracy() {
        assert_eq!(
            mean_accuracy(&[metrics(0.5), metrics(1.0), metrics(0.75)]),
            0.75
        );
        assert_eq!(mean_accuracy(&[metrics(0.6)]), 0.6);
    }

    #[test]
    fn round_check_rejects_comm_errors_and_bad_loss() {
        let ok = RoundReport {
            round: 1,
            mean_loss: 0.25,
            cumulative_comm: CommStats::default(),
            faults: RoundTelemetry::default(),
            comm_error: None,
        };
        assert!(check_round(&ok).is_ok());
        let comm = RoundReport {
            comm_error: Some("retries exceed uploads".into()),
            ..ok.clone()
        };
        assert!(check_round(&comm).is_err());
        let nan = RoundReport {
            mean_loss: f64::NAN,
            ..ok
        };
        assert!(check_round(&nan).is_err());
    }
}
