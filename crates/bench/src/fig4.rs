//! Figure 4: federated strategies (FexIoT, GCFL+, FMTL, FedAvg, Client) ×
//! two GNN encoders (GIN, GCN) under five Dirichlet concentrations α.

use crate::scale::Scale;
use fexiot::{build_federation_with_data, FederationConfig, FexIotConfig};
use fexiot_fed::Strategy;
use fexiot_gnn::EncoderKind;
use fexiot_graph::dataset::{generate_federated, FederatedData};
use fexiot_graph::DatasetConfig;
use fexiot_ml::Metrics;
use fexiot_tensor::rng::Rng;

/// One cell of the Fig. 4 grid.
#[derive(Debug, Clone)]
pub struct Fig4Cell {
    pub encoder: &'static str,
    pub strategy: &'static str,
    pub alpha: f64,
    pub metrics: Metrics,
}

/// Paper α sweep.
pub const ALPHAS: [f64; 5] = [0.1, 1.0, 2.0, 5.0, 10.0];

/// The five strategies in paper order.
pub fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::fexiot_default(),
        Strategy::gcfl_default(),
        Strategy::fmtl_default(),
        Strategy::FedAvg,
        Strategy::LocalOnly,
    ]
}

/// Shared federated data for Fig. 4: 10 clients over 4 household archetypes
/// (the paper's premise of clusterable households), Dirichlet-α label skew
/// inside each archetype.
pub fn fig4_data(scale: Scale, alpha: f64, seed: u64) -> FederatedData {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = scale.pick(320, 6000);
    if scale == Scale::Full {
        cfg.max_nodes = 50;
    }
    generate_federated(&cfg, 10, 4, alpha, &mut rng)
}

/// Runs the full grid: 2 encoders × 5 strategies × |alphas| cells.
pub fn run(scale: Scale, alphas: &[f64]) -> Vec<Fig4Cell> {
    let rounds = scale.pick(9, 24);
    let mut cells = Vec::new();
    for &alpha in alphas {
        let fed = fig4_data(scale, alpha, 40);
        for (enc_name, enc_kind) in [("GIN", EncoderKind::Gin), ("GCN", EncoderKind::Gcn)] {
            for strategy in strategies() {
                let mut pipeline = FexIotConfig::default()
                    .with_encoder(enc_kind.clone())
                    .with_seed(40);
                pipeline.contrastive.epochs = 1;
                pipeline.contrastive.pairs_per_epoch = scale.pick(96, 192);
                let config = FederationConfig {
                    n_clients: fed.clients.len(),
                    alpha,
                    strategy: strategy.clone(),
                    rounds,
                    pipeline,
                    ..Default::default()
                };
                let mut sim = build_federation_with_data(fed.clients.clone(), &config);
                sim.run();
                let per_client = sim.evaluate(&fed.test);
                cells.push(Fig4Cell {
                    encoder: enc_name,
                    strategy: strategy.name(),
                    alpha,
                    metrics: Metrics::mean(&per_client),
                });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_and_ordering() {
        let _obs = crate::obs_lock::shared();
        // One alpha to keep the test fast; the bin runs the full sweep.
        let cells = run(Scale::Small, &[1.0]);
        assert_eq!(cells.len(), 2 * 5);
        let fex = cells
            .iter()
            .find(|c| c.encoder == "GIN" && c.strategy == "FexIoT")
            .unwrap();
        let client = cells
            .iter()
            .find(|c| c.encoder == "GIN" && c.strategy == "Client")
            .unwrap();
        // The headline ordering: federated clustering beats isolated training.
        assert!(
            fex.metrics.accuracy >= client.metrics.accuracy - 0.02,
            "FexIoT {} vs Client {}",
            fex.metrics.accuracy,
            client.metrics.accuracy
        );
    }
}
