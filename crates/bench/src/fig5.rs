//! Figure 5: scalability — per-client test-accuracy box plots as the number
//! of participating clients grows (paper: 25/50/75/100), on the homogeneous
//! IFTTT dataset (GIN) and the heterogeneous five-platform dataset (MAGNN).

use crate::scale::Scale;
use fexiot::{build_federation, FederationConfig, FexIotConfig};
use fexiot_fed::Strategy;
use fexiot_gnn::EncoderKind;
use fexiot_graph::{generate_dataset, DatasetConfig};
use fexiot_tensor::rng::Rng;
use fexiot_tensor::stats::BoxSummary;

/// One box of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Box {
    pub dataset: &'static str,
    pub clients: usize,
    pub summary: BoxSummary,
}

/// Client counts per scale.
pub fn client_counts(scale: Scale) -> Vec<usize> {
    scale.pick(vec![5, 10, 15, 20], vec![25, 50, 75, 100])
}

/// Runs both datasets over the client sweep (α = 1 as in the paper).
pub fn run(scale: Scale) -> Vec<Fig5Box> {
    let mut out = Vec::new();
    for (name, encoder, mut ds_cfg) in [
        ("IFTTT", EncoderKind::Gin, DatasetConfig::small_ifttt()),
        (
            "Heterogeneous",
            EncoderKind::Magnn,
            DatasetConfig::small_hetero(),
        ),
    ] {
        ds_cfg.graph_count = scale.pick(300, 4000);
        let mut rng = Rng::seed_from_u64(50);
        let ds = generate_dataset(&ds_cfg, &mut rng);
        let (train, test) = ds.train_test_split(0.8, &mut rng);
        for &clients in &client_counts(scale) {
            let mut pipeline = FexIotConfig::default()
                .with_encoder(encoder.clone())
                .with_seed(50);
            pipeline.contrastive.epochs = 1;
            pipeline.contrastive.pairs_per_epoch = scale.pick(48, 128);
            let config = FederationConfig {
                n_clients: clients,
                alpha: 1.0,
                strategy: Strategy::fexiot_default(),
                rounds: scale.pick(3, 10),
                pipeline,
                ..Default::default()
            };
            let mut sim = build_federation(&train, &config);
            sim.run();
            let accs: Vec<f64> = sim.evaluate(&test).iter().map(|m| m.accuracy).collect();
            out.push(Fig5Box {
                dataset: name,
                clients,
                summary: BoxSummary::from_samples(&accs),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxes_cover_both_datasets() {
        let _obs = crate::obs_lock::shared();
        // Abbreviated run: smallest client count only, via a custom sweep.
        let mut rng = Rng::seed_from_u64(51);
        let mut ds_cfg = DatasetConfig::small_ifttt();
        ds_cfg.graph_count = 80;
        let ds = generate_dataset(&ds_cfg, &mut rng);
        let (train, test) = ds.train_test_split(0.8, &mut rng);
        let mut pipeline = FexIotConfig::default().with_seed(51);
        pipeline.contrastive.epochs = 1;
        pipeline.contrastive.pairs_per_epoch = 12;
        let config = FederationConfig {
            n_clients: 4,
            alpha: 1.0,
            strategy: Strategy::fexiot_default(),
            rounds: 2,
            pipeline,
            ..Default::default()
        };
        let mut sim = build_federation(&train, &config);
        sim.run();
        let accs: Vec<f64> = sim.evaluate(&test).iter().map(|m| m.accuracy).collect();
        let b = BoxSummary::from_samples(&accs);
        assert!(b.min <= b.median && b.median <= b.max);
    }
}
