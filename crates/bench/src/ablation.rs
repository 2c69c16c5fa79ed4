//! Ablations for the design choices DESIGN.md calls out:
//!
//! * layer-wise recursive clustering (FexIoT) vs whole-model clustering
//!   (GCFL+-style) vs no clustering (FedAvg);
//! * contrastive representation + linear head vs the same encoder trained
//!   with a plain supervised objective (approximated by a short contrastive
//!   run — the representation-quality knob);
//! * explanation beam width and N_min sensitivity.

use crate::scale::Scale;
use fexiot::{build_federation, FederationConfig, FexIot, FexIotConfig};
use fexiot_explain::{explain, quality, RewardKind, SearchConfig};
use fexiot_fed::Strategy;
use fexiot_graph::{generate_dataset, DatasetConfig};
use fexiot_ml::Metrics;
use fexiot_tensor::rng::Rng;

/// Result of the aggregation ablation.
#[derive(Debug, Clone)]
pub struct AggregationAblation {
    pub strategy: &'static str,
    pub accuracy: f64,
    pub comm_mb: f64,
}

/// Layer-wise vs whole-model clustering vs FedAvg, same data and budget.
pub fn aggregation_ablation(scale: Scale) -> Vec<AggregationAblation> {
    let mut rng = Rng::seed_from_u64(130);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = scale.pick(220, 3000);
    let ds = generate_dataset(&ds_cfg, &mut rng);
    let (train, test) = ds.train_test_split(0.8, &mut rng);

    let variants: [(&'static str, Strategy, bool); 4] = [
        ("FexIoT", Strategy::fexiot_default(), true),
        ("FexIoT (no cadence)", Strategy::fexiot_default(), false),
        ("GCFL+", Strategy::gcfl_default(), true),
        ("FedAvg", Strategy::FedAvg, true),
    ];
    variants
        .into_iter()
        .map(|(name, strategy, layer_cadence)| {
            let mut pipeline = FexIotConfig::default().with_seed(130);
            pipeline.contrastive.epochs = 1;
            pipeline.contrastive.pairs_per_epoch = scale.pick(48, 128);
            let config = FederationConfig {
                n_clients: 8,
                alpha: 0.5,
                strategy,
                rounds: scale.pick(4, 12),
                pipeline,
                layer_cadence,
                ..Default::default()
            };
            let mut sim = build_federation(&train, &config);
            sim.run();
            let m = Metrics::mean(&sim.evaluate(&test));
            AggregationAblation {
                strategy: name,
                accuracy: m.accuracy,
                comm_mb: sim.comm.total_mb(),
            }
        })
        .collect()
}

/// Representation-quality ablation: detection accuracy as a function of the
/// contrastive training budget (0 epochs = random features + linear head).
pub fn contrastive_ablation(scale: Scale) -> Vec<(usize, f64)> {
    let mut rng = Rng::seed_from_u64(131);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = scale.pick(240, 2000);
    let ds = generate_dataset(&ds_cfg, &mut rng);
    let (train, test) = ds.train_test_split(0.8, &mut rng);

    scale
        .pick(vec![0, 5, 25], vec![0, 5, 10, 25, 40])
        .into_iter()
        .map(|epochs| {
            let mut cfg = FexIotConfig::default().with_seed(131);
            cfg.contrastive.epochs = epochs;
            let model = FexIot::train(&train, cfg);
            (epochs, model.evaluate(&test).accuracy)
        })
        .collect()
}

/// Beam-width / N_min sensitivity of the explainer: mean sparsity and
/// fidelity per configuration.
pub fn beam_ablation(scale: Scale) -> Vec<(usize, usize, f64, f64)> {
    let mut rng = Rng::seed_from_u64(132);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = scale.pick(160, 800);
    let ds = generate_dataset(&ds_cfg, &mut rng);
    let mut cfg = FexIotConfig::default()
        .with_encoder(fexiot_gnn::EncoderKind::Gcn)
        .with_seed(132);
    cfg.contrastive.epochs = scale.pick(12, 16);
    let model = FexIot::train(&ds, cfg);

    let cases: Vec<_> = ds
        .graphs
        .iter()
        .filter(|g| g.node_count() >= 5 && model.detect(g).vulnerable)
        .take(scale.pick(6, 20))
        .collect();

    let mut out = Vec::new();
    for beam in scale.pick(vec![1, 3], vec![1, 3, 8]) {
        for min_nodes in scale.pick(vec![2, 4], vec![2, 3, 4, 6]) {
            let search = SearchConfig {
                iterations: scale.pick(2, 6),
                beam_width: beam,
                min_nodes,
                reward: RewardKind::KernelShap {
                    samples: scale.pick(12, 32),
                },
                ..Default::default()
            };
            let mut fid = 0.0;
            let mut spa = 0.0;
            for g in &cases {
                let e = explain(model.scorer(), g, &search);
                let q = quality(model.scorer(), g, &e.nodes);
                fid += q.fidelity;
                spa += q.sparsity;
            }
            let n = cases.len().max(1) as f64;
            out.push((beam, min_nodes, fid / n, spa / n));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contrastive_training_helps() {
        let _obs = crate::obs_lock::shared();
        let points = contrastive_ablation(Scale::Small);
        let zero = points.iter().find(|(e, _)| *e == 0).unwrap().1;
        let trained = points.iter().map(|&(_, a)| a).fold(0.0, f64::max);
        assert!(
            trained >= zero - 0.02,
            "trained {trained} should not trail untrained {zero}"
        );
    }

    #[test]
    fn beam_ablation_produces_grid() {
        let _obs = crate::obs_lock::shared();
        let grid = beam_ablation(Scale::Small);
        assert_eq!(grid.len(), 4);
        for &(_, min_nodes, fid, spa) in &grid {
            assert!(fid.is_finite());
            assert!((0.0..=1.0).contains(&spa));
            assert!(min_nodes >= 2);
        }
    }
}
