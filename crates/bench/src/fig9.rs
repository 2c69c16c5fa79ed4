//! Figure 9: Fidelity–Sparsity trade-off of the three explanation methods on
//! randomly picked vulnerable interaction graphs (paper: 50 graphs, GCN
//! detector).

use crate::scale::Scale;
use fexiot::{FexIot, FexIotConfig};
use fexiot_explain::{explain, fexiot_config, mcts_gnn_config, quality, subgraphx_config};
use fexiot_graph::{generate_dataset, DatasetConfig};
use fexiot_tensor::rng::Rng;

/// Mean quality of one method.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    pub method: &'static str,
    pub mean_fidelity: f64,
    pub mean_sparsity: f64,
    /// Per-case (fidelity, sparsity) points for the scatter.
    pub points: Vec<(f64, f64)>,
}

/// Runs the comparison over detected-vulnerable graphs.
pub fn run(scale: Scale) -> Vec<Fig9Row> {
    let mut rng = Rng::seed_from_u64(110);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = scale.pick(240, 2000);
    let ds = generate_dataset(&ds_cfg, &mut rng);
    let (train, test) = ds.train_test_split(0.8, &mut rng);

    let mut cfg = FexIotConfig::default()
        .with_encoder(fexiot_gnn::EncoderKind::Gcn)
        .with_seed(110);
    cfg.contrastive.epochs = scale.pick(8, 14);
    let model = FexIot::train(&train, cfg);

    let cases: Vec<_> = test
        .graphs
        .iter()
        .filter(|g| g.node_count() >= 5 && model.detect(g).vulnerable)
        .take(scale.pick(12, 50))
        .collect();

    let iters = scale.pick(3, 8);
    let samples = scale.pick(16, 48);
    let methods = [
        ("FexIoT", fexiot_config(iters, 3, samples)),
        ("SubgraphX", subgraphx_config(iters, 3, samples)),
        ("MCTS_GNN", mcts_gnn_config(iters, 3)),
    ];

    methods
        .into_iter()
        .map(|(name, search_cfg)| {
            let points: Vec<(f64, f64)> = cases
                .iter()
                .map(|g| {
                    let e = explain(model.scorer(), g, &search_cfg);
                    let q = quality(model.scorer(), g, &e.nodes);
                    (q.fidelity, q.sparsity)
                })
                .collect();
            let mean_fidelity =
                points.iter().map(|p| p.0).sum::<f64>() / points.len().max(1) as f64;
            let mean_sparsity =
                points.iter().map(|p| p.1).sum::<f64>() / points.len().max(1) as f64;
            Fig9Row {
                method: name,
                mean_fidelity,
                mean_sparsity,
                points,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_have_valid_ranges() {
        let _obs = crate::obs_lock::shared();
        let rows = run(Scale::Small);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(!r.points.is_empty(), "{} produced no cases", r.method);
            assert!(
                (0.0..=1.0).contains(&r.mean_sparsity),
                "{} sparsity",
                r.method
            );
            assert!(r.mean_fidelity.is_finite());
        }
        // FexIoT's defining property in Fig. 9: concise explanations
        // (sparsity at least as high as the wide-beam baselines).
        let fex = rows.iter().find(|r| r.method == "FexIoT").unwrap();
        let mcts = rows.iter().find(|r| r.method == "MCTS_GNN").unwrap();
        assert!(fex.mean_sparsity >= mcts.mean_sparsity - 0.1);
    }
}
