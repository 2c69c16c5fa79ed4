//! Figure 6: representation analysis — k-means clustering of contrastively
//! learned graph representations with t-SNE projection, and the MAD drift
//! filter counting potential drifting samples in the unlabeled sets.

use crate::scale::Scale;
use fexiot::{FexIot, FexIotConfig};
use fexiot_graph::{generate_dataset, DatasetConfig, GraphDataset};
use fexiot_ml::{kmeans, tsne, TsneConfig};
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::rng::Rng;

/// Output of the Fig. 6 analysis.
pub struct Fig6Result {
    /// 2-D t-SNE coordinates for the sampled representations.
    pub coords: Matrix,
    /// k-means cluster assignment per sample (k = 7: benign + 6 vuln kinds).
    pub clusters: Vec<usize>,
    /// True class per sample (0 = benign, 1..=6 = vulnerability kind).
    pub classes: Vec<usize>,
    /// Cluster purity: fraction of samples whose cluster's majority class
    /// matches their own.
    pub purity: f64,
    /// Drifting-sample counts found in the two unlabeled datasets.
    pub drifting_ifttt: usize,
    pub drifting_hetero: usize,
}

/// Trains the representation model, samples representations, clusters and
/// projects them, and runs the drift filter over the unlabeled sets.
pub fn run(scale: Scale) -> Fig6Result {
    let mut rng = Rng::seed_from_u64(80);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = scale.pick(300, 3000);
    let labeled = generate_dataset(&ds_cfg, &mut rng);

    let mut cfg = FexIotConfig::default().with_seed(80);
    cfg.contrastive.epochs = scale.pick(10, 16);
    cfg.contrastive.pairs_per_epoch = scale.pick(128, 256);
    let model = FexIot::train(&labeled, cfg);

    // Sample representations (paper: 1,500).
    let sample_n = scale.pick(200, 1500).min(labeled.len());
    let idx: Vec<usize> = (0..sample_n).collect();
    let sampled: Vec<_> = idx.iter().map(|&i| &labeled.graphs[i]).collect();
    let reps: Vec<Vec<f64>> = sampled
        .iter()
        .map(|g| model.scorer().encoder.embed(g))
        .collect();
    let reps = Matrix::from_rows(&reps);
    let classes: Vec<usize> = sampled.iter().map(|g| GraphDataset::class_of(g)).collect();

    let km = kmeans(&reps, 7, 100, &mut rng);
    let purity = cluster_purity(&km.assignments, &classes, 7);
    let coords = tsne(
        &reps,
        &TsneConfig {
            iterations: scale.pick(150, 400),
            seed: 80,
            ..Default::default()
        },
    );

    // Drift filtering over "unlabeled" datasets (freshly generated, so some
    // graphs carry patterns outside the training distribution).
    let mut unl_ifttt_cfg = DatasetConfig::small_ifttt();
    unl_ifttt_cfg.graph_count = scale.pick(400, 10000);
    let unl_ifttt = generate_dataset(&unl_ifttt_cfg, &mut rng);
    let mut unl_het_cfg = DatasetConfig::small_hetero();
    unl_het_cfg.graph_count = scale.pick(500, 19440);
    let unl_hetero = generate_dataset(&unl_het_cfg, &mut rng);

    // The hetero set has different platform feature dims; drift counting uses
    // the IFTTT-trained encoder only on IFTTT-compatible graphs and a
    // dedicated hetero model otherwise.
    let drifting_ifttt = model.filter_drifting(&unl_ifttt).len();
    let mut het_cfg = FexIotConfig::default()
        .with_encoder(fexiot_gnn::EncoderKind::Magnn)
        .with_seed(81);
    het_cfg.contrastive.epochs = scale.pick(6, 12);
    let mut het_train_cfg = DatasetConfig::small_hetero();
    het_train_cfg.graph_count = scale.pick(300, 3000);
    let het_labeled = generate_dataset(&het_train_cfg, &mut rng);
    let het_model = FexIot::train(&het_labeled, het_cfg);
    let drifting_hetero = het_model.filter_drifting(&unl_hetero).len();

    Fig6Result {
        coords,
        clusters: km.assignments,
        classes,
        purity,
        drifting_ifttt,
        drifting_hetero,
    }
}

/// Majority-vote purity of a clustering against true classes.
pub fn cluster_purity(assignments: &[usize], classes: &[usize], k: usize) -> f64 {
    assert_eq!(assignments.len(), classes.len());
    let n_classes = classes.iter().copied().max().map_or(1, |m| m + 1);
    let mut correct = 0usize;
    for c in 0..k {
        let mut counts = vec![0usize; n_classes];
        for (i, &a) in assignments.iter().enumerate() {
            if a == c {
                counts[classes[i]] += 1;
            }
        }
        correct += counts.iter().max().copied().unwrap_or(0);
    }
    correct as f64 / assignments.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purity_bounds() {
        let _obs = crate::obs_lock::shared();
        assert_eq!(cluster_purity(&[0, 0, 1, 1], &[0, 0, 1, 1], 2), 1.0);
        assert_eq!(cluster_purity(&[0, 1, 0, 1], &[0, 0, 1, 1], 2), 0.5);
    }

    // The full run() is exercised by the fig6 binary; a smoke version here
    // would re-train the pipeline and dominate the unit-test wall clock.
}
