//! Table I: dataset statistics — labeled/unlabeled homogeneous (IFTTT) and
//! heterogeneous (5-platform) interaction-graph sets.

use crate::scale::Scale;
use fexiot_graph::{generate_dataset, DatasetConfig, GraphDataset};
use fexiot_tensor::rng::Rng;

/// One Table I row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub dataset: &'static str,
    pub label_state: &'static str,
    pub total: usize,
    pub vulnerable: Option<usize>,
    pub min_nodes: usize,
    pub max_nodes: usize,
}

/// Generates all four Table I rows. Unlabeled sets reuse the same generator
/// but report no vulnerability count (the paper marks them `*`).
pub fn run(scale: Scale) -> (Vec<Table1Row>, Vec<GraphDataset>) {
    let mut rng = Rng::seed_from_u64(60);
    let mut rows = Vec::new();
    let mut datasets = Vec::new();

    let specs: Vec<(&'static str, &'static str, DatasetConfig, usize)> = vec![
        (
            "Homo. (IFTTT)",
            "labeled",
            DatasetConfig::small_ifttt(),
            scale.pick(240, 6000),
        ),
        (
            "Homo. (IFTTT)",
            "unlabeled",
            DatasetConfig::small_ifttt(),
            scale.pick(400, 10000),
        ),
        (
            "Hetero. (5 Platforms)",
            "labeled",
            DatasetConfig::small_hetero(),
            scale.pick(500, 12758),
        ),
        (
            "Hetero. (5 Platforms)",
            "unlabeled",
            DatasetConfig::small_hetero(),
            scale.pick(760, 19440),
        ),
    ];

    for (dataset, label_state, mut cfg, count) in specs {
        cfg.graph_count = count;
        if scale == Scale::Full {
            cfg.max_nodes = 50;
        }
        let ds = generate_dataset(&cfg, &mut rng);
        let stats = ds.stats();
        rows.push(Table1Row {
            dataset,
            label_state,
            total: stats.total,
            vulnerable: (label_state == "labeled").then_some(stats.vulnerable),
            min_nodes: stats.min_nodes,
            max_nodes: stats.max_nodes,
        });
        datasets.push(ds);
    }
    (rows, datasets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_rows_with_paper_proportions() {
        let _obs = crate::obs_lock::shared();
        let (rows, _) = run(Scale::Small);
        assert_eq!(rows.len(), 4);
        // Labeled sets report vulnerability counts near the Table I ratios
        // (24.6% IFTTT, 30.0% hetero).
        let ifttt = &rows[0];
        let ratio = ifttt.vulnerable.unwrap() as f64 / ifttt.total as f64;
        assert!(
            (0.18..=0.33).contains(&ratio),
            "IFTTT vulnerable ratio {ratio}"
        );
        assert!(rows[1].vulnerable.is_none());
        assert!(rows[3].vulnerable.is_none());
        // Node counts within the paper's 2-50 envelope.
        for r in &rows {
            assert!(r.min_nodes >= 1);
            assert!(r.max_nodes <= 50);
        }
    }
}
