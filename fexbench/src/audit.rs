//! `audit`: an analyst detects and explains vulnerable interactions, one
//! home per op. The op is dominated by the SHAP-guided beam search.

use crate::harness::{counter, Layers, Size, Workload};
use fexiot::{FexIot, FexIotConfig};
use fexiot_graph::{generate_dataset, DatasetConfig, GraphDataset, InteractionGraph};
use fexiot_obs::Snapshot;
use fexiot_tensor::Rng;

/// Rule counts of the audited homes.
pub const HOME_SIZES: std::ops::RangeInclusive<usize> = 4..=12;

/// Homes of rule count `n` per round of the pool: one of each size, and
/// three of the largest. With equal shares the p90 op would sit on the
/// cheap edge of the 12-rule class and move with its cheapest few homes;
/// with these shares both p50 and p90 fall inside a size class.
fn share(n: usize) -> usize {
    if n == *HOME_SIZES.end() {
        3
    } else {
        1
    }
}

pub struct Audit {
    model: FexIot,
    pool: Vec<InteractionGraph>,
    /// Traced run: (pool index, explanation nodes) of every traced op.
    explained: Vec<(usize, Vec<usize>)>,
}

/// Splits `graphs` into the audit pool and the remaining graphs. The pool
/// is `rounds` rounds of [`share`]`(n)` homes of each rule count `n`, so
/// every seed audits the same multiset of sizes and any prefix of the op
/// list is balanced. `None` if some size has too few homes.
pub fn split_pool(
    graphs: Vec<InteractionGraph>,
    rounds: usize,
) -> Option<(Vec<InteractionGraph>, Vec<InteractionGraph>)> {
    let mut by_size: Vec<Vec<InteractionGraph>> = HOME_SIZES.map(|_| Vec::new()).collect();
    let mut rest = Vec::new();
    for g in graphs {
        let n = g.node_count();
        let class = n
            .checked_sub(*HOME_SIZES.start())
            .and_then(|i| by_size.get_mut(i));
        match class {
            Some(homes) if homes.len() < rounds * share(n) => homes.push(g),
            _ => rest.push(g),
        }
    }
    if HOME_SIZES
        .zip(&by_size)
        .any(|(n, homes)| homes.len() < rounds * share(n))
    {
        return None;
    }
    let mut classes: Vec<_> = by_size.into_iter().map(Vec::into_iter).collect();
    let mut pool = Vec::new();
    for _ in 0..rounds {
        for (n, class) in HOME_SIZES.zip(&mut classes) {
            pool.extend(class.by_ref().take(share(n)));
        }
    }
    Some((pool, rest))
}

/// Share of positions where `verdicts` matches `truth` (0 when empty).
pub fn agreement(verdicts: &[bool], truth: &[bool]) -> f64 {
    assert_eq!(verdicts.len(), truth.len(), "agreement: length mismatch");
    if verdicts.is_empty() {
        return 0.0;
    }
    let same = verdicts.iter().zip(truth).filter(|(a, b)| a == b).count();
    same as f64 / verdicts.len() as f64
}

/// Checks one op's outputs: a probability score, and explanation nodes
/// that are non-empty, strictly increasing and inside the graph.
pub fn check_audit(score: f64, nodes: &[usize], node_count: usize) -> Result<(), String> {
    if !(0.0..=1.0).contains(&score) {
        return Err(format!("score {score} outside [0, 1]"));
    }
    if nodes.is_empty() {
        return Err("empty explanation".into());
    }
    if nodes.windows(2).any(|w| w[0] >= w[1]) {
        return Err(format!("explanation nodes not sorted: {nodes:?}"));
    }
    if nodes.iter().any(|&i| i >= node_count) {
        return Err(format!(
            "explanation node outside a {node_count}-node graph: {nodes:?}"
        ));
    }
    Ok(())
}

impl Workload for Audit {
    fn setup(seed: u64, size: &Size, layers: &mut Layers) -> Result<Self, String> {
        let mut cfg = DatasetConfig::small_ifttt();
        cfg.graph_count = size.graphs;
        cfg.min_nodes = *HOME_SIZES.start();
        cfg.max_nodes = *HOME_SIZES.end();
        let dataset = layers.time("graph.generate_s", || {
            generate_dataset(&cfg, &mut Rng::seed_from_u64(seed))
        });
        let (pool, train) = split_pool(dataset.graphs, size.pool_rounds).ok_or_else(|| {
            format!(
                "seed {seed}: corpus too small for {} pool rounds",
                size.pool_rounds
            )
        })?;
        let train = GraphDataset::new(train);
        let model = layers.time("core.train_s", || {
            FexIot::train(&train, FexIotConfig::default().with_seed(seed))
        });
        Ok(Self {
            model,
            pool,
            explained: Vec::new(),
        })
    }

    /// Quality is detection accuracy over the whole pool; the first three
    /// homes are also explained and discarded.
    fn warm_up(&mut self, _layers: &mut Layers) -> Result<f64, String> {
        let verdicts: Vec<bool> = self
            .pool
            .iter()
            .map(|g| self.model.detect(g).vulnerable)
            .collect();
        let labels: Vec<bool> = self
            .pool
            .iter()
            .map(|g| GraphDataset::binary_label(g) == 1)
            .collect();
        for i in 0..3.min(self.pool.len()) {
            self.op(i, &mut Layers::off())?;
        }
        Ok(agreement(&verdicts, &labels))
    }

    fn op(&mut self, i: usize, layers: &mut Layers) -> Result<u64, String> {
        let idx = i % self.pool.len();
        let home = &self.pool[idx];
        let detection = layers.time("core.detect_ms", || self.model.detect(home));
        let explanation = layers.time("explain.search_ms", || self.model.explain(home));
        check_audit(detection.score, &explanation.nodes, home.node_count())?;
        if layers.is_on() {
            self.explained.push((idx, explanation.nodes));
        }
        Ok(1)
    }

    fn period(&self) -> usize {
        HOME_SIZES.map(share).sum()
    }

    fn absorb_op(&mut self, snap: &Snapshot, layers: &mut Layers) {
        for name in [
            "explain.search.evals",
            "explain.search.shap_evals",
            "explain.search.expansions",
        ] {
            layers.add(name, counter(snap, name));
        }
    }

    fn finish(&mut self, layers: &mut Layers, ops: usize) {
        let search_ms = layers.get("explain.search_ms");
        let evals = layers.get("explain.search.evals");
        layers.set(
            "explain.evals_per_s",
            if search_ms > 0.0 {
                evals * 1e3 / search_ms
            } else {
                0.0
            },
        );
        layers.per(
            &[
                "core.detect_ms",
                "explain.search_ms",
                "explain.search.evals",
                "explain.search.shap_evals",
                "explain.search.expansions",
            ],
            ops as f64,
        );
        let (mut fidelity, mut sparsity) = (0.0, 0.0);
        for (idx, nodes) in &self.explained {
            let q = fexiot_explain::quality(self.model.scorer(), &self.pool[*idx], nodes);
            fidelity += q.fidelity;
            sparsity += q.sparsity;
        }
        let n = self.explained.len().max(1) as f64;
        layers.set("explain.fidelity", fidelity / n);
        layers.set("explain.sparsity", sparsity / n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::hand_graph;
    use fexiot_graph::{GraphLabel, VulnKind};

    #[test]
    fn quality_is_accuracy_against_home_labels() {
        let mut vulnerable = hand_graph(4, vec![(0, 1)]);
        vulnerable.label = Some(GraphLabel::vulnerable(vec![VulnKind::ActionLoop]));
        let mut benign = hand_graph(4, vec![]);
        benign.label = Some(GraphLabel::benign());
        let labels: Vec<bool> = [&vulnerable, &benign, &benign]
            .iter()
            .map(|g| GraphDataset::binary_label(g) == 1)
            .collect();
        assert_eq!(labels, [true, false, false]);
        assert_eq!(agreement(&[true, false, true], &labels), 2.0 / 3.0);
        assert_eq!(agreement(&[true, false, false], &labels), 1.0);
    }

    #[test]
    fn pool_interleaves_equal_counts_of_each_size() {
        let homes = || -> Vec<InteractionGraph> {
            (0..6)
                .flat_map(|_| (2..=13).rev().map(|n| hand_graph(n, vec![])))
                .collect()
        };
        let (pool, rest) = split_pool(homes(), 2).expect("two rounds");
        let sizes: Vec<usize> = pool.iter().map(InteractionGraph::node_count).collect();
        let round = [4, 5, 6, 7, 8, 9, 10, 11, 12, 12, 12];
        assert_eq!(sizes, [round, round].concat());
        // The rest keeps every graph not in the pool.
        assert_eq!(rest.len(), 6 * 12 - pool.len());
        assert!(split_pool(homes(), 3).is_none(), "only six 12-rule homes");
    }

    #[test]
    fn op_check_rejects_bad_outputs() {
        assert!(check_audit(0.3, &[0, 2], 4).is_ok());
        assert!(check_audit(1.5, &[0], 4).is_err(), "score above 1");
        assert!(check_audit(f64::NAN, &[0], 4).is_err(), "NaN score");
        assert!(check_audit(0.3, &[], 4).is_err(), "empty");
        assert!(check_audit(0.3, &[2, 1], 4).is_err(), "unsorted");
        assert!(check_audit(0.3, &[1, 1], 4).is_err(), "repeated");
        assert!(check_audit(0.3, &[1, 4], 4).is_err(), "outside the graph");
    }
}
