//! Figure 3: interaction-correlation discovery — four classifiers (MLP,
//! RandomForest, KNN, GradientBoost) on rule-pair features, 10-fold
//! cross-validation.

use crate::scale::Scale;
use fexiot_graph::{CorpusConfig, CorpusGenerator, Rule};
use fexiot_ml::{
    ForestConfig, GBoostConfig, GradientBoost, Knn, Metrics, Mlp, MlpConfig, RandomForest,
};
use fexiot_nlp::{parse_rule, Lexicon, PairFeatureExtractor};
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::rng::Rng;

/// A labeled rule-pair feature set.
pub struct PairDataset {
    pub x: Matrix,
    pub y: Vec<usize>,
}

/// Builds the labeled "action-trigger" pair dataset. The paper hand-labels
/// 5,600 positive and 8,000 negative pairs; here ground truth comes from the
/// rule semantics (`Rule::can_trigger`), which is what the volunteers encoded.
pub fn build_pair_dataset(positives: usize, negatives: usize, seed: u64) -> PairDataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut gen = CorpusGenerator::new();
    // A large mixed corpus so both pair classes are plentiful.
    let rules = gen.generate(&CorpusConfig::small(), &mut rng);
    let lex = Lexicon::new();
    let extractor = PairFeatureExtractor::with_word_dim(32);
    let parses: Vec<_> = rules.iter().map(|r| parse_rule(&r.text, &lex)).collect();

    let mut pos_rows: Vec<Vec<f64>> = Vec::with_capacity(positives);
    let mut neg_rows: Vec<Vec<f64>> = Vec::with_capacity(negatives);
    let mut attempts = 0usize;
    let cap = (positives + negatives) * 400;
    while (pos_rows.len() < positives || neg_rows.len() < negatives) && attempts < cap {
        attempts += 1;
        let i = rng.usize(rules.len());
        let j = rng.usize(rules.len());
        if i == j {
            continue;
        }
        let correlated = rules[i].can_trigger(&rules[j]);
        if correlated && pos_rows.len() < positives {
            pos_rows.push(extractor.pair_features(&parses[i], &parses[j], &lex));
        } else if !correlated && neg_rows.len() < negatives {
            neg_rows.push(extractor.pair_features(&parses[i], &parses[j], &lex));
        }
    }
    let mut rows = pos_rows;
    let mut y = vec![1usize; rows.len()];
    y.extend(std::iter::repeat_n(0, neg_rows.len()));
    rows.extend(neg_rows);
    PairDataset {
        x: Matrix::from_rows(&rows),
        y,
    }
}

/// Ensures positives exist by direct enumeration when sampling is too sparse.
pub fn enumerate_positive_pairs(rules: &[Rule]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..rules.len() {
        for j in 0..rules.len() {
            if i != j && rules[i].can_trigger(&rules[j]) {
                out.push((i, j));
            }
        }
    }
    out
}

/// One classifier's cross-validated metrics.
#[derive(Debug, Clone)]
pub struct ClassifierResult {
    pub name: &'static str,
    pub metrics: Metrics,
}

/// Runs the Fig. 3 comparison with k-fold cross-validation.
pub fn run(scale: Scale) -> Vec<ClassifierResult> {
    let (pos, neg, folds) = scale.pick((350, 500, 5), (5600, 8000, 10));
    let ds = build_pair_dataset(pos, neg, 3);
    let mut rng = Rng::seed_from_u64(4);
    let n = ds.x.rows();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);

    let mut per_method: Vec<(&'static str, Vec<Metrics>)> = vec![
        ("MLP", Vec::new()),
        ("RandomForest", Vec::new()),
        ("KNN", Vec::new()),
        ("GradientBoost", Vec::new()),
    ];

    for fold in 0..folds {
        let test_idx: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(pos, _)| pos % folds == fold)
            .map(|(_, &i)| i)
            .collect();
        let train_idx: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(pos, _)| pos % folds != fold)
            .map(|(_, &i)| i)
            .collect();
        let xt = ds.x.select_rows(&train_idx);
        let yt: Vec<usize> = train_idx.iter().map(|&i| ds.y[i]).collect();
        let xe = ds.x.select_rows(&test_idx);
        let ye: Vec<usize> = test_idx.iter().map(|&i| ds.y[i]).collect();

        let mlp = Mlp::fit(
            &xt,
            &yt,
            MlpConfig {
                epochs: 40,
                seed: fold as u64,
                ..Default::default()
            },
        );
        per_method[0]
            .1
            .push(Metrics::from_predictions(&mlp.predict(&xe), &ye));

        let rf = RandomForest::fit(
            &xt,
            &yt,
            2,
            ForestConfig {
                trees: 40,
                seed: fold as u64,
                ..Default::default()
            },
        );
        per_method[1]
            .1
            .push(Metrics::from_predictions(&rf.predict(&xe), &ye));

        let knn = Knn::fit(&xt, &yt, 2, 7);
        per_method[2]
            .1
            .push(Metrics::from_predictions(&knn.predict(&xe), &ye));

        let gb = GradientBoost::fit(
            &xt,
            &yt,
            GBoostConfig {
                stages: 60,
                seed: fold as u64,
                ..Default::default()
            },
        );
        per_method[3]
            .1
            .push(Metrics::from_predictions(&gb.predict(&xe), &ye));
    }

    per_method
        .into_iter()
        .map(|(name, folds)| ClassifierResult {
            name,
            metrics: Metrics::mean(&folds),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_dataset_has_both_classes() {
        let _obs = crate::obs_lock::shared();
        let ds = build_pair_dataset(40, 60, 1);
        let pos = ds.y.iter().filter(|&&v| v == 1).count();
        assert!(pos >= 20, "positives {pos}");
        assert!(ds.y.len() - pos >= 30);
        assert_eq!(ds.x.rows(), ds.y.len());
    }

    #[test]
    fn classifiers_beat_chance_clearly() {
        let _obs = crate::obs_lock::shared();
        let results = run(Scale::Small);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(
                r.metrics.accuracy > 0.8,
                "{} accuracy {}",
                r.name,
                r.metrics.accuracy
            );
        }
    }
}
