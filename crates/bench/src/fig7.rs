//! Figure 7: communication cost — total bytes moved between server and
//! clients over the training run, for FedAvg / FMTL / GCFL+ / FexIoT at
//! several federation sizes (paper: 25/50/100 clients, 60 rounds).

use crate::scale::Scale;
use fexiot::{build_federation, FederationConfig, FexIotConfig};
use fexiot_fed::Strategy;
use fexiot_graph::{generate_dataset, DatasetConfig};
use fexiot_tensor::rng::Rng;

/// One bar of Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Bar {
    pub strategy: &'static str,
    pub clients: usize,
    pub total_mb: f64,
}

pub fn client_counts(scale: Scale) -> Vec<usize> {
    scale.pick(vec![6, 12, 24], vec![25, 50, 100])
}

/// Runs the cost sweep. Local training uses a realistic budget so the
/// update-norm-based clustering criteria behave as they do in Fig. 4.
pub fn run(scale: Scale) -> Vec<Fig7Bar> {
    let mut rng = Rng::seed_from_u64(90);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = scale.pick(200, 2000);
    let ds = generate_dataset(&ds_cfg, &mut rng);

    let strategies = [
        Strategy::FedAvg,
        Strategy::fmtl_default(),
        Strategy::gcfl_default(),
        Strategy::fexiot_default(),
    ];
    let rounds = scale.pick(6, 60);

    let mut bars = Vec::new();
    for strategy in strategies {
        for &clients in &client_counts(scale) {
            let mut pipeline = FexIotConfig::default().with_seed(90);
            pipeline.contrastive.epochs = 1;
            pipeline.contrastive.pairs_per_epoch = scale.pick(48, 128);
            let config = FederationConfig {
                n_clients: clients,
                alpha: 1.0,
                strategy: strategy.clone(),
                rounds,
                pipeline,
                ..Default::default()
            };
            let mut sim = build_federation(&ds, &config);
            sim.run();
            bars.push(Fig7Bar {
                strategy: strategy.name(),
                clients,
                total_mb: sim.comm.total_mb(),
            });
        }
    }
    bars
}

/// FexIoT's saving relative to FedAvg at the largest federation size.
pub fn fexiot_saving(bars: &[Fig7Bar]) -> f64 {
    let max_clients = bars.iter().map(|b| b.clients).max().unwrap_or(0);
    let of = |name: &str| {
        bars.iter()
            .find(|b| b.strategy == name && b.clients == max_clients)
            .map(|b| b.total_mb)
            .unwrap_or(0.0)
    };
    let fedavg = of("FedAvg");
    let fexiot = of("FexIoT");
    if fedavg > 0.0 {
        1.0 - fexiot / fedavg
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fexiot_saves_traffic() {
        let _obs = crate::obs_lock::shared();
        let bars = run(Scale::Small);
        assert_eq!(bars.len(), 4 * client_counts(Scale::Small).len());
        let saving = fexiot_saving(&bars);
        assert!(saving > 0.0, "FexIoT should save vs FedAvg, got {saving}");
        // Costs grow with federation size for every strategy.
        for name in ["FedAvg", "FexIoT"] {
            let series: Vec<f64> = client_counts(Scale::Small)
                .iter()
                .map(|&c| {
                    bars.iter()
                        .find(|b| b.strategy == name && b.clients == c)
                        .unwrap()
                        .total_mb
                })
                .collect();
            assert!(series.windows(2).all(|w| w[0] < w[1]), "{name}: {series:?}");
        }
    }
}
