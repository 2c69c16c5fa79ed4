//! Figure 8: qualitative explanation comparison on two curated interaction
//! graphs — a GCN false positive and a correct detection — reproducing the
//! paper's rule table and the subgraphs each method highlights.

use crate::scale::Scale;
use fexiot::{FexIot, FexIotConfig};
use fexiot_explain::{explain, fexiot_config, mcts_gnn_config, subgraphx_config, Explanation};
use fexiot_graph::builder::{FeatureConfig, GraphBuilder};
use fexiot_graph::device::{Channel, DeviceKind, Location};
use fexiot_graph::rule::{dev, Command, Platform, Rule, Trigger};
use fexiot_graph::{generate_dataset, DatasetConfig, InteractionGraph};
use fexiot_tensor::rng::Rng;

/// One method's output on one example.
pub struct Fig8Entry {
    pub case: usize,
    pub method: &'static str,
    pub explanation: Explanation,
}

/// Builds the two example graphs following the paper's Fig. 8 rule indexes.
pub fn example_graphs() -> Vec<InteractionGraph> {
    let builder = GraphBuilder::new(FeatureConfig::small());
    let mk = |id: u32, trigger: Trigger, actions: Vec<Command>| {
        let text = fexiot_graph::corpus::render_text(Platform::Ifttt, &trigger, &actions);
        Rule {
            id,
            platform: Platform::Ifttt,
            trigger,
            actions,
            text,
        }
    };

    // Example 1 (paper: benign, GCN false positive). The paper's narrative:
    // the door opens, water flow runs with a notification sent, the
    // notification turns the camera on, and the smoke rule opens the door
    // and starts the fan. Rule ids follow Fig. 8's index table; trigger and
    // action details are adapted so the chain is realizable in our world
    // model while staying free of the six vulnerability patterns.
    let door = dev(DeviceKind::Door, Location::Hallway);
    let valve = dev(DeviceKind::WaterValve, Location::Kitchen);
    let camera = dev(DeviceKind::Camera, Location::LivingRoom);
    let fan = dev(DeviceKind::Fan, Location::Kitchen);
    let window = dev(DeviceKind::Window, Location::Kitchen);
    let speaker = dev(DeviceKind::Speaker, Location::LivingRoom);
    let g1 = builder.build_graph(&[
        // 2184: if smoke is detected, unlock the door and start the fan.
        mk(
            2184,
            Trigger::ChannelLevel {
                channel: Channel::Smoke,
                location: Location::Kitchen,
                high: true,
            },
            vec![
                Command {
                    device: door,
                    activate: true,
                },
                Command {
                    device: fan,
                    activate: true,
                },
            ],
        ),
        // 47: door open -> water flow on.
        mk(
            47,
            Trigger::DeviceState {
                device: door,
                active: true,
            },
            vec![Command {
                device: valve,
                activate: true,
            }],
        ),
        // 62: if the fan runs, open the kitchen window.
        mk(
            62,
            Trigger::DeviceState {
                device: fan,
                active: true,
            },
            vec![Command {
                device: window,
                activate: true,
            }],
        ),
        // 1376: water flow detected -> notify the user (speaker).
        mk(
            1376,
            Trigger::ChannelLevel {
                channel: Channel::Water,
                location: Location::Kitchen,
                high: true,
            },
            vec![Command {
                device: speaker,
                activate: true,
            }],
        ),
        // 174: turn the camera on when notified (sound in the living room).
        mk(
            174,
            Trigger::ChannelLevel {
                channel: Channel::Sound,
                location: Location::LivingRoom,
                high: true,
            },
            vec![Command {
                device: camera,
                activate: true,
            }],
        ),
        // 1215: tap to turn off the camera (manual, disconnected by design).
        mk(
            1215,
            Trigger::Manual,
            vec![Command {
                device: camera,
                activate: false,
            }],
        ),
    ]);

    // Example 2 (paper: correct prediction — the camera is turned off within
    // a loop: tap -> camera off -> notification -> camera on -> camera off).
    let plug = dev(DeviceKind::Plug, Location::Bedroom);
    let ac = dev(DeviceKind::AirConditioner, Location::Bedroom);
    let g2 = builder.build_graph(&[
        // 1215: tap to turn off camera.
        mk(
            1215,
            Trigger::Manual,
            vec![Command {
                device: camera,
                activate: false,
            }],
        ),
        // 47: camera off -> record it and send a notification (speaker on).
        mk(
            47,
            Trigger::DeviceState {
                device: camera,
                active: false,
            },
            vec![Command {
                device: speaker,
                activate: true,
            }],
        ),
        // 1177: turn the camera on if notified (speaker active).
        mk(
            1177,
            Trigger::DeviceState {
                device: speaker,
                active: true,
            },
            vec![Command {
                device: camera,
                activate: true,
            }],
        ),
        // 23: camera on -> turn the camera off again (closing the loop).
        mk(
            23,
            Trigger::DeviceState {
                device: camera,
                active: true,
            },
            vec![Command {
                device: camera,
                activate: false,
            }],
        ),
        // 1076: air conditioner if plug is on (context rule).
        mk(
            1076,
            Trigger::DeviceState {
                device: plug,
                active: true,
            },
            vec![Command {
                device: ac,
                activate: true,
            }],
        ),
        // 1291: plugs on if door unlocked (context rule).
        mk(
            1291,
            Trigger::DeviceState {
                device: door,
                active: true,
            },
            vec![Command {
                device: plug,
                activate: true,
            }],
        ),
    ]);

    vec![g1, g2]
}

/// Runs all three explainers on both example graphs; the detector is trained
/// on a standard dataset so the scorer is realistic.
pub fn run(scale: Scale) -> (Vec<Fig8Entry>, Vec<InteractionGraph>) {
    let mut rng = Rng::seed_from_u64(100);
    let mut ds_cfg = DatasetConfig::small_ifttt();
    ds_cfg.graph_count = scale.pick(200, 1000);
    let ds = generate_dataset(&ds_cfg, &mut rng);
    let mut cfg = FexIotConfig::default()
        .with_encoder(fexiot_gnn::EncoderKind::Gcn) // paper uses GCN here
        .with_seed(100);
    cfg.contrastive.epochs = scale.pick(8, 14);
    let model = FexIot::train(&ds, cfg);

    let graphs = example_graphs();
    let iters = scale.pick(4, 10);
    let samples = scale.pick(24, 64);
    let mut entries = Vec::new();
    for (case, g) in graphs.iter().enumerate() {
        for (method, cfg) in [
            ("FexIoT", fexiot_config(iters, 3, samples)),
            ("SubgraphX", subgraphx_config(iters, 3, samples)),
            ("MCTS_GNN", mcts_gnn_config(iters, 3)),
        ] {
            entries.push(Fig8Entry {
                case,
                method,
                explanation: explain(model.scorer(), g, &cfg),
            });
        }
    }
    (entries, graphs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fexiot_graph::vuln::{detect_vulnerabilities, VulnKind};

    #[test]
    fn example_one_is_benign_example_two_is_loop() {
        let _obs = crate::obs_lock::shared();
        let graphs = example_graphs();
        let v1 = detect_vulnerabilities(&graphs[0]);
        // Example 1 has a duplicate-free, loop-free structure in the paper's
        // telling; our encoding keeps it free of loops at minimum.
        assert!(!v1.contains(&VulnKind::ActionLoop), "{v1:?}");
        let v2 = detect_vulnerabilities(&graphs[1]);
        assert!(v2.contains(&VulnKind::ActionLoop), "{v2:?}");
    }

    #[test]
    fn graphs_are_connected_enough_to_explain() {
        let _obs = crate::obs_lock::shared();
        for g in example_graphs() {
            assert!(g.edge_count() >= 3, "graph too sparse: {:?}", g.edges);
        }
    }
}
