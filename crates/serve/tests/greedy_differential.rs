//! Differential test for the §V greedy.
//!
//! `PerfAwarePruner::prune_over` walks one ladder slot per layer and reads
//! every cost, energy and accuracy from the search space's per-slot
//! objective table. The keep-map greedy it replaced is kept here, verbatim,
//! as the oracle: it clones a `HashMap` per trial, re-derives accuracy with
//! `AccuracyModel::accuracy_with` and measures energy candidates and the
//! final totals through the profiler cache. Over every catalog network ×
//! device (the `g72` alias included) × backend × objective × budget, at
//! cache caps 0 and 2, the two must agree on the keep map and on the bits
//! of latency, energy and accuracy.

use std::collections::HashMap;
use std::sync::Arc;

use pruneperf_backends::ConvBackend;
use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::search::SearchSpace;
use pruneperf_core::{Objective, PerfAwarePruner};
use pruneperf_models::{ConvLayerSpec, Network};
use pruneperf_profiler::{LatencyCache, LayerProfiler};
use pruneperf_serve::catalog;

const NETWORKS: [&str; 4] = ["alexnet", "vgg16", "resnet50", "mobilenetv1"];
const DEVICES: [&str; 5] = ["hikey970", "g72", "odroidxu4", "tx2", "nano"];
const BACKENDS: [&str; 6] = [
    "acl-gemm",
    "acl-direct",
    "acl-direct-tuned",
    "acl-auto",
    "cudnn",
    "tvm",
];
const BUDGETS: [f64; 5] = [0.3, 0.55, 0.8, 0.97, 1.0];

/// What the oracle reports: keep map, latency, energy, accuracy.
type OraclePlan = (HashMap<String, usize>, f64, f64, f64);

/// Summed latency and energy of a keep map, measured through the cache.
fn plan_cost(
    profiler: &LayerProfiler,
    backend: &dyn ConvBackend,
    network: &Network,
    kept: &HashMap<String, usize>,
) -> (f64, f64) {
    network
        .layers()
        .iter()
        .map(|l| {
            let c = kept.get(l.label()).copied().unwrap_or_else(|| l.c_out());
            let layer = l.with_c_out(c).expect("keep count validated");
            (
                profiler.measure(backend, &layer).median_ms(),
                profiler.energy_mj(backend, &layer),
            )
        })
        .fold((0.0, 0.0), |(ms, mj), (m, j)| (ms + m, mj + j))
}

/// The keep-map greedy, as it stood before the objective columns.
fn keep_map_greedy(
    profiler: &LayerProfiler,
    accuracy: &AccuracyModel,
    space: &SearchSpace,
    backend: &dyn ConvBackend,
    network: &Network,
    objective: Objective,
    budget_fraction: f64,
) -> OraclePlan {
    let layers = network.layers();
    let layer_cost = |layer: &ConvLayerSpec| match objective {
        Objective::Latency => profiler.measure(backend, layer).median_ms(),
        Objective::Energy => profiler.energy_mj(backend, layer),
    };
    let mut kept: HashMap<String, usize> = layers
        .iter()
        .map(|l| (l.label().to_string(), l.c_out()))
        .collect();
    let mut per_layer: Vec<f64> = layers.iter().map(layer_cost).collect();
    let total0: f64 = per_layer.iter().sum();
    let budget = total0 * budget_fraction;
    let mut total = total0;
    let mut acc = accuracy.accuracy_with(&kept);

    while total > budget {
        let mut best: Option<(usize, usize, f64, f64, f64)> = None;
        for (i, layer) in layers.iter().enumerate() {
            let label = layer.label();
            let cur_c = kept[label];
            let cur = per_layer[i];
            let next = space
                .ladder(i)
                .iter()
                .rev()
                .filter(|&&(c, _)| c < cur_c)
                .find_map(|&(c, ms)| {
                    let cost = match objective {
                        Objective::Latency => ms,
                        Objective::Energy => {
                            let pruned = layer.with_c_out(c).expect("ladder in range");
                            layer_cost(&pruned)
                        }
                    };
                    (cost < cur).then_some((c, cost))
                });
            if let Some((c, cost)) = next {
                let mut trial = kept.clone();
                trial.insert(label.to_string(), c);
                let new_acc = accuracy.accuracy_with(&trial);
                let d_cost = cur - cost;
                let d_acc = (acc - new_acc).max(1e-9);
                if best.as_ref().is_none_or(|b| d_cost / d_acc > b.3 / b.4) {
                    best = Some((i, c, cost, d_cost, d_acc));
                }
            }
        }
        let Some((i, c, cost, _, _)) = best else {
            break;
        };
        total -= per_layer[i] - cost;
        per_layer[i] = cost;
        kept.insert(layers[i].label().to_string(), c);
        acc = accuracy.accuracy_with(&kept);
    }

    let (latency_ms, energy_mj) = plan_cost(profiler, backend, network, &kept);
    let latency_ms = match objective {
        Objective::Latency => total,
        Objective::Energy => latency_ms,
    };
    (kept, latency_ms, energy_mj, acc)
}

/// Compares the two greedies on every device, backend, cache cap,
/// objective and budget of one catalog network.
fn compare_on(network_name: &str) {
    let network = catalog::network_by_name(network_name).unwrap();
    let accuracy = AccuracyModel::for_network(&network);
    let mut tally = (0, 0);
    for device_name in DEVICES {
        let device = catalog::device_by_name(device_name).unwrap();
        for backend_name in BACKENDS {
            for cap in [0, 2] {
                let cache = Arc::new(LatencyCache::new());
                if cap > 0 {
                    cache.set_max_entries_per_shard(cap);
                }
                let profiler = LayerProfiler::noiseless(&device).with_cache(cache);
                let what = format!("{network_name} {device_name} {backend_name} cap {cap}");
                compare_budgets(
                    &profiler,
                    &network,
                    &accuracy,
                    backend_name,
                    &what,
                    &mut tally,
                );
            }
        }
    }
    let (compared, pruned) = tally;
    assert_eq!(
        compared,
        DEVICES.len() * BACKENDS.len() * 2 * 2 * BUDGETS.len()
    );
    // Budget 1.0 never prunes; the tighter ones must, or the comparison
    // would only ever see unpruned plans.
    assert!(
        pruned * 5 >= compared * 3,
        "{network_name}: {pruned} of {compared} plans pruned"
    );
}

/// Compares the two greedies on one profiler, network and backend for
/// both objectives and every budget, counting `(compared, pruned)` plans.
fn compare_budgets(
    profiler: &LayerProfiler,
    network: &Network,
    accuracy: &AccuracyModel,
    backend_name: &str,
    what: &str,
    tally: &mut (usize, usize),
) {
    let backend = catalog::backend_by_name(backend_name).unwrap();
    let space = SearchSpace::build_for(profiler, accuracy, backend.as_ref(), network);
    let pruner = PerfAwarePruner::new(profiler, accuracy);
    for objective in [Objective::Latency, Objective::Energy] {
        for budget in BUDGETS {
            let what = format!("{what} {} {budget}", objective.as_str());
            let plan = pruner.prune_over(&space, backend.as_ref(), network, objective, budget);
            let (kept, latency_ms, energy_mj, acc) = keep_map_greedy(
                profiler,
                accuracy,
                &space,
                backend.as_ref(),
                network,
                objective,
                budget,
            );
            assert_eq!(plan.kept_channels(), &kept, "{what}: keep map");
            assert_eq!(
                plan.latency_ms().to_bits(),
                latency_ms.to_bits(),
                "{what}: latency {} vs {latency_ms}",
                plan.latency_ms()
            );
            assert_eq!(
                plan.energy_mj().to_bits(),
                energy_mj.to_bits(),
                "{what}: energy {} vs {energy_mj}",
                plan.energy_mj()
            );
            assert_eq!(
                plan.accuracy().to_bits(),
                acc.to_bits(),
                "{what}: accuracy {} vs {acc}",
                plan.accuracy()
            );
            tally.0 += 1;
            if network.layers().iter().any(|l| kept[l.label()] < l.c_out()) {
                tally.1 += 1;
            }
        }
    }
}

#[test]
fn the_network_list_covers_the_catalog() {
    assert_eq!(NETWORKS.len(), catalog::NETWORK_SLOTS);
    assert_eq!(
        (DEVICES.len() - 1) * BACKENDS.len() * NETWORKS.len(),
        catalog::TRIPLE_SLOTS,
        "one name per catalog slot, plus one alias"
    );
    for name in NETWORKS {
        assert!(catalog::network_by_name(name).is_ok(), "{name}");
    }
    for name in BACKENDS {
        assert!(catalog::backend_by_name(name).is_ok(), "{name}");
    }
}

#[test]
fn column_greedy_matches_the_keep_map_greedy_on_alexnet() {
    compare_on(NETWORKS[0]);
}

#[test]
fn column_greedy_matches_the_keep_map_greedy_on_vgg16() {
    compare_on(NETWORKS[1]);
}

#[test]
fn column_greedy_matches_the_keep_map_greedy_on_resnet50() {
    compare_on(NETWORKS[2]);
}

#[test]
fn column_greedy_matches_the_keep_map_greedy_on_mobilenetv1() {
    compare_on(NETWORKS[3]);
}

#[test]
fn column_greedy_matches_the_keep_map_greedy_under_measurement_noise() {
    let mut tally = (0, 0);
    for network_name in NETWORKS {
        let network = catalog::network_by_name(network_name).unwrap();
        let accuracy = AccuracyModel::for_network(&network);
        for device_name in ["hikey970", "tx2"] {
            let device = catalog::device_by_name(device_name).unwrap();
            for backend_name in ["acl-gemm", "cudnn"] {
                let profiler =
                    LayerProfiler::new(&device).with_cache(Arc::new(LatencyCache::new()));
                let what = format!("{network_name} {device_name} {backend_name} noisy");
                compare_budgets(
                    &profiler,
                    &network,
                    &accuracy,
                    backend_name,
                    &what,
                    &mut tally,
                );
            }
        }
    }
    assert!(
        tally.1 * 5 >= tally.0 * 3,
        "{} of {} plans pruned",
        tally.1,
        tally.0
    );
}
