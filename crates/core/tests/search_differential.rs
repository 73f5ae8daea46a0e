//! Differential harness for the whole-network search (PR 10 satellite).
//!
//! On the exhaustively-enumerable `testkit::micro_net` fixture, for seeds
//! 1–5 on all four paper devices:
//!
//! 1. the beam front is a **subset of the true Pareto front** (every
//!    archived point is bitwise-identical to a point of the enumerated
//!    non-dominated set);
//! 2. every `exhaustive_prune_to_latency` optimum is **matched or
//!    dominated** by some beam-front plan;
//! 3. on `testkit::ragged_net` (built so coarse Mali staircase quanta
//!    trip one-layer-at-a-time trading) the beam front **strictly
//!    dominates the greedy** `prune_to_latency` plan in all three
//!    objectives with a genuine >0.1% latency margin on the two Mali
//!    devices, while greedy is exhaustively verified optimal on the two
//!    CUDA devices.
//!
//! Beam widths (and, for the beats-greedy fixture, budgets) are tuned per
//! device so the beam covers enough of each space; they are part of the
//! pinned fixture.

use std::collections::HashMap;
use std::sync::Arc;

use pruneperf_backends::AclGemm;
use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::search::{
    evaluate_genomes, exhaustive_prune_to_latency, search, ParetoPoint, SearchAlgo, SearchConfig,
    SearchOutcome, SearchSpace,
};
use pruneperf_core::testkit;
use pruneperf_core::{PerfAwarePruner, PruningPlan};
use pruneperf_gpusim::Device;
use pruneperf_models::ConvLayerSpec;
use pruneperf_profiler::{sweep, LatencyCache, LayerProfiler};

const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
const ENUM_CAP: usize = 100_000;

/// `(device, beam width)` — width is part of the checked-in fixture.
fn devices_and_widths() -> Vec<(Device, usize)> {
    let mut all = Device::all_paper_devices().into_iter();
    let hikey = all.next().unwrap();
    let odroid = all.next().unwrap();
    let tx2 = all.next().unwrap();
    let nano = all.next().unwrap();
    vec![(hikey, 16), (odroid, 96), (tx2, 16), (nano, 24)]
}

fn point_of(plan: &PruningPlan) -> ParetoPoint {
    ParetoPoint {
        latency_ms: plan.latency_ms(),
        energy_mj: plan.energy_mj(),
        accuracy: plan.accuracy(),
    }
}

fn bits(p: &ParetoPoint) -> (u64, u64, u64) {
    (
        p.latency_ms.to_bits(),
        p.energy_mj.to_bits(),
        p.accuracy.to_bits(),
    )
}

/// The enumerated true Pareto front of the fixture space.
fn true_front(
    profiler: &pruneperf_profiler::LayerProfiler,
    accuracy: &pruneperf_core::accuracy::AccuracyModel,
    backend: &AclGemm,
    network: &pruneperf_models::Network,
    space: &SearchSpace,
) -> Vec<ParetoPoint> {
    let all = space.enumerate_within(ENUM_CAP);
    let pts = evaluate_genomes(profiler, accuracy, backend, network, space, &all, 8);
    pts.iter()
        .copied()
        .filter(|q| !pts.iter().any(|o| o.dominates(q)))
        .collect()
}

fn beam(
    profiler: &pruneperf_profiler::LayerProfiler,
    accuracy: &pruneperf_core::accuracy::AccuracyModel,
    backend: &AclGemm,
    network: &pruneperf_models::Network,
    seed: u64,
    width: usize,
) -> SearchOutcome {
    search(
        profiler,
        accuracy,
        backend,
        network,
        &SearchConfig {
            algo: SearchAlgo::Beam,
            seed,
            beam_width: width,
            generations: 12,
        },
    )
}

#[test]
fn beam_front_is_a_subset_of_the_true_pareto_front() {
    let net = testkit::micro_net();
    let backend = AclGemm::new();
    for (device, width) in devices_and_widths() {
        let (p, a) = testkit::noiseless_setup(&net, &device);
        let space = SearchSpace::build_for(&p, &a, &backend, &net);
        let truth = true_front(&p, &a, &backend, &net, &space);
        let truth_bits: Vec<(u64, u64, u64)> = truth.iter().map(bits).collect();
        for seed in SEEDS {
            let out = beam(&p, &a, &backend, &net, seed, width);
            assert!(out.archived > 0, "{}: empty front", device.name());
            for plan in &out.plans {
                let q = bits(&point_of(plan));
                assert!(
                    truth_bits.contains(&q),
                    "{} seed {seed}: beam plan {:?} not on the true front",
                    device.name(),
                    plan.kept_channels()
                );
            }
        }
    }
}

#[test]
fn exhaustive_optima_are_matched_or_dominated_by_the_beam_front() {
    let net = testkit::micro_net();
    let backend = AclGemm::new();
    for (device, width) in devices_and_widths() {
        let (p, a) = testkit::noiseless_setup(&net, &device);
        for seed in SEEDS {
            let out = beam(&p, &a, &backend, &net, seed, width);
            for budget in [0.9, 0.8, 0.7, 0.6] {
                let Some(exact) =
                    exhaustive_prune_to_latency(&p, &a, &backend, &net, budget, ENUM_CAP)
                else {
                    continue;
                };
                // The exact optimum's objective point: re-measure energy
                // through the same evaluator paths the beam uses.
                let space = SearchSpace::build_for(&p, &a, &backend, &net);
                let genome: Vec<usize> = (0..space.num_layers())
                    .map(|i| {
                        let want = exact.kept[space.label_of(i)];
                        space
                            .ladder(i)
                            .iter()
                            .position(|&(c, _)| c == want)
                            .expect("exact optimum picks ladder points")
                    })
                    .collect();
                let ex = evaluate_genomes(&p, &a, &backend, &net, &space, &[genome], 1)[0];
                let covered = out.plans.iter().any(|plan| {
                    let q = point_of(plan);
                    bits(&q) == bits(&ex) || q.dominates(&ex)
                });
                assert!(
                    covered,
                    "{} seed {seed} budget {budget}: exhaustive optimum not covered",
                    device.name()
                );
            }
        }
    }
}

/// `(device, greedy budget, beam width)` for the beats-greedy fixture.
/// Budgets are per-device because greedy's failure mode is budget-shaped:
/// its last one-layer trade overshoots where the device's staircase
/// quanta are coarse. On the CUDA devices the ladders are smooth and
/// greedy stays optimal at every probed budget — that contrast is pinned
/// below rather than hidden.
fn ragged_fixture() -> Vec<(Device, f64, usize)> {
    let mut all = Device::all_paper_devices().into_iter();
    let hikey = all.next().unwrap();
    let odroid = all.next().unwrap();
    let tx2 = all.next().unwrap();
    let nano = all.next().unwrap();
    vec![
        (hikey, 0.8, 16),
        (odroid, 0.6, 96),
        (tx2, 0.8, 16),
        (nano, 0.8, 24),
    ]
}

/// A beam plan "genuinely beats" greedy when it dominates in all three
/// objectives AND the latency win clears a 0.1% margin — summation-order
/// noise on an identical plan is ulps, never 0.1%.
const GENUINE_MARGIN: f64 = 0.999;

#[test]
fn beam_front_strictly_dominates_greedy_on_at_least_two_devices() {
    let net = testkit::ragged_net();
    let backend = AclGemm::new();
    let mut beaten: Vec<String> = Vec::new();
    for (device, budget, width) in ragged_fixture() {
        let (p, a) = testkit::noiseless_setup(&net, &device);
        let greedy = PerfAwarePruner::new(&p, &a).prune_to_latency(&backend, &net, budget);
        let gpt = point_of(&greedy);
        let mut beats_on_every_seed = true;
        for seed in SEEDS {
            let out = beam(&p, &a, &backend, &net, seed, width);
            let dominated = out.plans.iter().any(|plan| {
                let q = point_of(plan);
                q.dominates(&gpt) && q.latency_ms < gpt.latency_ms * GENUINE_MARGIN
            });
            if !dominated {
                beats_on_every_seed = false;
            }
        }
        if beats_on_every_seed {
            beaten.push(device.name().to_string());
        }
    }
    assert!(
        beaten.len() >= 2,
        "beam should strictly dominate greedy on ≥2 devices, got {beaten:?}"
    );
    // Pin the fixture's actual winners so a regression that flips one
    // device is visible, not silently absorbed by the ≥2 bound. The CUDA
    // devices are pinned as non-winners: greedy is provably optimal there
    // (see `greedy_is_optimal_on_the_cuda_devices`), so a "win" appearing
    // on them would mean the margin predicate broke.
    assert_eq!(
        beaten,
        vec![
            "HiKey 970 (Mali G72 MP12)".to_string(),
            "Odroid XU4 (Mali T628 MP6)".to_string()
        ],
        "beats-greedy winner set drifted"
    );
}

/// The flip side of the beats-greedy pin: on the CUDA devices the
/// enumerated space contains no plan that beats greedy's point by the
/// genuine margin at equal-or-better accuracy, so greedy is optimal there
/// and the beam's job is only to match it (covered by the exhaustive
/// test above).
#[test]
fn greedy_is_optimal_on_the_cuda_devices() {
    let net = testkit::ragged_net();
    let backend = AclGemm::new();
    for (device, budget, _) in ragged_fixture() {
        if !device.name().contains("Jetson") {
            continue;
        }
        let (p, a) = testkit::noiseless_setup(&net, &device);
        let greedy = PerfAwarePruner::new(&p, &a).prune_to_latency(&backend, &net, budget);
        let gpt = point_of(&greedy);
        let space = SearchSpace::build_for(&p, &a, &backend, &net);
        let all = space.enumerate_within(ENUM_CAP);
        let pts = evaluate_genomes(&p, &a, &backend, &net, &space, &all, 8);
        assert!(
            !pts.iter()
                .any(|q| q.accuracy >= gpt.accuracy
                    && q.latency_ms < gpt.latency_ms * GENUINE_MARGIN),
            "{}: greedy unexpectedly suboptimal — update the pinned winner set",
            device.name()
        );
    }
}

/// Evolve is heuristic; it must stay internally consistent (conservation,
/// non-dominated front, reproducibility) and its front must never contain
/// a point off the true front *when the point claims a true-front triple*…
/// concretely: every evolve front point must be non-dominated within the
/// full enumerated space OR dominated only by points the archive never saw.
/// We assert the cheap invariants here; subset is beam's contract.
#[test]
fn evolve_is_conserved_and_reproducible_on_all_devices() {
    let net = testkit::micro_net();
    let backend = AclGemm::new();
    for (device, width) in devices_and_widths() {
        let (p, a) = testkit::noiseless_setup(&net, &device);
        let cfg = SearchConfig {
            algo: SearchAlgo::Evolve,
            seed: 1,
            beam_width: width.min(24),
            generations: 10,
        };
        let once = search(&p, &a, &backend, &net, &cfg);
        let twice = search(&p, &a, &backend, &net, &cfg);
        assert_eq!(
            once.evaluated,
            once.archived as u64 + once.dominated + once.duplicates,
            "{}: conservation",
            device.name()
        );
        let key = |o: &SearchOutcome| -> Vec<(u64, u64, u64)> {
            o.plans.iter().map(|pl| bits(&point_of(pl))).collect()
        };
        assert_eq!(
            key(&once),
            key(&twice),
            "{}: reproducibility",
            device.name()
        );
        for (i, x) in once.plans.iter().enumerate() {
            for (j, y) in once.plans.iter().enumerate() {
                if i != j {
                    assert!(
                        !point_of(x).dominates(&point_of(y)),
                        "{}: evolve front self-domination",
                        device.name()
                    );
                }
            }
        }
    }
}

/// The per-genome scoring the objective columns replaced: every layer's
/// pruned spec measured through the cache's batched path, its energy
/// from the same cache, accuracy from the full kept-channel map.
fn cache_path_point(
    profiler: &LayerProfiler,
    accuracy: &AccuracyModel,
    backend: &AclGemm,
    network: &pruneperf_models::Network,
    space: &SearchSpace,
    genome: &[usize],
) -> ParetoPoint {
    let specs: Vec<ConvLayerSpec> = network
        .layers()
        .iter()
        .zip(genome.iter().enumerate())
        .map(|(layer, (i, &slot))| layer.with_c_out(space.ladder(i)[slot].0).unwrap())
        .collect();
    let latency_ms: f64 = profiler
        .measure_batch(backend, &specs)
        .iter()
        .map(|m| m.median_ms())
        .sum();
    let energy_mj: f64 = specs.iter().map(|s| profiler.energy_mj(backend, s)).sum();
    ParetoPoint {
        latency_ms,
        energy_mj,
        accuracy: accuracy.accuracy_with(&space.kept_map(genome)),
    }
}

/// Asserts `evaluate_genomes` reproduces [`cache_path_point`] bit for
/// bit on `device`, noiseless and with seeded jitter, at 1 and 8 workers.
fn assert_columns_match_the_cache_path(
    net: &pruneperf_models::Network,
    device: &Device,
    genomes_of: impl Fn(&SearchSpace) -> Vec<Vec<usize>>,
) {
    let backend = AclGemm::new();
    let accuracy = AccuracyModel::for_network(net);
    let profilers = [
        ("noiseless", LayerProfiler::noiseless(device)),
        ("noisy", LayerProfiler::new(device)),
    ];
    for (noise, profiler) in profilers {
        let profiler = profiler.with_cache(Arc::new(LatencyCache::new()));
        let space = SearchSpace::build_for(&profiler, &accuracy, &backend, net);
        let genomes = genomes_of(&space);
        let oracle: Vec<(u64, u64, u64)> = genomes
            .iter()
            .map(|g| {
                bits(&cache_path_point(
                    &profiler, &accuracy, &backend, net, &space, g,
                ))
            })
            .collect();
        for jobs in [1, 8] {
            let got = evaluate_genomes(&profiler, &accuracy, &backend, net, &space, &genomes, jobs);
            let got: Vec<(u64, u64, u64)> = got.iter().map(bits).collect();
            assert!(
                got == oracle,
                "{} on {} {noise} jobs {jobs}: columns drift from the cache path",
                net.name(),
                device.name()
            );
        }
    }
}

#[test]
fn objective_columns_match_the_per_genome_cache_path_bitwise() {
    let tiny = testkit::tiny_net();
    for device in Device::all_paper_devices() {
        assert_columns_match_the_cache_path(&tiny, &device, |space| {
            space.enumerate_within(ENUM_CAP)
        });
    }
    // ResNet-50's labels sort apart from its layer order ("ResNet.L10"
    // before "ResNet.L2"), which pins the loss sum's label order; its
    // space is sampled by a seeded hash.
    let resnet = pruneperf_models::resnet50();
    assert_columns_match_the_cache_path(&resnet, &Device::mali_g72_hikey970(), |space| {
        (0..256u64)
            .map(|k| {
                (0..space.num_layers())
                    .map(|l| {
                        let h =
                            (k * 0x9e37_79b9 + l as u64 * 0x85eb_ca6b).wrapping_mul(0xc2b2_ae35);
                        (h >> 16) as usize % space.ladder(l).len()
                    })
                    .collect()
            })
            .collect()
    });
}

#[test]
fn accuracy_is_the_label_ordered_sum_of_loss_terms() {
    let net = pruneperf_models::resnet50();
    let model = AccuracyModel::for_network(&net);
    let mut labels: Vec<&str> = net.layers().iter().map(|l| l.label()).collect();
    labels.sort_unstable();
    let maps: Vec<HashMap<String, usize>> = [0usize, 1, 2, 3]
        .iter()
        .map(|&variant| {
            net.layers()
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    let kept = match variant {
                        0 => l.c_out(),
                        1 => l.c_out() / 2,
                        2 => 1 + (i * 37) % l.c_out(),
                        _ => l.c_out() - (i * 11) % (l.c_out() / 4),
                    };
                    (l.label().to_string(), kept)
                })
                .collect()
        })
        .collect();
    for kept in &maps {
        let mut loss = 0.0;
        for label in &labels {
            loss += model.loss_term(label, kept[*label]);
        }
        assert_eq!(
            model.accuracy_with(kept).to_bits(),
            model.accuracy_from_loss(loss).to_bits()
        );
    }
}

/// FNV-1a over the front's objective bits in front order — the digest
/// the wall-clock benchmark records per seed and device.
fn front_digest(outcome: &SearchOutcome) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for plan in &outcome.plans {
        for x in [plan.latency_ms(), plan.energy_mj(), plan.accuracy()] {
            for byte in x.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!("{h:016x}")
}

/// The large ResNet-50 beam fronts (thousands of points, so the archive
/// splits and retires across many blocks) reproduce the counters and
/// front digest recorded for seed 1.
#[test]
fn resnet50_beam_fronts_match_the_recorded_counters_and_digest() {
    sweep::set_sweep_jobs(2);
    let net = pruneperf_models::resnet50();
    let accuracy = AccuracyModel::for_network(&net);
    let cases = [
        (
            Device::mali_g72_hikey970(),
            60_547,
            7_552,
            52_995,
            442,
            "9e2d94390e2cb0ef",
        ),
        (
            Device::jetson_tx2(),
            40_100,
            4_366,
            35_734,
            337,
            "9d5a6da96faa6df3",
        ),
    ];
    for (device, evaluated, front, dominated, rounds, digest) in cases {
        let profiler = LayerProfiler::noiseless(&device).with_cache(Arc::new(LatencyCache::new()));
        let config = SearchConfig {
            seed: 1,
            ..SearchConfig::default()
        };
        let out = search(&profiler, &accuracy, &AclGemm::new(), &net, &config);
        let got = (
            out.evaluated,
            out.archived,
            out.dominated,
            out.rounds,
            front_digest(&out),
        );
        assert_eq!(
            got,
            (evaluated, front, dominated, rounds, digest.to_string()),
            "{}",
            device.name()
        );
    }
}
