//! Whole-network pruning-plan search.
//!
//! The §V loop ([`crate::PerfAwarePruner`]) trades one layer at a time
//! against a single budget. This module searches the *joint* space of
//! per-layer kept-channel configurations instead, with three solvers that
//! share one candidate space and one evaluator:
//!
//! - [`exhaustive_prune_to_latency`] — exact enumeration for small
//!   networks (ground truth for the others);
//! - [`search`] with [`SearchAlgo::Beam`] — seeded beam search expanding
//!   one ladder step per round;
//! - [`search`] with [`SearchAlgo::Evolve`] — seeded (μ+λ) evolutionary
//!   search with pure-hash mutation.
//!
//! All of them walk [`SearchSpace`] ladders (each layer's staircase
//! optimal points plus the unpruned count). Every ladder slot is measured
//! once through the shared [`LayerProfiler`] cache into per-layer
//! objective columns, so evaluating a plan costs table lookups, not cache
//! lookups or engine runs. Every random-looking choice — tie-breaking,
//! parent selection, mutation — is a splitmix64 hash of `(seed, position)`
//! with no RNG state and no clocks, so results are a pure function of
//! `(inputs, seed)` at any `--jobs` count.

mod archive;
mod engine;
mod exhaustive;

pub use archive::{ParetoArchive, ParetoPoint};
pub use engine::{search, SearchAlgo, SearchConfig, SearchOutcome};
pub use exhaustive::{exhaustive_prune_to_latency, ExactPlan};

use std::collections::HashMap;

use pruneperf_backends::ConvBackend;
use pruneperf_models::{ConvLayerSpec, Network};
use pruneperf_profiler::{sweep, LayerProfiler};

use crate::accuracy::{accuracy_after_loss, AccuracyModel};
use crate::PerfAwarePruner;

/// The joint candidate space: one ladder of `(kept_channels, latency_ms)`
/// pairs per layer, in catalog (network) order, plus a table of every
/// ladder slot's latency, energy and accuracy-loss terms.
///
/// Each ladder is the layer's staircase optimal points (ascending kept
/// count) with the unpruned channel count appended when the staircase did
/// not already surface it. A *genome* is one ladder index per layer; the
/// unpruned network is [`SearchSpace::full_genome`].
#[derive(Debug, Clone)]
pub struct SearchSpace {
    layers: Vec<(String, Vec<(usize, f64)>)>,
    columns: ObjectiveColumns,
}

impl SearchSpace {
    /// Builds the ladders for `network` under `backend`, then tabulates
    /// their objective columns.
    pub fn build_for(
        profiler: &LayerProfiler,
        accuracy: &AccuracyModel,
        backend: &dyn ConvBackend,
        network: &Network,
    ) -> SearchSpace {
        let pruner = PerfAwarePruner::new(profiler, accuracy);
        let mut layers: Vec<(String, Vec<(usize, f64)>)> = Vec::new();
        for layer in network.layers() {
            let mut cands = pruner.candidates_for(backend, layer);
            let full_ms = profiler.measure(backend, layer).median_ms();
            if !cands.iter().any(|&(c, _)| c == layer.c_out()) {
                cands.push((layer.c_out(), full_ms));
            }
            layers.push((layer.label().to_string(), cands));
        }
        let columns = ObjectiveColumns::tabulate(profiler, accuracy, backend, network, &layers);
        SearchSpace { layers, columns }
    }

    /// Number of layers (genome length).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The candidate ladder for layer `i`, ascending in kept channels.
    pub fn ladder(&self, i: usize) -> &[(usize, f64)] {
        &self.layers[i].1
    }

    /// The label of layer `i`.
    pub fn label_of(&self, i: usize) -> &str {
        &self.layers[i].0
    }

    /// The per-slot objective terms of every ladder.
    pub(crate) fn columns(&self) -> &ObjectiveColumns {
        &self.columns
    }

    /// Size of the full cross product, wrapping modulo `usize::MAX + 1`:
    /// ResNet-50's space exceeds 64 bits, and the wrapped count is what
    /// the reports have always rendered.
    pub fn total_configs(&self) -> usize {
        self.layers
            .iter()
            .fold(1usize, |n, (_, c)| n.wrapping_mul(c.len()))
    }

    /// The genome selecting every layer's unpruned point.
    pub fn full_genome(&self) -> Vec<usize> {
        self.layers.iter().map(|(_, c)| c.len() - 1).collect()
    }

    /// Kept-channel map for a genome.
    ///
    /// # Panics
    ///
    /// Panics if the genome length or any index is out of range.
    pub fn kept_map(&self, genome: &[usize]) -> HashMap<String, usize> {
        assert_eq!(genome.len(), self.layers.len(), "genome length mismatch");
        genome
            .iter()
            .zip(&self.layers)
            .map(|(&slot, (label, cands))| (label.clone(), cands[slot].0))
            .collect()
    }

    /// Every genome in the cross product, odometer order.
    ///
    /// # Panics
    ///
    /// Panics if the space exceeds `max_configs` — enumeration is for
    /// small differential-test fixtures only.
    pub fn enumerate_within(&self, max_configs: usize) -> Vec<Vec<usize>> {
        // A checked product: the wrapped `total_configs` of a huge space
        // could land under the cap.
        let total = self
            .layers
            .iter()
            .try_fold(1usize, |n, (_, c)| n.checked_mul(c.len()));
        let Some(total) = total.filter(|&t| t <= max_configs) else {
            let shown = total.map_or_else(|| "more than usize::MAX".to_string(), |t| t.to_string());
            panic!("{shown} configurations exceed the enumeration cap {max_configs}");
        };
        let mut out = Vec::with_capacity(total);
        let mut indices = vec![0usize; self.layers.len()];
        loop {
            out.push(indices.clone());
            let mut i = 0;
            loop {
                if i == indices.len() {
                    return out;
                }
                indices[i] += 1;
                if indices[i] < self.layers[i].1.len() {
                    break;
                }
                indices[i] = 0;
                i += 1;
            }
        }
    }
}

/// Per-(layer, ladder slot) objective terms: each slot's latency, energy
/// and accuracy-loss term, looked up once per [`SearchSpace`] so that
/// scoring a genome — in the search or in a step of the §V greedy — costs
/// sums of table entries instead of cache lookups. The table holds the
/// base accuracy but no reference to the [`AccuracyModel`], so a space
/// can be stored and shared.
///
/// The sums keep the per-genome cache path's association bit for bit:
/// latency and energy add in layer order from `0.0`, and the loss adds in
/// label order from `0.0`, as [`AccuracyModel::accuracy_with`] does. Every
/// genome re-sums all layers; patching a parent's totals (subtract one
/// term, add another) would re-associate the floats and change bits.
#[derive(Debug, Clone)]
pub(crate) struct ObjectiveColumns {
    base_accuracy: f64,
    /// `slots[layer][slot]`, layers in catalog order.
    slots: Vec<Vec<SlotTerms>>,
    /// Layer indices in ascending label order.
    loss_order: Vec<usize>,
}

/// One ladder slot's contribution to each objective.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotTerms {
    pub(crate) latency_ms: f64,
    pub(crate) energy_mj: f64,
    loss: f64,
}

impl ObjectiveColumns {
    /// Measures every ladder slot: one batched measurement per layer, the
    /// energy of each slot from the same cache, and each slot's
    /// [`AccuracyModel::loss_term`].
    fn tabulate(
        profiler: &LayerProfiler,
        accuracy: &AccuracyModel,
        backend: &dyn ConvBackend,
        network: &Network,
        ladders: &[(String, Vec<(usize, f64)>)],
    ) -> Self {
        let slots = network
            .layers()
            .iter()
            .zip(ladders)
            .map(|(layer, (label, ladder))| {
                let specs: Vec<ConvLayerSpec> = ladder
                    .iter()
                    .map(|&(kept, _)| {
                        // lint: allow(unwrap) — ladder entries come from the layer's own staircase
                        layer.with_c_out(kept).expect("ladder count validated")
                    })
                    .collect();
                profiler
                    .measure_batch(backend, &specs)
                    .iter()
                    .zip(&specs)
                    .map(|(m, spec)| SlotTerms {
                        latency_ms: m.median_ms(),
                        energy_mj: profiler.energy_mj(backend, spec),
                        loss: accuracy.loss_term(label, spec.c_out()),
                    })
                    .collect()
            })
            .collect();
        let mut loss_order: Vec<usize> = (0..ladders.len()).collect();
        loss_order.sort_by(|&a, &b| ladders[a].0.cmp(&ladders[b].0));
        ObjectiveColumns {
            base_accuracy: accuracy.base_accuracy(),
            slots,
            loss_order,
        }
    }

    /// The terms of layer `layer` at ladder slot `slot`.
    pub(crate) fn slot(&self, layer: usize, slot: usize) -> SlotTerms {
        self.slots[layer][slot]
    }

    /// Summed `(latency_ms, energy_mj)` of one genome, in layer order.
    pub(crate) fn totals(&self, genome: &[usize]) -> (f64, f64) {
        genome
            .iter()
            .zip(&self.slots)
            .fold((0.0, 0.0), |(ms, mj), (&slot, column)| {
                (ms + column[slot].latency_ms, mj + column[slot].energy_mj)
            })
    }

    /// Estimated accuracy of one genome: its loss terms summed in label
    /// order.
    pub(crate) fn accuracy(&self, genome: &[usize]) -> f64 {
        let mut loss = 0.0;
        for &i in &self.loss_order {
            loss += self.slots[i][genome[i]].loss;
        }
        accuracy_after_loss(self.base_accuracy, loss)
    }

    /// The objective point of one genome.
    ///
    /// # Panics
    ///
    /// Panics if the genome length or any index is out of range.
    pub(crate) fn score(&self, genome: &[usize]) -> ParetoPoint {
        assert_eq!(genome.len(), self.slots.len(), "genome length mismatch");
        let (latency_ms, energy_mj) = self.totals(genome);
        ParetoPoint {
            latency_ms,
            energy_mj,
            accuracy: self.accuracy(genome),
        }
    }
}

/// Scores `genomes` in deterministic order from `space`'s table of
/// per-slot objective terms (built with the space, so no cache is read
/// here). The fan-out preserves input order, so the result is
/// byte-identical at any worker count `jobs`, and bit-identical to
/// [`search`]'s inline scoring. The profiler, accuracy model and backend
/// stay in the signature for existing callers, but the table already
/// holds everything they contribute; `space` must be built for `network`.
pub fn evaluate_genomes(
    _profiler: &LayerProfiler,
    _accuracy: &AccuracyModel,
    _backend: &dyn ConvBackend,
    network: &Network,
    space: &SearchSpace,
    genomes: &[Vec<usize>],
    jobs: usize,
) -> Vec<ParetoPoint> {
    assert_eq!(
        space.num_layers(),
        network.len(),
        "search space built for another network"
    );
    let columns = space.columns();
    // lint: allow(hot-root) — the per-genome closure only sums table entries; the table is built with the space, before the fan-out
    sweep::ordered_parallel_map(genomes, jobs, |genome| columns.score(genome))
}

/// The splitmix64 finalizer: a bijective avalanche mix. All search
/// tie-breaking and mutation decisions hash `(seed, position)` through
/// this, so there is no RNG state to share and no iteration-order
/// dependence.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds a sequence of words into one hash via repeated splitmix rounds.
pub(crate) fn mix(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(0x9e37_79b9_7f4a_7c15u64, |h, &p| splitmix64(h ^ p))
}

/// Hash of a genome for tie-breaking, keyed by the search seed.
pub(crate) fn genome_hash(seed: u64, genome: &[usize]) -> u64 {
    genome
        .iter()
        .fold(splitmix64(seed), |h, &g| splitmix64(h ^ g as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use pruneperf_backends::AclGemm;
    use pruneperf_gpusim::Device;

    #[test]
    fn space_matches_network_shape_and_enumerates_fully() {
        let net = testkit::tiny_net();
        let d = Device::mali_g72_hikey970();
        let (p, a) = testkit::noiseless_setup(&net, &d);
        let space = SearchSpace::build_for(&p, &a, &AclGemm::new(), &net);
        assert_eq!(space.num_layers(), net.len());
        let all = space.enumerate_within(100_000);
        assert_eq!(all.len(), space.total_configs());
        assert_eq!(all.last().unwrap(), &space.full_genome());
    }

    #[test]
    fn evaluation_is_schedule_independent() {
        let net = testkit::tiny_net();
        let d = Device::jetson_nano();
        let (p, a) = testkit::noiseless_setup(&net, &d);
        let backend = AclGemm::new();
        let space = SearchSpace::build_for(&p, &a, &backend, &net);
        let genomes = space.enumerate_within(100_000);
        let one = evaluate_genomes(&p, &a, &backend, &net, &space, &genomes, 1);
        let eight = evaluate_genomes(&p, &a, &backend, &net, &space, &genomes, 8);
        assert_eq!(one.len(), eight.len());
        for (x, y) in one.iter().zip(&eight) {
            assert_eq!(x.latency_ms.to_bits(), y.latency_ms.to_bits());
            assert_eq!(x.energy_mj.to_bits(), y.energy_mj.to_bits());
            assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits());
        }
    }

    #[test]
    fn splitmix_is_stable() {
        // Pin a few values so the tie-break function can never drift
        // silently (goldens depend on it transitively).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
    }
}
