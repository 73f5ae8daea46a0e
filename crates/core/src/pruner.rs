use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use pruneperf_backends::ConvBackend;
use pruneperf_models::{ConvLayerSpec, Network};
use pruneperf_profiler::LayerProfiler;

use crate::accuracy::AccuracyModel;
use crate::search::SearchSpace;
use crate::{pareto_front, Staircase};

/// The cost the §V greedy trades accuracy against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Summed per-layer median latency ([`PerfAwarePruner::prune_to_latency`]).
    Latency,
    /// Summed per-layer modelled energy ([`PerfAwarePruner::prune_to_energy`]).
    Energy,
}

impl Objective {
    /// The wire and CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Objective::Latency => "latency",
            Objective::Energy => "energy",
        }
    }
}

/// A concrete pruning decision for a whole network: how many channels each
/// layer keeps, and the resulting (estimated) latency and accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruningPlan {
    policy: String,
    backend: String,
    device: String,
    network: String,
    kept: HashMap<String, usize>,
    latency_ms: f64,
    energy_mj: f64,
    accuracy: f64,
}

impl PruningPlan {
    /// Assembles a plan from already-measured parts. Crate-internal: only
    /// the pruners and the whole-network search construct plans, and both
    /// are required to have measured `(latency, energy, accuracy)` through
    /// the same profiler paths the accessors document.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        policy: &str,
        backend: &str,
        device: &str,
        network: &str,
        kept: HashMap<String, usize>,
        latency_ms: f64,
        energy_mj: f64,
        accuracy: f64,
    ) -> Self {
        PruningPlan {
            policy: policy.to_string(),
            backend: backend.to_string(),
            device: device.to_string(),
            network: network.to_string(),
            kept,
            latency_ms,
            energy_mj,
            accuracy,
        }
    }

    /// Policy that produced the plan (`"performance-aware"` / `"uninstructed"`).
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// Backend the plan was profiled with.
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// Device the plan was profiled on.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Network the plan applies to.
    pub fn network(&self) -> &str {
        &self.network
    }

    /// Kept channel count per layer label.
    pub fn kept_channels(&self) -> &HashMap<String, usize> {
        &self.kept
    }

    /// Sum of per-layer median latencies (unique layers, batch 1), ms.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ms
    }

    /// Sum of per-layer modelled energies, mJ.
    pub fn energy_mj(&self) -> f64 {
        self.energy_mj
    }

    /// Estimated accuracy under the surrogate model.
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Kept channels for one layer.
    pub fn kept_for(&self, label: &str) -> Option<usize> {
        self.kept.get(label).copied()
    }
}

impl fmt::Display for PruningPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} plan for {} ({} on {}): {:.2} ms, accuracy {:.4}",
            self.policy, self.network, self.backend, self.device, self.latency_ms, self.accuracy
        )
    }
}

/// Measures the summed latency and energy of a per-layer keep map.
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
            // lint: allow(unwrap) — kept counts never exceed the catalog c_out
            let layer = l.with_c_out(c).expect("keep count validated");
            (
                profiler.measure(backend, &layer).median_ms(),
                profiler.energy_mj(backend, &layer),
            )
        })
        .fold((0.0, 0.0), |(ms, mj), (m, j)| (ms + m, mj + j))
}

/// The paper's proposal (§V): profile each layer's staircase on the target
/// device, restrict pruning to the **optimal points** (right step edges),
/// and couple the choice with the accuracy model to meet a latency budget
/// at the least accuracy cost.
///
/// ```
/// use pruneperf_backends::Cudnn;
/// use pruneperf_core::{accuracy::AccuracyModel, PerfAwarePruner};
/// use pruneperf_gpusim::Device;
/// use pruneperf_models::alexnet;
/// use pruneperf_profiler::LayerProfiler;
///
/// let device = Device::jetson_tx2();
/// let network = alexnet();
/// let profiler = LayerProfiler::noiseless(&device);
/// let accuracy = AccuracyModel::for_network(&network);
/// let pruner = PerfAwarePruner::new(&profiler, &accuracy);
/// let plan = pruner.prune_to_latency(&Cudnn::new(), &network, 0.9);
/// assert!(plan.latency_ms() > 0.0);
/// assert!(plan.accuracy() <= accuracy.base_accuracy());
/// ```
#[derive(Debug, Clone)]
pub struct PerfAwarePruner<'a> {
    profiler: &'a LayerProfiler,
    accuracy: &'a AccuracyModel,
}

impl<'a> PerfAwarePruner<'a> {
    /// Creates a pruner bound to a profiler (device) and accuracy model.
    pub fn new(profiler: &'a LayerProfiler, accuracy: &'a AccuracyModel) -> Self {
        PerfAwarePruner { profiler, accuracy }
    }

    /// The pruning candidates for one layer: channel counts on the right
    /// edges of the profiled staircase (ascending).
    pub fn candidates_for(
        &self,
        backend: &dyn ConvBackend,
        layer: &pruneperf_models::ConvLayerSpec,
    ) -> Vec<(usize, f64)> {
        let curve = self
            .profiler
            .latency_curve(backend, layer, 1..=layer.c_out());
        Staircase::detect(&curve)
            .optimal_points()
            .iter()
            .map(|p| (p.channels, p.ms))
            .collect()
    }

    /// Prunes `network` until its summed layer latency is at most
    /// `budget_fraction` of the unpruned latency, spending as little
    /// accuracy as possible (greedy best latency-saved-per-accuracy-lost).
    ///
    /// Builds the staircase ladders and runs [`PerfAwarePruner::prune_over`];
    /// callers planning one network repeatedly should build the
    /// [`SearchSpace`] once and call `prune_over` directly.
    ///
    /// # Panics
    ///
    /// Panics if `budget_fraction` is not in `(0, 1]`.
    pub fn prune_to_latency(
        &self,
        backend: &dyn ConvBackend,
        network: &Network,
        budget_fraction: f64,
    ) -> PruningPlan {
        let space = SearchSpace::build_for(self.profiler, self.accuracy, backend, network);
        self.prune_over(
            &space,
            backend,
            network,
            Objective::Latency,
            budget_fraction,
        )
    }

    /// Energy-aware variant of [`PerfAwarePruner::prune_to_latency`]: same
    /// staircase-derived candidates, but the greedy trades accuracy for
    /// *energy* until the plan's energy is at most `budget_fraction` of the
    /// unpruned network's. The paper motivates embedded GPUs by “FLOPS per
    /// watt” (§I); this is the natural extension of the §V loop.
    ///
    /// # Panics
    ///
    /// Panics if `budget_fraction` is not in `(0, 1]`.
    pub fn prune_to_energy(
        &self,
        backend: &dyn ConvBackend,
        network: &Network,
        budget_fraction: f64,
    ) -> PruningPlan {
        let space = SearchSpace::build_for(self.profiler, self.accuracy, backend, network);
        self.prune_over(&space, backend, network, Objective::Energy, budget_fraction)
    }

    /// The §V greedy over prebuilt ladders: starting unpruned, repeatedly
    /// take the ladder step with the most `objective` saved per accuracy
    /// lost until the summed cost is at most `budget_fraction` of the
    /// unpruned network's.
    ///
    /// `space` must be [`SearchSpace::build_for`] of this profiler's
    /// device, `backend` and `network`; it is a pure function of those, so
    /// a caller may build it once and plan any number of budgets over it.
    /// Only ladder points strictly below a layer's current count are
    /// candidates, so the unpruned point the space appends is never taken.
    ///
    /// # Panics
    ///
    /// Panics if `budget_fraction` is not in `(0, 1]` or `space` has a
    /// different layer count than `network`.
    pub fn prune_over(
        &self,
        space: &SearchSpace,
        backend: &dyn ConvBackend,
        network: &Network,
        objective: Objective,
        budget_fraction: f64,
    ) -> PruningPlan {
        assert!(
            budget_fraction > 0.0 && budget_fraction <= 1.0,
            "budget fraction must be in (0, 1]"
        );
        let layers = network.layers();
        assert_eq!(
            space.num_layers(),
            layers.len(),
            "search space built for another network"
        );
        let layer_cost = |layer: &ConvLayerSpec| match objective {
            Objective::Latency => self.profiler.measure(backend, layer).median_ms(),
            Objective::Energy => self.profiler.energy_mj(backend, layer),
        };
        let mut kept: HashMap<String, usize> = layers
            .iter()
            .map(|l| (l.label().to_string(), l.c_out()))
            .collect();
        // Per-layer cost and search in catalog order, not hash order: float
        // sums are order-sensitive and the greedy's `>` tie-break keeps the
        // first candidate seen, so hash-order iteration would vary across
        // runs.
        let mut per_layer: Vec<f64> = layers.iter().map(layer_cost).collect();
        let total0: f64 = per_layer.iter().sum();
        let budget = total0 * budget_fraction;
        let mut total = total0;
        let mut acc = self.accuracy.accuracy_with(&kept);

        while total > budget {
            // Best next move: largest cost saved per accuracy lost.
            let mut best: Option<(usize, usize, f64, f64, f64)> = None; // layer, c, cost, d_cost, d_acc
            for (i, layer) in layers.iter().enumerate() {
                let label = layer.label();
                let cur_c = kept[label];
                let cur = per_layer[i];
                // Next candidate strictly below the current count that saves cost.
                let next = space
                    .ladder(i)
                    .iter()
                    .rev()
                    .filter(|&&(c, _)| c < cur_c)
                    .find_map(|&(c, ms)| {
                        let cost = match objective {
                            Objective::Latency => ms,
                            Objective::Energy => {
                                // lint: allow(unwrap) — ladder counts come from 1..=c_out
                                let pruned = layer.with_c_out(c).expect("ladder in range");
                                layer_cost(&pruned)
                            }
                        };
                        (cost < cur).then_some((c, cost))
                    });
                if let Some((c, cost)) = next {
                    let mut trial = kept.clone();
                    trial.insert(label.to_string(), c);
                    let new_acc = self.accuracy.accuracy_with(&trial);
                    let d_cost = cur - cost;
                    let d_acc = (acc - new_acc).max(1e-9);
                    if best.as_ref().is_none_or(|b| d_cost / d_acc > b.3 / b.4) {
                        best = Some((i, c, cost, d_cost, d_acc));
                    }
                }
            }
            let Some((i, c, cost, _, _)) = best else {
                break; // no further beneficial moves
            };
            total -= per_layer[i] - cost;
            per_layer[i] = cost;
            kept.insert(layers[i].label().to_string(), c);
            acc = self.accuracy.accuracy_with(&kept);
        }

        let (latency_ms, energy_mj) = plan_cost(self.profiler, backend, network, &kept);
        let (policy, latency_ms) = match objective {
            // The latency plan reports the greedy's running total.
            Objective::Latency => ("performance-aware", total),
            Objective::Energy => ("energy-aware", latency_ms),
        };
        PruningPlan::from_parts(
            policy,
            backend.name(),
            self.profiler.device().name(),
            network.name(),
            kept,
            latency_ms,
            energy_mj,
            acc,
        )
    }

    /// Plans at several latency budgets, reduced to the Pareto front over
    /// (latency, accuracy) — the search-space reduction of §V (“by
    /// profiling, we can reduce the search space to the ones with superior
    /// speedup to test for accuracy”).
    pub fn pareto_plans(
        &self,
        backend: &dyn ConvBackend,
        network: &Network,
        budget_fractions: &[f64],
    ) -> Vec<PruningPlan> {
        let space = SearchSpace::build_for(self.profiler, self.accuracy, backend, network);
        let plans: Vec<PruningPlan> = budget_fractions
            .iter()
            .map(|&f| self.prune_over(&space, backend, network, Objective::Latency, f))
            .collect();
        let metric: Vec<(f64, f64)> = plans
            .iter()
            .map(|p| (p.latency_ms(), p.accuracy()))
            .collect();
        pareto_front(&metric)
            .into_iter()
            .map(|i| plans[i].clone())
            .collect()
    }
}

/// The status-quo baseline (§I): pick a pruning distance from accuracy
/// considerations alone, “agnostic to target devices, expecting that having
/// a smaller number of network parameters will lead to faster inference”.
#[derive(Debug, Clone)]
pub struct UninstructedPruner<'a> {
    profiler: &'a LayerProfiler,
    accuracy: &'a AccuracyModel,
}

impl<'a> UninstructedPruner<'a> {
    /// Creates the baseline pruner.
    pub fn new(profiler: &'a LayerProfiler, accuracy: &'a AccuracyModel) -> Self {
        UninstructedPruner { profiler, accuracy }
    }

    /// Prunes every layer by the same channel distance (layers narrower
    /// than the distance are left unpruned), ignoring the device entirely.
    pub fn prune_by_distance(
        &self,
        backend: &dyn ConvBackend,
        network: &Network,
        distance: usize,
    ) -> PruningPlan {
        let kept: HashMap<String, usize> = network
            .layers()
            .iter()
            .map(|l| {
                let c = if l.c_out() > distance {
                    l.c_out() - distance
                } else {
                    l.c_out()
                };
                (l.label().to_string(), c)
            })
            .collect();
        let (latency_ms, energy_mj) = plan_cost(self.profiler, backend, network, &kept);
        let accuracy = self.accuracy.accuracy_with(&kept);
        PruningPlan {
            policy: "uninstructed".into(),
            backend: backend.name().to_string(),
            device: self.profiler.device().name().to_string(),
            network: network.name().to_string(),
            kept,
            latency_ms,
            energy_mj,
            accuracy,
        }
    }

    /// Prunes every layer to the same *fraction* of its channels.
    ///
    /// # Panics
    ///
    /// Panics if `keep_fraction` is not in `(0, 1]`.
    pub fn prune_to_fraction(
        &self,
        backend: &dyn ConvBackend,
        network: &Network,
        keep_fraction: f64,
    ) -> PruningPlan {
        assert!(
            keep_fraction > 0.0 && keep_fraction <= 1.0,
            "keep fraction must be in (0, 1]"
        );
        let kept: HashMap<String, usize> = network
            .layers()
            .iter()
            .map(|l| {
                let c = ((l.c_out() as f64 * keep_fraction).round() as usize).max(1);
                (l.label().to_string(), c)
            })
            .collect();
        let (latency_ms, energy_mj) = plan_cost(self.profiler, backend, network, &kept);
        let accuracy = self.accuracy.accuracy_with(&kept);
        PruningPlan {
            policy: "uninstructed".into(),
            backend: backend.name().to_string(),
            device: self.profiler.device().name().to_string(),
            network: network.name().to_string(),
            kept,
            latency_ms,
            energy_mj,
            accuracy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::tiny_net;
    use pruneperf_backends::{AclDirect, AclGemm};
    use pruneperf_gpusim::Device;

    fn setup(device: &Device) -> (LayerProfiler, AccuracyModel) {
        crate::testkit::noiseless_setup(&tiny_net(), device)
    }

    #[test]
    fn candidates_avoid_split_sizes() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let layer = tiny_net().layer("T.L1").unwrap().clone();
        let cands = pruner.candidates_for(&AclGemm::new(), &layer);
        assert!(!cands.is_empty());
        for (c, _) in &cands {
            let c4 = c.div_ceil(4) * 4;
            assert_eq!(c4 % 8, 0, "candidate {c} lies on the slow staircase");
        }
    }

    #[test]
    fn budget_is_met_and_accuracy_traded() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let net = tiny_net();
        let plan = pruner.prune_to_latency(&AclGemm::new(), &net, 0.7);
        let full = UninstructedPruner::new(&p, &a).prune_by_distance(&AclGemm::new(), &net, 0);
        assert!(
            plan.latency_ms() <= full.latency_ms() * 0.7 * 1.001,
            "budget missed: {} vs {}",
            plan.latency_ms(),
            full.latency_ms() * 0.7
        );
        assert!(plan.accuracy() < a.base_accuracy());
        assert!(
            plan.accuracy() > 0.5,
            "accuracy collapsed: {}",
            plan.accuracy()
        );
        assert_eq!(plan.policy(), "performance-aware");
    }

    #[test]
    fn trivial_budget_means_no_pruning() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let plan = pruner.prune_to_latency(&AclGemm::new(), &tiny_net(), 1.0);
        for l in tiny_net().layers() {
            assert_eq!(plan.kept_for(l.label()), Some(l.c_out()));
        }
        assert!((plan.accuracy() - a.base_accuracy()).abs() < 1e-12);
    }

    /// The paper's core claim: uninstructed pruning can be *slower* than
    /// the unpruned network, while the performance-aware plan at equal or
    /// better accuracy is faster.
    #[test]
    fn uninstructed_can_backfire_perf_aware_does_not() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let backend = AclDirect::new();
        let net = tiny_net();
        let uninstructed = UninstructedPruner::new(&p, &a);
        let t_full = uninstructed
            .prune_by_distance(&backend, &net, 0)
            .latency_ms();
        // Pruning one channel everywhere: odd counts, slow level.
        let bad = uninstructed.prune_by_distance(&backend, &net, 1);
        assert!(
            bad.latency_ms() > t_full,
            "uninstructed prune-by-1 should backfire: {} vs {}",
            bad.latency_ms(),
            t_full
        );
        // The perf-aware pruner never selects a plan slower than unpruned.
        let pruner = PerfAwarePruner::new(&p, &a);
        let good = pruner.prune_to_latency(&backend, &net, 0.9);
        assert!(good.latency_ms() <= t_full);
    }

    #[test]
    fn pareto_plans_are_a_front() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let plans = pruner.pareto_plans(&AclGemm::new(), &tiny_net(), &[1.0, 0.8, 0.6, 0.4]);
        assert!(!plans.is_empty());
        // Front sorted by latency, accuracy increasing with latency.
        for w in plans.windows(2) {
            assert!(w[0].latency_ms() <= w[1].latency_ms());
            assert!(w[0].accuracy() <= w[1].accuracy() + 1e-12);
        }
    }

    #[test]
    fn uninstructed_fraction_keeps_at_least_one_channel() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let u = UninstructedPruner::new(&p, &a);
        let plan = u.prune_to_fraction(&AclGemm::new(), &tiny_net(), 0.01);
        for &c in plan.kept_channels().values() {
            assert!(c >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "budget fraction")]
    fn zero_budget_rejected() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let _ = PerfAwarePruner::new(&p, &a).prune_to_latency(&AclGemm::new(), &tiny_net(), 0.0);
    }

    #[test]
    fn plans_carry_energy() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let full =
            UninstructedPruner::new(&p, &a).prune_by_distance(&AclGemm::new(), &tiny_net(), 0);
        assert!(full.energy_mj() > 0.0);
        let pruned =
            PerfAwarePruner::new(&p, &a).prune_to_latency(&AclGemm::new(), &tiny_net(), 0.7);
        assert!(
            pruned.energy_mj() < full.energy_mj(),
            "pruning should save energy: {} vs {}",
            pruned.energy_mj(),
            full.energy_mj()
        );
    }

    #[test]
    fn energy_budget_is_met() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let backend = AclGemm::new();
        let full = UninstructedPruner::new(&p, &a).prune_by_distance(&backend, &tiny_net(), 0);
        let plan = pruner.prune_to_energy(&backend, &tiny_net(), 0.7);
        assert_eq!(plan.policy(), "energy-aware");
        assert!(
            plan.energy_mj() <= full.energy_mj() * 0.7 * 1.001,
            "energy budget missed: {} vs {}",
            plan.energy_mj(),
            full.energy_mj() * 0.7
        );
        assert!(plan.accuracy() > 0.5);
    }

    #[test]
    fn energy_and_latency_objectives_agree_directionally() {
        // Both objectives should prune *something* under a 0.8 budget, and
        // both plans should be cheaper than unpruned on both axes.
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let backend = AclGemm::new();
        let full = UninstructedPruner::new(&p, &a).prune_by_distance(&backend, &tiny_net(), 0);
        for plan in [
            pruner.prune_to_latency(&backend, &tiny_net(), 0.8),
            pruner.prune_to_energy(&backend, &tiny_net(), 0.8),
        ] {
            assert!(plan.latency_ms() < full.latency_ms(), "{}", plan.policy());
            assert!(plan.energy_mj() < full.energy_mj(), "{}", plan.policy());
        }
    }

    #[test]
    fn display_mentions_policy() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let plan =
            UninstructedPruner::new(&p, &a).prune_by_distance(&AclGemm::new(), &tiny_net(), 0);
        assert!(plan.to_string().contains("uninstructed"));
    }
}
