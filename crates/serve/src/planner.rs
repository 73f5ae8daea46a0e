//! The shared planning service behind every serving mode.
//!
//! One [`PlanService`] lives for the whole daemon (or replay run): it
//! owns the shared [`LatencyCache`] — **bounded**, because a
//! long-running process must not grow its memo tables without limit —
//! and the [`Stats`] registry the `--stats` side channel snapshots.
//! Request handling is pure with respect to that shared state's
//! *responses*: the cache only short-circuits bit-identical
//! recomputations and the response body carries no cache counters, so
//! the bytes a request produces do not depend on which requests ran
//! before it. That is the property replay mode's `--jobs` invariance
//! rests on.
//!
//! The service also memoizes the two planner inputs that depend on the
//! catalog entry alone: one [`AccuracyModel`] per network and one
//! [`SearchSpace`] per resolved (device, backend, network) triple — the
//! staircase ladders plus their per-slot latency, energy and loss
//! columns. Both live in fixed tables of [`OnceLock`] slots indexed by
//! catalog position, filled on first use, so the memo is bounded by the
//! catalog's size and construction builds nothing. The §V greedy reads
//! only the space, so a warm request touches the cache for its
//! verification run alone.

use std::sync::{Arc, OnceLock};

use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::search::SearchSpace;
use pruneperf_core::PerfAwarePruner;
use pruneperf_profiler::{
    FaultPlan, FaultyBackend, LatencyCache, LayerProfiler, NetworkRunner, Stats,
};

use crate::catalog;
use crate::protocol::{FailedLayerInfo, PlanBody, PlanRequest, PlanResponse};

/// The planning core shared by the live server, replay mode and loadgen.
pub struct PlanService {
    cache: Arc<LatencyCache>,
    stats: Arc<Stats>,
    /// Accuracy surrogate per catalog network slot.
    accuracy: [OnceLock<AccuracyModel>; catalog::NETWORK_SLOTS],
    /// Ladders and objective columns per [`catalog::triple_slot`].
    spaces: [OnceLock<SearchSpace>; catalog::TRIPLE_SLOTS],
}

impl PlanService {
    /// Creates a service over a fresh cache and stats registry.
    ///
    /// `cache_cap_per_shard` bounds every cache shard (and the kernel
    /// memo underneath) via
    /// [`LatencyCache::set_max_entries_per_shard`]; `0` leaves the
    /// cache unbounded, which is only appropriate for short
    /// replay/loadgen runs.
    pub fn new(cache_cap_per_shard: usize) -> Self {
        let cache = Arc::new(LatencyCache::new());
        if cache_cap_per_shard > 0 {
            cache.set_max_entries_per_shard(cache_cap_per_shard);
        }
        PlanService {
            cache,
            stats: Arc::new(Stats::new()),
            accuracy: [const { OnceLock::new() }; catalog::NETWORK_SLOTS],
            spaces: [const { OnceLock::new() }; catalog::TRIPLE_SLOTS],
        }
    }

    /// The shared latency cache (bounded iff constructed with a cap).
    pub fn cache(&self) -> &Arc<LatencyCache> {
        &self.cache
    }

    /// The shared stats registry for the `--stats` side channel.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Renders the current stats snapshot (cache gauges included) as the
    /// `--stats` side-channel document.
    pub fn stats_json(&self) -> String {
        self.stats.snapshot_with_cache(&self.cache).render_json()
    }

    /// Computes the response for one admitted request.
    ///
    /// Unknown names and out-of-range budgets become
    /// [`PlanResponse::Error`]; a faulty verification run that loses
    /// layers to permanent faults becomes a *degraded* Ok response (the
    /// PR-4 fallible path), never a dropped request.
    pub fn handle(&self, req: &PlanRequest) -> PlanResponse {
        let (device_slot, device) = match catalog::device_with_slot(&req.device) {
            Ok(d) => d,
            Err(e) => return PlanResponse::Error(e),
        };
        let (backend_slot, backend) = match catalog::backend_with_slot(&req.backend) {
            Ok(b) => b,
            Err(e) => return PlanResponse::Error(e),
        };
        let (network_slot, network) = match catalog::network_with_slot(&req.network) {
            Ok(n) => n,
            Err(e) => return PlanResponse::Error(e),
        };
        // The pruner asserts on the budget; turn that into a 400 here.
        if !(req.budget > 0.0 && req.budget <= 1.0) {
            return PlanResponse::Error(format!("budget must be in (0, 1], got {}", req.budget));
        }

        let profiler = LayerProfiler::noiseless(&device)
            .with_cache(Arc::clone(&self.cache))
            .with_stats(Arc::clone(&self.stats));
        // Both memos are pure functions of the catalog entries their slot
        // names, so whichever request fills a slot, the values are the
        // ones every later request would have computed.
        let accuracy =
            self.accuracy[network_slot].get_or_init(|| AccuracyModel::for_network(&network));
        let space = self.spaces[catalog::triple_slot(device_slot, backend_slot, network_slot)]
            .get_or_init(|| {
                SearchSpace::build_for(&profiler, accuracy, backend.as_ref(), &network)
            });
        let plan = PerfAwarePruner::new(&profiler, accuracy).prune_over(
            space,
            backend.as_ref(),
            &network,
            req.objective,
            req.budget,
        );

        // Verification pass: run the pruned network end to end through
        // the fallible path. With a fault seed the backend injects
        // permanent faults whose schedule is a pure function of
        // (seed, layer key) — deterministic across runs and schedules.
        let pruned = network.sequential_with_kept(plan.kept_channels());
        let runner = NetworkRunner::new(&device)
            .with_cache(Arc::clone(&self.cache))
            .with_stats(Arc::clone(&self.stats));
        let partial = match req.fault_seed {
            Some(seed) => {
                let fault = FaultPlan::new(seed).with_permanent_rate(req.fault_rate);
                let faulty = FaultyBackend::new(backend, fault);
                runner.try_run(&faulty, &pruned)
            }
            None => runner.try_run(&backend, &pruned),
        };

        let kept = network
            .layers()
            .iter()
            .map(|l| {
                let channels = plan.kept_for(l.label()).unwrap_or(l.c_out());
                (l.label().to_string(), channels)
            })
            .collect();
        let failed = partial
            .failed()
            .iter()
            .map(|f| FailedLayerInfo {
                layer: f.label.clone(),
                attempts: f.attempts,
                error: f.error.clone(),
            })
            .collect();
        PlanResponse::Ok(PlanBody {
            network: req.network.clone(),
            device: req.device.clone(),
            backend: req.backend.clone(),
            objective: req.objective,
            budget: req.budget,
            latency_ms: plan.latency_ms(),
            energy_mj: plan.energy_mj(),
            accuracy: plan.accuracy(),
            kept,
            degraded: !partial.is_complete(),
            verified_ms: partial.report().total_ms(),
            failed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(line: &str) -> PlanRequest {
        PlanRequest::parse(line).unwrap()
    }

    #[test]
    fn a_clean_request_yields_a_complete_plan() {
        let service = PlanService::new(0);
        let r = req(r#"{"network":"alexnet","device":"tx2","budget":0.8}"#);
        match service.handle(&r) {
            PlanResponse::Ok(body) => {
                assert!(!body.degraded);
                assert!(body.failed.is_empty());
                assert!(body.latency_ms > 0.0);
                assert!(body.verified_ms > 0.0);
                assert_eq!(body.kept.len(), 5, "alexnet has five conv layers");
            }
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn unknown_names_and_bad_budgets_are_refusals() {
        let service = PlanService::new(0);
        for (line, needle) in [
            (
                r#"{"network":"lenet","device":"tx2","budget":0.8}"#,
                "unknown network",
            ),
            (
                r#"{"network":"alexnet","device":"rtx","budget":0.8}"#,
                "unknown device",
            ),
            (
                r#"{"network":"alexnet","device":"tx2","backend":"mkl","budget":0.8}"#,
                "unknown backend",
            ),
            (
                r#"{"network":"alexnet","device":"tx2","budget":0.0}"#,
                "budget",
            ),
            (
                r#"{"network":"alexnet","device":"tx2","budget":1.5}"#,
                "budget",
            ),
        ] {
            match service.handle(&req(line)) {
                PlanResponse::Error(e) => assert!(e.contains(needle), "{line}: {e}"),
                other => panic!("{line}: expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn heavy_faults_degrade_instead_of_failing() {
        let service = PlanService::new(0);
        let r = req(r#"{"network":"alexnet","device":"tx2","budget":0.8,
                "fault_seed":4,"fault_rate":1.0}"#);
        match service.handle(&r) {
            PlanResponse::Ok(body) => {
                assert!(body.degraded, "every layer faults permanently at rate 1.0");
                assert!(!body.failed.is_empty());
            }
            other => panic!("expected degraded ok, got {other:?}"),
        }
    }

    #[test]
    fn responses_are_independent_of_request_history() {
        let fresh = PlanService::new(0);
        let warmed = PlanService::new(0);
        let warmup = req(r#"{"network":"mobilenetv1","device":"nano","budget":0.6}"#);
        warmed.handle(&warmup);
        let r = req(r#"{"network":"alexnet","device":"tx2","budget":0.8}"#);
        let a = fresh.handle(&r).render(0, false);
        let b = warmed.handle(&r).render(0, false);
        assert_eq!(a, b, "cache warmth must not change response bytes");
    }

    #[test]
    fn warm_triples_sweep_no_staircases() {
        let service = PlanService::new(0);
        let first = req(r#"{"network":"alexnet","device":"tx2","budget":0.8}"#);
        service.handle(&first);
        let swept = service.stats().sweep_items();
        assert!(
            swept > 0,
            "the first request sweeps every layer's staircase"
        );
        service.handle(&first);
        assert_eq!(
            service.stats().sweep_items(),
            swept,
            "a repeated request re-swept"
        );
        let other_budget =
            req(r#"{"network":"alexnet","device":"tx2","objective":"energy","budget":0.6}"#);
        service.handle(&other_budget);
        assert_eq!(
            service.stats().sweep_items(),
            swept,
            "a second budget and objective on the same triple re-swept"
        );
    }

    #[test]
    fn a_warm_request_reads_the_cache_only_to_verify() {
        let service = PlanService::new(0);
        for objective in ["latency", "energy"] {
            let r = req(&format!(
                r#"{{"network":"mobilenetv1","device":"nano","objective":"{objective}","budget":0.6}}"#
            ));
            service.handle(&r);
            let before = service.cache().stats().lookups;
            let PlanResponse::Ok(body) = service.handle(&r) else {
                panic!("{objective}: expected a plan");
            };
            let planned = service.cache().stats().lookups - before;

            let device = catalog::device_by_name("nano").unwrap();
            let backend = catalog::backend_by_name("acl-gemm").unwrap();
            let network = catalog::network_by_name("mobilenetv1").unwrap();
            let pruned = network.sequential_with_kept(&body.kept.into_iter().collect());
            let before = service.cache().stats().lookups;
            let _ = NetworkRunner::new(&device)
                .with_cache(Arc::clone(service.cache()))
                .try_run(&backend, &pruned);
            let verified = service.cache().stats().lookups - before;
            assert!(verified > 0, "verification reads the cache");
            assert_eq!(
                planned, verified,
                "{objective}: a warm request looked up more than its verification"
            );
        }
    }

    #[test]
    fn memoized_answers_match_fresh_services() {
        for cap in [2, 0] {
            let memoized = PlanService::new(cap);
            for device in ["hikey970", "odroidxu4", "tx2", "nano"] {
                for backend in ["acl-gemm", "cudnn"] {
                    for (objective, budget) in [("latency", 0.7), ("energy", 0.6)] {
                        let r = req(&format!(
                            r#"{{"network":"alexnet","device":"{device}","backend":"{backend}",
                                "objective":"{objective}","budget":{budget}}}"#
                        ));
                        // The first answer fills the memo, the second reads it.
                        let warm = memoized.handle(&r);
                        assert_eq!(warm, memoized.handle(&r));
                        assert_eq!(
                            warm.render(0, false),
                            PlanService::new(cap).handle(&r).render(0, false),
                            "cap {cap}: {device} {backend} {objective}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn device_aliases_share_a_memo_slot() {
        let service = PlanService::new(0);
        let alias = req(r#"{"network":"alexnet","device":"g72","budget":0.8}"#);
        let board = req(r#"{"network":"alexnet","device":"hikey970","budget":0.8}"#);
        let by_alias = service.handle(&alias);
        let swept = service.stats().sweep_items();
        let by_board = service.handle(&board);
        assert_eq!(
            service.stats().sweep_items(),
            swept,
            "the alias filled another slot"
        );
        match (by_alias, by_board) {
            (PlanResponse::Ok(a), PlanResponse::Ok(b)) => {
                assert_eq!(a.device, "g72");
                assert_eq!(b.device, "hikey970");
                assert_eq!(a.kept, b.kept);
            }
            other => panic!("expected two plans, got {other:?}"),
        }
    }

    #[test]
    fn the_bounded_cache_still_answers_identically() {
        let unbounded = PlanService::new(0);
        let tiny = PlanService::new(2);
        let r = req(r#"{"network":"alexnet","device":"tx2","budget":0.8}"#);
        assert_eq!(
            unbounded.handle(&r).render(0, false),
            tiny.handle(&r).render(0, false),
            "the cache bound changes retention, never values"
        );
    }
}
