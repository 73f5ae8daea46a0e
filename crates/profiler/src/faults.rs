//! Deterministic fault injection for the sweep/cache engine.
//!
//! A production sweep over thousands of layer configurations meets
//! failures the paper's clean methodology never sees: transient query
//! errors, latency spikes from preempted boards, crashed workers,
//! poisoned locks. This module makes those failures *schedulable*: a
//! [`FaultPlan`] is a pure function of `(seed, site, key, attempt)` — no
//! wall clock, no shared RNG stream — so a chaos run is byte-reproducible
//! at any worker count, and a bug it flushes out replays from nothing but
//! its seed.
//!
//! The pieces compose with the rest of the engine rather than forking it:
//!
//! * [`FaultyBackend`] decorates any [`ConvBackend`] and injects the
//!   plan's scheduled faults into the fallible cost path
//!   ([`ConvBackend::try_cost`]); the clean planner methods pass through.
//! * [`RetryPolicy`] + [`with_retry`] give callers bounded retry with
//!   *accounted* (virtual) backoff — sleeping would reintroduce wall
//!   clocks into a deterministic pipeline.
//! * [`crate::sweep::contained_parallel_map`] contains scheduled worker
//!   panics, and [`crate::LatencyCache::poison_all_shards`] is the
//!   poisoned-lock fault.
//!
//! Decisions key on the *identity* of the work (layer label, channel
//! count, device, attempt number), never on call order or thread
//! identity, which is what keeps jobs=1 and jobs=8 runs identical.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use pruneperf_backends::hash::fnv1a;
use pruneperf_backends::{ConvBackend, CostError, DispatchPlan};
use pruneperf_gpusim::Device;
use pruneperf_models::ConvLayerSpec;

use crate::memo::splitmix;

/// Domain-separation salts, one per fault family, so the same (seed, key)
/// never correlates across families.
const SALT_TRANSIENT: u64 = 0x7261_6e73_6965_6e74;
const SALT_PERMANENT: u64 = 0x7065_726d_616e_656e;
const SALT_SPIKE: u64 = 0x7370_696b_655f_5f5f;
const SALT_PANIC: u64 = 0x7061_6e69_635f_5f5f;

/// The kinds of faults a [`FaultPlan`] can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A retryable cost failure: independent draw per attempt, so bounded
    /// retry eventually gets through.
    Transient,
    /// A cost failure that persists across retries (attempt-independent
    /// draw): the sweep must degrade, not hang on retries.
    Permanent,
    /// The query succeeds but the latency is multiplied by the plan's
    /// spike factor — a preempted or thermally throttled run.
    LatencySpike,
    /// The sweep worker processing the item panics outright.
    WorkerPanic,
}

/// A seed-driven schedule of injected faults.
///
/// Every decision is a pure hash of `(seed, fault family, site key,
/// attempt)` compared against the family's rate, so two runs with the
/// same seed inject exactly the same faults at exactly the same work
/// items no matter how that work is scheduled across threads — the
/// property the `pruneperf chaos` jobs-1-vs-8 byte-identity check
/// enforces.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    permanent_rate: f64,
    spike_rate: f64,
    spike_factor: f64,
    panic_rate: f64,
}

impl FaultPlan {
    /// A plan with the given seed and no faults scheduled; layer the
    /// rates on with the `with_*` builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            permanent_rate: 0.0,
            spike_rate: 0.0,
            spike_factor: 1.0,
            panic_rate: 0.0,
        }
    }

    /// Probability that any single cost attempt fails transiently.
    pub fn with_transient_rate(mut self, rate: f64) -> Self {
        self.transient_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Probability that a configuration fails permanently (every attempt).
    pub fn with_permanent_rate(mut self, rate: f64) -> Self {
        self.permanent_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Probability that a configuration's latency is spiked, and the
    /// multiplier applied when it is.
    pub fn with_spike(mut self, rate: f64, factor: f64) -> Self {
        self.spike_rate = rate.clamp(0.0, 1.0);
        self.spike_factor = factor.max(1.0);
        self
    }

    /// Probability that a sweep item's worker panics.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The latency multiplier applied by scheduled spikes.
    pub fn spike_factor(&self) -> f64 {
        self.spike_factor
    }

    /// Deterministic uniform draw in `[0, 1)` for one decision point.
    fn unit(&self, salt: u64, key: u64, attempt: u32) -> f64 {
        let mut h = splitmix(self.seed ^ salt);
        h = splitmix(h ^ key);
        h = splitmix(h ^ u64::from(attempt));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A stable site key for one cost query: the layer's identity fields
    /// and the device name, independent of call order and thread.
    pub fn cost_key(layer: &ConvLayerSpec, device: &Device) -> u64 {
        let mut h = splitmix(fnv1a(layer.label().as_bytes()));
        h = splitmix(h ^ fnv1a(device.name().as_bytes()));
        for v in [layer.c_out(), layer.c_in(), layer.kernel(), layer.stride()] {
            h = splitmix(h ^ (v as u64));
        }
        h
    }

    /// The fault (if any) scheduled for one cost evaluation.
    ///
    /// Permanent faults are drawn attempt-independently (they must not
    /// disappear on retry); transient faults draw fresh per attempt, so a
    /// retry loop sees them clear; spikes are attempt-independent so the
    /// memoized value is stable.
    pub fn cost_fault(&self, key: u64, attempt: u32) -> Option<FaultKind> {
        if self.unit(SALT_PERMANENT, key, 0) < self.permanent_rate {
            return Some(FaultKind::Permanent);
        }
        if self.unit(SALT_TRANSIENT, key, attempt) < self.transient_rate {
            return Some(FaultKind::Transient);
        }
        if self.unit(SALT_SPIKE, key, 0) < self.spike_rate {
            return Some(FaultKind::LatencySpike);
        }
        None
    }

    /// Whether the sweep item at `index` is scheduled to panic.
    pub fn panics_at(&self, index: usize) -> bool {
        self.unit(SALT_PANIC, index as u64, 0) < self.panic_rate
    }
}

/// Counters of faults a [`FaultyBackend`] actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Transient cost failures injected.
    pub transients: u64,
    /// Permanent cost failures injected.
    pub permanents: u64,
    /// Latency spikes injected.
    pub spikes: u64,
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} transient, {} permanent, {} spiked",
            self.transients, self.permanents, self.spikes
        )
    }
}

/// A [`ConvBackend`] decorator that injects a [`FaultPlan`]'s scheduled
/// faults into the fallible cost path.
///
/// Planning ([`ConvBackend::plan`]) and the infallible
/// [`ConvBackend::cost`] pass straight through to the wrapped backend —
/// faults only surface where callers have a recovery path, which is the
/// point: code that opts into `try_cost` must handle its errors.
///
/// The fingerprint mixes the plan's seed and rates into the inner
/// backend's, so spiked values memoized by a [`crate::LatencyCache`]
/// never collide with clean entries for the same layer.
pub struct FaultyBackend<B> {
    inner: B,
    plan: FaultPlan,
    /// Attempt counter per cost key, so consecutive retries of one
    /// configuration see increasing attempt numbers. Keys are evaluated a
    /// deterministic number of times under a fresh cache, which keeps the
    /// counters (and therefore the stats) reproducible.
    attempts: Mutex<HashMap<u64, u32>>,
    transients: AtomicU64,
    permanents: AtomicU64,
    spikes: AtomicU64,
}

impl<B: ConvBackend> FaultyBackend<B> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultyBackend {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
            transients: AtomicU64::new(0),
            permanents: AtomicU64::new(0),
            spikes: AtomicU64::new(0),
        }
    }

    /// The fault schedule driving this wrapper. (Named to stay clear of
    /// the trait's [`ConvBackend::plan`].)
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many faults have been injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            transients: self.transients.load(Ordering::Relaxed),
            permanents: self.permanents.load(Ordering::Relaxed),
            spikes: self.spikes.load(Ordering::Relaxed),
        }
    }

    /// Next attempt number for `key` (0 on first call).
    fn next_attempt(&self, key: u64) -> u32 {
        // Recover from poisoning: the map holds plain counters updated
        // whole under the lock, so no torn state can exist.
        let mut map = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
        let counter = map.entry(key).or_insert(0);
        let attempt = *counter;
        *counter += 1;
        attempt
    }
}

impl<B: ConvBackend> ConvBackend for FaultyBackend<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fingerprint(&self) -> u64 {
        let mut h = splitmix(self.inner.fingerprint() ^ self.plan.seed);
        for bits in [
            self.plan.transient_rate.to_bits(),
            self.plan.permanent_rate.to_bits(),
            self.plan.spike_rate.to_bits(),
            self.plan.spike_factor.to_bits(),
        ] {
            h = splitmix(h ^ bits);
        }
        h
    }

    fn plan(&self, layer: &ConvLayerSpec, device: &Device) -> DispatchPlan {
        self.inner.plan(layer, device)
    }

    fn try_cost(&self, layer: &ConvLayerSpec, device: &Device) -> Result<(f64, f64), CostError> {
        let key = FaultPlan::cost_key(layer, device);
        let attempt = self.next_attempt(key);
        match self.plan.cost_fault(key, attempt) {
            Some(FaultKind::Permanent) => {
                self.permanents.fetch_add(1, Ordering::Relaxed);
                Err(CostError::permanent(format!(
                    "injected permanent fault for {} @ {} channels on {}",
                    layer.label(),
                    layer.c_out(),
                    device.name()
                )))
            }
            Some(FaultKind::Transient) => {
                self.transients.fetch_add(1, Ordering::Relaxed);
                Err(CostError::transient(format!(
                    "injected transient fault for {} @ {} channels (attempt {attempt})",
                    layer.label(),
                    layer.c_out()
                )))
            }
            Some(FaultKind::LatencySpike) => {
                self.spikes.fetch_add(1, Ordering::Relaxed);
                let (ms, mj) = self.inner.cost(layer, device);
                Ok((ms * self.plan.spike_factor, mj))
            }
            Some(FaultKind::WorkerPanic) | None => Ok(self.inner.cost(layer, device)),
        }
    }
}

/// Bounded retry for transient cost failures.
///
/// Backoff is **accounted, never slept**: the pipeline is deterministic
/// simulation, so a real `sleep` would add wall-clock nondeterminism
/// (and trip the SL001 lint) without modelling anything. The accumulated
/// virtual backoff is reported alongside the outcome so operators can see
/// what a deployment would have waited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed (first try included); at least 1.
    pub max_attempts: u32,
    /// Virtual backoff after the first failed attempt, ms.
    pub base_backoff_ms: f64,
    /// Multiplier applied to the backoff per further attempt.
    pub backoff_factor: f64,
    /// Upper bound on any single backoff interval, ms.
    pub max_backoff_ms: f64,
}

impl RetryPolicy {
    /// The default production policy: up to 4 attempts, exponential
    /// 1 → 2 → 4 ms virtual backoff capped at 8 ms.
    pub fn bounded() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 1.0,
            backoff_factor: 2.0,
            max_backoff_ms: 8.0,
        }
    }

    /// No retries: fail on the first error.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0.0,
            backoff_factor: 1.0,
            max_backoff_ms: 0.0,
        }
    }

    /// The virtual backoff after failed attempt `attempt` (0-based), ms.
    pub fn backoff_ms(&self, attempt: u32) -> f64 {
        let exp = attempt.min(64) as i32;
        (self.base_backoff_ms * self.backoff_factor.powi(exp)).min(self.max_backoff_ms)
    }
}

/// What one retried operation went through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryOutcome {
    /// Attempts actually made (1 when the first try succeeded).
    pub attempts: u32,
    /// Total virtual backoff accounted across the retries, ms.
    pub backoff_ms: f64,
}

/// Runs `op` under `policy`: transient errors retry (accounting backoff)
/// until the attempt budget is spent, permanent errors abort immediately.
///
/// Returns the final result plus the [`RetryOutcome`] — also on success,
/// so callers can report how much recovery the run needed.
pub fn with_retry<R, F>(policy: &RetryPolicy, mut op: F) -> (Result<R, CostError>, RetryOutcome)
where
    F: FnMut() -> Result<R, CostError>,
{
    let max_attempts = policy.max_attempts.max(1);
    let mut backoff_ms = 0.0f64;
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(r) => {
                return (
                    Ok(r),
                    RetryOutcome {
                        attempts: attempt + 1,
                        backoff_ms,
                    },
                )
            }
            Err(e) if e.transient && attempt + 1 < max_attempts => {
                backoff_ms += policy.backoff_ms(attempt);
                attempt += 1;
            }
            Err(e) => {
                return (
                    Err(e),
                    RetryOutcome {
                        attempts: attempt + 1,
                        backoff_ms,
                    },
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyCache;
    use pruneperf_backends::AclGemm;
    use pruneperf_models::resnet50;

    fn l16(c: usize) -> ConvLayerSpec {
        resnet50()
            .layer("ResNet.L16")
            .unwrap()
            .with_c_out(c)
            .unwrap()
    }

    fn device() -> Device {
        Device::mali_g72_hikey970()
    }

    #[test]
    fn decisions_are_seed_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(7)
            .with_transient_rate(0.3)
            .with_panic_rate(0.2);
        let b = FaultPlan::new(7)
            .with_transient_rate(0.3)
            .with_panic_rate(0.2);
        let c = FaultPlan::new(8)
            .with_transient_rate(0.3)
            .with_panic_rate(0.2);
        let draws = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            (0..256u64).map(|k| p.cost_fault(k, 0)).collect()
        };
        assert_eq!(draws(&a), draws(&b));
        assert_ne!(draws(&a), draws(&c), "different seeds must differ");
        let panics =
            |p: &FaultPlan| -> Vec<usize> { (0..256).filter(|&i| p.panics_at(i)).collect() };
        assert_eq!(panics(&a), panics(&b));
        assert_ne!(panics(&a), panics(&c));
    }

    #[test]
    fn rates_hit_roughly_their_targets() {
        let p = FaultPlan::new(42).with_transient_rate(0.25);
        let hits = (0..4000u64)
            .filter(|&k| p.cost_fault(k, 0) == Some(FaultKind::Transient))
            .count();
        let rate = hits as f64 / 4000.0;
        assert!((0.2..0.3).contains(&rate), "rate {rate}");
        // Rate 0 and 1 are exact.
        let never = FaultPlan::new(42);
        assert!((0..500u64).all(|k| never.cost_fault(k, 0).is_none()));
        let always = FaultPlan::new(42).with_permanent_rate(1.0);
        assert!((0..500u64).all(|k| always.cost_fault(k, 0) == Some(FaultKind::Permanent)));
    }

    #[test]
    fn permanent_faults_survive_retries_transients_clear() {
        let p = FaultPlan::new(5)
            .with_permanent_rate(1.0)
            .with_transient_rate(0.5);
        for attempt in 0..8 {
            assert_eq!(p.cost_fault(99, attempt), Some(FaultKind::Permanent));
        }
        let t = FaultPlan::new(5).with_transient_rate(0.5);
        // Per-attempt draws: some key that faults at attempt 0 must clear
        // within a handful of attempts.
        let key = (0..500u64)
            .find(|&k| t.cost_fault(k, 0) == Some(FaultKind::Transient))
            .expect("rate 0.5 must hit within 500 keys");
        assert!(
            (1..8).any(|a| t.cost_fault(key, a).is_none()),
            "transient fault never cleared"
        );
    }

    #[test]
    fn faulty_backend_injects_only_on_the_fallible_path() {
        let plan = FaultPlan::new(3).with_permanent_rate(1.0);
        let b = FaultyBackend::new(AclGemm::new(), plan);
        let layer = l16(92);
        let d = device();
        // The clean paths pass through: 92 channels still split 80+12.
        assert_eq!(b.cost(&layer, &d), AclGemm::new().cost(&layer, &d));
        assert_eq!(b.plan(&layer, &d).kernels_named("gemm_mm").count(), 2);
        assert_eq!(b.name(), "ACL GEMM");
        // The fallible path faults.
        let err = b.try_cost(&layer, &d).unwrap_err();
        assert!(!err.transient);
        assert!(err.message.contains("92 channels"), "{err}");
        assert_eq!(b.stats().permanents, 1);
    }

    #[test]
    fn spikes_multiply_latency_but_not_energy() {
        let plan = FaultPlan::new(11).with_spike(1.0, 3.0);
        let b = FaultyBackend::new(AclGemm::new(), plan);
        let layer = l16(96);
        let d = device();
        let (ms, mj) = b.try_cost(&layer, &d).unwrap();
        let (clean_ms, clean_mj) = AclGemm::new().cost(&layer, &d);
        assert_eq!(ms, clean_ms * 3.0);
        assert_eq!(mj, clean_mj);
        assert_eq!(b.stats().spikes, 1);
    }

    #[test]
    fn faulty_fingerprint_never_collides_with_clean_entries() {
        let clean = AclGemm::new();
        let faulty = FaultyBackend::new(AclGemm::new(), FaultPlan::new(1).with_spike(1.0, 4.0));
        assert_ne!(clean.fingerprint(), faulty.fingerprint());
        // Different seeds and rates fingerprint differently too.
        let other = FaultyBackend::new(AclGemm::new(), FaultPlan::new(2).with_spike(1.0, 4.0));
        assert_ne!(faulty.fingerprint(), other.fingerprint());
        // So a shared cache keeps spiked and clean values apart.
        let cache = LatencyCache::new();
        let d = device();
        let layer = l16(96);
        let clean_ms = cache.try_cost(&clean, &layer, &d).unwrap().0;
        let spiked_ms = cache.try_cost(&faulty, &layer, &d).unwrap().0;
        assert_eq!(spiked_ms, clean_ms * 4.0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn retry_recovers_transients_and_respects_the_budget() {
        let policy = RetryPolicy::bounded();
        // Succeeds on the third attempt: 2 failures, backoff 1 + 2 ms.
        let mut calls = 0;
        let (res, outcome) = with_retry(&policy, || {
            calls += 1;
            if calls < 3 {
                Err(CostError::transient("flaky"))
            } else {
                Ok(7u32)
            }
        });
        assert_eq!(res, Ok(7));
        assert_eq!(outcome.attempts, 3);
        assert!((outcome.backoff_ms - 3.0).abs() < 1e-12);

        // A permanent error aborts immediately.
        let mut calls = 0;
        let (res, outcome) = with_retry(&policy, || -> Result<u32, CostError> {
            calls += 1;
            Err(CostError::permanent("dead"))
        });
        assert!(res.is_err());
        assert_eq!((outcome.attempts, calls), (1, 1));

        // Transients exhaust the attempt budget.
        let (res, outcome) = with_retry(&policy, || -> Result<u32, CostError> {
            Err(CostError::transient("always"))
        });
        assert!(res.unwrap_err().transient);
        assert_eq!(outcome.attempts, 4);
        assert!((outcome.backoff_ms - (1.0 + 2.0 + 4.0)).abs() < 1e-12);

        // The per-interval cap engages.
        assert!((policy.backoff_ms(10) - 8.0).abs() < 1e-12);
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn attempt_counter_feeds_per_attempt_draws() {
        // With per-attempt transient draws at rate 0.5, repeated try_cost
        // calls on one layer must eventually succeed — proving the wrapper
        // advances the attempt number rather than redrawing attempt 0.
        let plan = FaultPlan::new(17).with_transient_rate(0.5);
        let b = FaultyBackend::new(AclGemm::new(), plan);
        let d = device();
        // Find a layer that faults on its first attempt.
        let layer = (60..128usize)
            .map(l16)
            .find(|l| {
                FaultPlan::new(17)
                    .with_transient_rate(0.5)
                    .cost_fault(FaultPlan::cost_key(l, &d), 0)
                    .is_some()
            })
            .expect("half the layers fault at attempt 0");
        let mut succeeded = false;
        for _ in 0..16 {
            if b.try_cost(&layer, &d).is_ok() {
                succeeded = true;
                break;
            }
        }
        assert!(succeeded, "attempts never advanced past the faulting draw");
        assert!(b.stats().transients >= 1);
    }
}
