//! `pruneperf loadgen`: a seeded synthetic client fleet, no wall clock.
//!
//! Generates a reproducible request mix (duplicates, fault-seeded
//! requests and single-device bursts included), drives it through the
//! replay pipeline — the same admission model, dedup and planner as
//! `serve --replay` — and reports outcome tallies that partition the
//! requests (deduped answers shown separately) plus a
//! virtual-time latency distribution. Everything is derived from the
//! seed and the admission model, so the report is byte-identical across
//! `--jobs`; the CI drill compares exactly that.
//!
//! The report deliberately excludes cache hit/miss counters: under
//! parallel fan-out the hit/miss *split* is schedule-dependent (two
//! racing misses of one key both count as misses), while the final
//! entry count is not — so only the latter is reported.

use std::fmt::Write as _;

use crate::planner::PlanService;
use crate::replay::{replay_trace_with, ReplayOptions};

/// Knobs for one loadgen run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadgenOptions {
    /// Mix seed; same seed, same trace, same report.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Simulated worker pool for admission.
    pub workers: usize,
    /// Per-worker backlog bound.
    pub queue_capacity: usize,
    /// Virtual service time per admitted request, milliseconds.
    pub service_ms: f64,
    /// Latency-cache bound per shard (`0` = unbounded).
    pub cache_cap: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            seed: 42,
            requests: 48,
            workers: 4,
            queue_capacity: 2,
            service_ms: 5.0,
            cache_cap: 1024,
        }
    }
}

/// `splitmix64` — the repo's stock tiny PRNG, local so the mix never
/// drifts with other components' seeding.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds the seeded trace: one JSON request per line, arrivals
/// non-decreasing, with injected duplicates (~1 in 4 reuses an earlier
/// request's body at a later arrival) and fault-seeded requests
/// (~1 in 5 exercises the degraded path).
///
/// The mix sticks to the two small catalog networks — loadgen measures
/// the *serving* machinery, and small planner inputs keep the drill
/// fast while exercising every path.
pub fn generate_trace(opts: &LoadgenOptions) -> String {
    const NETWORKS: [&str; 2] = ["alexnet", "mobilenetv1"];
    const DEVICES: [&str; 4] = ["hikey970", "odroidxu4", "tx2", "nano"];
    const OBJECTIVES: [&str; 2] = ["latency", "energy"];
    const BUDGETS: [&str; 5] = ["0.5", "0.6", "0.7", "0.8", "0.9"];

    let mut rng = opts.seed;
    let mut arrival_tenths: u64 = 0;
    let mut bodies: Vec<String> = Vec::with_capacity(opts.requests);
    let mut trace = String::new();
    for i in 0..opts.requests {
        // Bursts: every fourth request arrives with no gap, so a busy
        // device genuinely queues (and, at small capacities, sheds).
        if i % 4 != 0 {
            arrival_tenths += splitmix(&mut rng) % 40;
        }
        let arrival = format!("{}.{}", arrival_tenths / 10, arrival_tenths % 10);
        let body = if i > 0 && splitmix(&mut rng).is_multiple_of(4) {
            // Duplicate: replay an earlier request body verbatim — the
            // dedup path must serve it from the leader's computation.
            let ix = (splitmix(&mut rng) % bodies.len() as u64) as usize;
            bodies.get(ix).cloned().unwrap_or_default()
        } else {
            let pick = |r: u64, n: usize| (r % n as u64) as usize;
            let network = NETWORKS[pick(splitmix(&mut rng), NETWORKS.len())];
            let device = DEVICES[pick(splitmix(&mut rng), DEVICES.len())];
            let objective = OBJECTIVES[pick(splitmix(&mut rng), OBJECTIVES.len())];
            let budget = BUDGETS[pick(splitmix(&mut rng), BUDGETS.len())];
            let mut body = format!(
                "\"network\":\"{network}\",\"device\":\"{device}\",\
                 \"objective\":\"{objective}\",\"budget\":{budget}"
            );
            if splitmix(&mut rng).is_multiple_of(5) {
                let seed = splitmix(&mut rng) % 1000;
                let _ = write!(body, ",\"fault_seed\":{seed},\"fault_rate\":0.6");
            }
            body
        };
        let _ = writeln!(trace, "{{\"arrival_ms\":{arrival},{body}}}");
        bodies.push(body);
    }
    trace
}

/// Nearest-rank percentile of an already-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let ix = rank.max(1).min(sorted.len()) - 1;
    sorted.get(ix).copied().unwrap_or(0.0)
}

/// Generates the mix, replays it, and renders the drill report.
///
/// The returned text is a pure function of `opts` — byte-identical at
/// any `--jobs` — and ends with a newline.
pub fn run_loadgen(opts: &LoadgenOptions) -> String {
    let trace = generate_trace(opts);
    let replay_opts = ReplayOptions {
        workers: opts.workers,
        queue_capacity: opts.queue_capacity,
        service_ms: opts.service_ms,
        cache_cap: opts.cache_cap,
    };
    let service = PlanService::new(opts.cache_cap);
    let report = replay_trace_with(&trace, &replay_opts, &service);

    let mut latencies = report.latencies_ms.clone();
    latencies.sort_by(f64::total_cmp);
    let max = latencies.last().copied().unwrap_or(0.0);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "loadgen seed={} requests={} workers={} queue={} service_ms={} cache_cap={}",
        opts.seed,
        opts.requests,
        opts.workers,
        opts.queue_capacity,
        opts.service_ms,
        opts.cache_cap
    );
    // The five outcome counts partition the requests; deduped answers
    // are already counted under the outcome their leader produced.
    let _ = writeln!(
        out,
        "responses: ok={} degraded={} shed={} refused={} parse_errors={} (of which deduped={})",
        report.ok,
        report.degraded,
        report.shed,
        report.refused,
        report.parse_errors,
        report.deduped
    );
    let _ = writeln!(
        out,
        "virtual latency ms: p50={} p90={} p99={} max={}",
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0),
        percentile(&latencies, 99.0),
        max
    );
    let _ = writeln!(out, "cache entries: {}", service.cache().len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_profiler::sweep;

    #[test]
    fn the_mix_is_seed_deterministic() {
        let opts = LoadgenOptions::default();
        assert_eq!(generate_trace(&opts), generate_trace(&opts));
        let other = LoadgenOptions {
            seed: 7,
            ..LoadgenOptions::default()
        };
        assert_ne!(generate_trace(&opts), generate_trace(&other));
    }

    #[test]
    fn the_mix_exercises_every_serving_path() {
        let opts = LoadgenOptions {
            requests: 64,
            ..LoadgenOptions::default()
        };
        let trace = generate_trace(&opts);
        let report = crate::replay::replay_trace(
            &trace,
            &ReplayOptions {
                workers: opts.workers,
                queue_capacity: opts.queue_capacity,
                service_ms: opts.service_ms,
                cache_cap: opts.cache_cap,
            },
        );
        assert_eq!(report.parse_errors, 0, "generated lines always parse");
        assert!(report.ok > 0);
        assert!(report.deduped > 0, "the mix injects duplicates");
        assert!(report.degraded > 0, "the mix injects fault seeds");
    }

    #[test]
    fn the_report_is_jobs_invariant() {
        let opts = LoadgenOptions {
            requests: 24,
            ..LoadgenOptions::default()
        };
        sweep::set_sweep_jobs(1);
        let baseline = run_loadgen(&opts);
        sweep::set_sweep_jobs(8);
        let wide = run_loadgen(&opts);
        sweep::set_sweep_jobs(1);
        assert_eq!(baseline, wide);
        assert!(baseline.starts_with("loadgen seed=42"));
        assert!(baseline.contains("virtual latency ms:"));
    }

    #[test]
    fn the_response_tallies_partition_the_requests() {
        let opts = LoadgenOptions {
            requests: 24,
            ..LoadgenOptions::default()
        };
        let report = run_loadgen(&opts);
        let line = report
            .lines()
            .find_map(|l| l.strip_prefix("responses: "))
            .expect("a responses line");
        let count = |term: &str| -> usize {
            term.split_once('=')
                .and_then(|(_, n)| n.trim_end_matches(')').parse().ok())
                .unwrap_or_else(|| panic!("not a tally: {term}"))
        };
        let (partition, deduped) = line
            .split_once(" (of which ")
            .unwrap_or((line, "deduped=0"));
        let sum: usize = partition.split(' ').map(count).sum();
        assert_eq!(sum, opts.requests, "{line}");
        let deduped = count(deduped);
        assert!(deduped > 0, "the mix injects duplicates: {line}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 90.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
