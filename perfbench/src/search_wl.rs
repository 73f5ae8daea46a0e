//! The `search_resnet50` workload: in-process beam search of ResNet-50
//! under `acl-gemm` on each of the four devices.

use std::hint::black_box;
use std::sync::Arc;

use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::search::{
    evaluate_genomes, search, ParetoArchive, SearchConfig, SearchOutcome, SearchSpace,
};
use pruneperf_core::PerfAwarePruner;
use pruneperf_models::Network;
use pruneperf_profiler::{sweep, LatencyCache, LayerProfiler};
use pruneperf_serve::catalog;

use crate::daemon::peak_rss_kb;
use crate::mix::{splitmix, DEVICES};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{now, Tracer};

/// Network searched.
pub const NETWORK: &str = "resnet50";
/// Backend searched.
pub const BACKEND: &str = "acl-gemm";
/// Sweep workers for candidate scoring (one per core).
pub const JOBS: usize = 2;
/// Search seeds with recorded expected outcomes; the workload seed is
/// reduced modulo this.
pub const SEARCH_SEEDS: u64 = 16;

/// Set-ups (of all four devices) each run times before its passes, so
/// `setup_s` is a median of more than the passes alone.
const EXTRA_SETUPS: usize = 5;

/// Passes every untraced run makes, however short its time.
const MIN_PASSES: usize = 3;

/// Expected outcomes, recorded from the baseline commit.
const BASELINE: &str = include_str!("../baseline.json");

/// The counters and front digest a search must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Genomes evaluated.
    pub evaluated: u64,
    /// Front size.
    pub front: usize,
    /// Candidates dominated.
    pub dominated: u64,
    /// Beam rounds.
    pub rounds: u64,
    /// FNV-1a over the front's objective `f64` bits, in front order.
    pub digest: String,
}

impl Summary {
    /// Summarizes one outcome.
    pub fn of(outcome: &SearchOutcome) -> Summary {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for plan in &outcome.plans {
            for x in [plan.latency_ms(), plan.energy_mj(), plan.accuracy()] {
                for byte in x.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        Summary {
            evaluated: outcome.evaluated,
            front: outcome.archived,
            dominated: outcome.dominated,
            rounds: outcome.rounds,
            digest: format!("{h:016x}"),
        }
    }

    /// The summary as recorded in `baseline.json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"evaluated\":{},\"front\":{},\"dominated\":{},\"rounds\":{},\"digest\":\"{}\"}}",
            self.evaluated, self.front, self.dominated, self.rounds, self.digest
        )
    }
}

/// The search seed a workload seed maps to.
pub fn search_seed(seed: u64) -> u64 {
    seed % SEARCH_SEEDS
}

/// The recorded summary for `(search seed, device)`, if any.
pub fn expected(search_seed: u64, device: &str) -> Option<Summary> {
    let doc: serde::Value = serde_json::from_str(BASELINE).ok()?;
    let entry = doc
        .get("search_expected")?
        .get(search_seed.to_string().as_str())?
        .get(device)?;
    Some(Summary {
        evaluated: entry.get("evaluated")?.as_u64()?,
        front: usize::try_from(entry.get("front")?.as_u64()?).ok()?,
        dominated: entry.get("dominated")?.as_u64()?,
        rounds: entry.get("rounds")?.as_u64()?,
        digest: entry.get("digest")?.as_str()?.to_string(),
    })
}

/// Everything one device's search needs, built in set-up.
struct Setup {
    device_name: &'static str,
    backend: Box<dyn pruneperf_backends::ConvBackend>,
    network: Network,
    accuracy: AccuracyModel,
    cache: Arc<LatencyCache>,
    profiler: LayerProfiler,
}

fn set_up(
    device_name: &'static str,
    tracer: &mut Option<&mut Tracer>,
    id: usize,
) -> Result<Setup, String> {
    let span = Tracer::enter_opt(tracer, "serve.catalog.resolve_ms", id);
    let device = catalog::device_by_name(device_name)?;
    let backend = catalog::backend_by_name(BACKEND)?;
    let network = catalog::network_by_name(NETWORK)?;
    Tracer::exit_opt(tracer, span);
    let span = Tracer::enter_opt(tracer, "core.accuracy.build_ms", id);
    let accuracy = AccuracyModel::for_network(&network);
    Tracer::exit_opt(tracer, span);
    let cache = Arc::new(LatencyCache::new());
    let profiler = LayerProfiler::noiseless(&device).with_cache(Arc::clone(&cache));
    Ok(Setup {
        device_name,
        backend,
        network,
        accuracy,
        cache,
        profiler,
    })
}

/// One pass: set up all four devices, then search each.
struct Pass {
    setup_s: f64,
    search_ms: Vec<f64>,
    outcomes: Vec<(Setup, SearchOutcome)>,
}

fn run_pass(config: &SearchConfig, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    let t0 = now();
    let mut setups = Vec::new();
    for (id, device) in DEVICES.iter().enumerate() {
        setups.push(set_up(device, &mut tracer, id)?);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let mut search_ms = Vec::new();
    let mut outcomes = Vec::new();
    for (id, s) in setups.into_iter().enumerate() {
        let span = Tracer::enter_opt(&mut tracer, "core.search.search", id);
        let t = now();
        let outcome = search(
            &s.profiler,
            &s.accuracy,
            s.backend.as_ref(),
            &s.network,
            config,
        );
        search_ms.push(t.elapsed().as_secs_f64() * 1e3);
        Tracer::exit_opt(&mut tracer, span);
        outcomes.push((s, outcome));
    }
    Ok(Pass {
        setup_s,
        search_ms,
        outcomes,
    })
}

/// Checks each device's outcome against the recorded one.
fn check_pass(pass: &Pass, search_seed: u64, out: &mut Outcome) {
    for (setup, outcome) in &pass.outcomes {
        out.attempted += 1;
        let got = Summary::of(outcome);
        match expected(search_seed, setup.device_name) {
            Some(want) if want == got => {}
            want => {
                out.failed += 1;
                eprintln!(
                    "WRONG OUTPUT: search seed {search_seed} on {}: got {}, expected {}",
                    setup.device_name,
                    got.to_json(),
                    want.map_or_else(|| "no recorded value".to_string(), |w| w.to_json())
                );
            }
        }
    }
}

fn config_for(seed: u64) -> SearchConfig {
    SearchConfig {
        seed: search_seed(seed),
        ..SearchConfig::default()
    }
}

/// The untraced run: passes until `seconds` are spent.
pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    sweep::set_sweep_jobs(JOBS);
    let config = config_for(seed);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let t0 = now();
        for (id, device) in DEVICES.iter().enumerate() {
            black_box(set_up(device, &mut None, id)?);
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let started = now();
    // Per pass: set-up seconds and each device's search milliseconds.
    let mut passes: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut genomes = 0u64;
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds as f64 {
        let pass = run_pass(&config, None)?;
        check_pass(&pass, config.seed, &mut out);
        // Keep the numbers, drop the caches before the next pass.
        genomes = pass.outcomes.iter().map(|(_, o)| o.evaluated).sum();
        passes.push((pass.setup_s, pass.search_ms));
    }
    setups.extend(passes.iter().map(|p| p.0));
    let setup_s = median(&setups);
    // Each device's median over the passes, so a stall that hits one
    // search does not move the result; the four searches do the same
    // work in every pass.
    let device_ms: Vec<f64> = (0..DEVICES.len())
        .map(|d| {
            median(
                &passes
                    .iter()
                    .filter_map(|p| p.1.get(d).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let search_s = device_ms.iter().sum::<f64>() / 1e3;
    let genomes_per_s = genomes as f64 / search_s;
    let all: Vec<f64> = passes.iter().flat_map(|p| p.1.iter().copied()).collect();
    let p50 = median(&all);
    let (slowest, tail_ms) =
        DEVICES.iter().zip(&device_ms).fold(
            ("", 0.0f64),
            |acc, (d, &ms)| if ms > acc.1 { (d, ms) } else { acc },
        );
    let rss = peak_rss_kb() as f64 / 1024.0;

    out.line(format!(
        "passes={} setups={} devices={} network={NETWORK} backend={BACKEND} algo=beam search_seed={} jobs={JOBS}",
        passes.len(),
        setups.len(),
        DEVICES.len(),
        config.seed
    ));
    let per_pass: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.1.iter().sum::<f64>() / 1e3))
        .collect();
    out.line(format!("setup_s        {setup_s:.6} s"));
    out.line(format!(
        "search_s       {search_s:.4} s (four searches, each a median over passes; passes: {})",
        per_pass.join(" ")
    ));
    out.line(format!("genomes_per_s  {genomes_per_s:.2} 1/s"));
    out.line(format!(
        "search_p50_ms  {p50:.3} ms (one device search, over {} searches)",
        all.len()
    ));
    out.line(format!(
        "search_tail_ms {tail_ms:.3} ms (slowest device, {slowest}; too few searches for a percentile)"
    ));
    out.line(format!("peak_rss_mb    {rss:.2} MiB"));
    out.line(format!(
        "failed_share   {} ({} of {})",
        out.failed_share(),
        out.failed,
        out.attempted
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("ops_per_s", genomes_per_s, "1/s");
    out.metric("op_p50_ms", p50, "ms");
    out.metric("op_tail_ms", tail_ms, "ms");
    out.metric("pass_s", search_s, "s");
    out.metric("peak_rss_mb", rss, "MiB");
    Ok(out)
}

/// The traced run: one untraced pass, then a traced pass whose
/// per-device outcomes are taken apart stage by stage.
pub fn run_traced(seed: u64, out_dir: &std::path::Path) -> Result<Outcome, String> {
    sweep::set_sweep_jobs(JOBS);
    let config = config_for(seed);
    let mut out = Outcome::default();
    let untraced = run_pass(&config, None)?;
    check_pass(&untraced, config.seed, &mut out);
    let untraced_s: f64 = untraced.search_ms.iter().sum::<f64>() / 1e3;
    drop(untraced);

    let mut tracer = Tracer::new();
    let pass = run_pass(&config, Some(&mut tracer))?;
    check_pass(&pass, config.seed, &mut out);
    let search_s: f64 = pass.search_ms.iter().sum::<f64>() / 1e3;

    let (mut evaluated, mut front, mut rounds) = (0u64, 0u64, 0u64);
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let (mut chains, mut kernel_evals, mut engine_runs) = (0u64, 0u64, 0u64);
    let (mut eval_us_total, mut eval_n) = (0.0f64, 0u64);
    let (mut offer_us_total, mut offer_n) = (0.0f64, 0u64);
    let mut stages_s = 0.0f64;
    for (id, (s, outcome)) in pass.outcomes.iter().enumerate() {
        evaluated += outcome.evaluated;
        front += outcome.archived as u64;
        rounds += outcome.rounds;
        let cs = s.cache.stats();
        hits += cs.hits;
        misses += cs.misses;
        evictions += cs.evictions;
        let es = s.cache.engine_stats();
        chains += es.chains_assembled;
        kernel_evals += es.kernel_evals;
        engine_runs += es.engine_runs;

        // Cold space build, on a cache of its own.
        let device = catalog::device_by_name(s.device_name)?;
        let cold = LayerProfiler::noiseless(&device).with_cache(Arc::new(LatencyCache::new()));
        let span = tracer.enter("core.search.space_build_ms", None, id);
        let space = SearchSpace::build_for(&cold, &s.accuracy, s.backend.as_ref(), &s.network);
        tracer.exit(span);
        let build_us = tracer.spans().get(span).map_or(0.0, |x| x.dur_us());

        // Candidate ladders layer by layer, again cold.
        let cold = LayerProfiler::noiseless(&device).with_cache(Arc::new(LatencyCache::new()));
        let pruner = PerfAwarePruner::new(&cold, &s.accuracy);
        let ladders = tracer.enter("core.pruner.candidates_ms", None, id);
        for layer in s.network.layers() {
            let span = tracer.enter_labelled(
                "core.pruner.candidates_for",
                Some(layer.label().to_string()),
                Some(ladders),
                id,
            );
            black_box(pruner.candidates_for(s.backend.as_ref(), layer));
            tracer.exit(span);
        }
        tracer.exit(ladders);

        // Re-score the front's genomes on the warm search cache; the
        // points must come back bit-identical.
        let span = tracer.enter("core.search.evaluate", None, id);
        let points = evaluate_genomes(
            &s.profiler,
            &s.accuracy,
            s.backend.as_ref(),
            &s.network,
            &space,
            &outcome.genomes,
            JOBS,
        );
        tracer.exit(span);
        let us = tracer.spans().get(span).map_or(0.0, |x| x.dur_us());
        eval_us_total += us;
        eval_n += points.len() as u64;
        let per_eval_us = us / points.len().max(1) as f64;
        let same = points.len() == outcome.plans.len()
            && points.iter().zip(&outcome.plans).all(|(p, plan)| {
                p.latency_ms.to_bits() == plan.latency_ms().to_bits()
                    && p.energy_mj.to_bits() == plan.energy_mj().to_bits()
                    && p.accuracy.to_bits() == plan.accuracy().to_bits()
            });

        // Re-offer the front in seeded order into a fresh archive; every
        // point is non-dominated, so all must be kept.
        let mut order: Vec<(u64, usize)> = {
            let mut rng = config.seed ^ id as u64;
            (0..points.len()).map(|i| (splitmix(&mut rng), i)).collect()
        };
        order.sort_unstable();
        let mut archive: ParetoArchive<usize> = ParetoArchive::new();
        let span = tracer.enter("core.search.archive_offer", None, id);
        for &(_, i) in &order {
            if let Some(&point) = points.get(i) {
                archive.offer(point, i);
            }
        }
        tracer.exit(span);
        let us = tracer.spans().get(span).map_or(0.0, |x| x.dur_us());
        offer_us_total += us;
        offer_n += order.len() as u64;
        let per_offer_us = us / order.len().max(1) as f64;
        if !same || archive.len() != outcome.archived {
            out.failed += 1;
            eprintln!(
                "WRONG OUTPUT: {} front does not re-evaluate or re-archive identically",
                s.device_name
            );
        }
        stages_s += (build_us + outcome.evaluated as f64 * (per_eval_us + per_offer_us)) / 1e6;
    }
    let (hit_us, miss_us, miss_unbounded_us) = crate::serve_wl::cache_costs()?;

    // Per-device medians of each stage span.
    for name in [
        "serve.catalog.resolve_ms",
        "core.accuracy.build_ms",
        "core.pruner.candidates_ms",
        "core.search.space_build_ms",
    ] {
        out.metric(name, median(&tracer.samples_us(name)) / 1e3, "ms");
    }
    out.metric(
        "profiler.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric("profiler.cache.misses", misses as f64, "count");
    out.metric("profiler.cache.evictions", evictions as f64, "count");
    out.metric("profiler.cache.hit_us", hit_us, "us");
    out.metric("profiler.cache.miss_us", miss_us, "us");
    out.metric("profiler.cache.miss_unbounded_us", miss_unbounded_us, "us");
    out.metric("gpusim.chains_assembled", chains as f64, "count");
    out.metric("gpusim.kernel_evals", kernel_evals as f64, "count");
    out.metric("gpusim.engine_runs", engine_runs as f64, "count");
    out.metric(
        "core.search.evaluate_us",
        eval_us_total / eval_n.max(1) as f64,
        "us",
    );
    out.metric(
        "core.search.archive_offer_us",
        offer_us_total / offer_n.max(1) as f64,
        "us",
    );
    out.metric("core.search.evaluated", evaluated as f64, "count");
    out.metric("core.search.front", front as f64, "count");
    out.metric("core.search.rounds", rounds as f64, "count");
    out.metric("core.search.other_s", search_s - stages_s, "s");
    out.metric("trace.overhead_ratio", search_s / untraced_s, "ratio");
    out.line(format!(
        "traced pass: search_s {search_s:.4} s vs untraced {untraced_s:.4} s; other_s {:.4} s is search_s minus \
         space builds and evaluated x (evaluate_us + archive_offer_us), and reads negative when re-offering a \
         front (every offer scans it all) costs more than an average in-search offer",
        search_s - stages_s
    ));
    crate::serve_wl::write_trace(&tracer, "search_resnet50", seed, out_dir, &mut out)?;
    Ok(out)
}

/// Prints the expected-outcome table for search seeds `0..SEARCH_SEEDS`
/// (the `search_expected` object of `baseline.json`).
pub fn record() -> Result<String, String> {
    sweep::set_sweep_jobs(JOBS);
    let mut rows = Vec::new();
    for s in 0..SEARCH_SEEDS {
        let pass = run_pass(&config_for(s), None)?;
        let cells: Vec<String> = pass
            .outcomes
            .iter()
            .map(|(setup, o)| format!("\"{}\":{}", setup.device_name, Summary::of(o).to_json()))
            .collect();
        rows.push(format!("\"{s}\":{{{}}}", cells.join(",")));
        eprintln!("recorded search seed {s}");
    }
    Ok(format!("{{{}}}", rows.join(",\n")))
}
