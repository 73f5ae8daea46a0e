//! The serve workloads: a live daemon over loopback, closed-loop client.
//!
//! Untraced runs measure end-to-end metrics in rounds, each on a fresh
//! daemon and holding one or more timed blocks, until the run's time is
//! spent; each metric is a median over blocks. The traced run replays the
//! same requests in-process with spans around each layer's public
//! function, on services built with the daemon's cache bound.

use std::hint::black_box;
use std::io::BufReader;
use std::sync::Arc;

use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::PerfAwarePruner;
use pruneperf_models::ConvLayerSpec;
use pruneperf_profiler::{
    sweep, FaultPlan, FaultyBackend, LatencyCache, LayerProfiler, NetworkRunner,
};
use pruneperf_serve::admission::worker_for_device;
use pruneperf_serve::protocol::{FailedLayerInfo, PlanBody};
use pruneperf_serve::{catalog, http, PlanRequest, PlanResponse, PlanService, RequestObjective};

use crate::check::{strip_id, Reference};
use crate::client::{closed_loop, Answer};
use crate::daemon::{self, CACHE_CAP, WORKERS};
use crate::mix;
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::{now, Tracer};

/// Which request mix a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Distinct loadgen bodies, each answered once before timing.
    Warm,
    /// Wide catalog mix on a fresh daemon, no warm-up.
    Churn,
}

impl Mix {
    /// Timed requests per block: the fixed count the tail rule reads.
    pub fn timed_requests(self) -> usize {
        match self {
            Mix::Warm => 208,
            Mix::Churn => mix::NETWORKS.len() * mix::DEVICES.len() * mix::BACKENDS.len(),
        }
    }

    /// Extra daemon start-ups per run, so `setup_s` is a median.
    fn extra_setups(self) -> usize {
        match self {
            Mix::Warm => 0,
            Mix::Churn => 20,
        }
    }

    /// Timed requests the traced replay covers: all of them on the warm
    /// mix; the first half on the churn mix, whose replay (every request
    /// twice, on one thread) would otherwise outrun the run time limit.
    fn traced_requests(self) -> usize {
        match self {
            Mix::Warm => self.timed_requests(),
            Mix::Churn => self.timed_requests() / 2,
        }
    }

    /// Timed blocks per round: the warm mix runs its timed requests twice
    /// on each warmed daemon, so a stall of a few seconds spoils one
    /// block of six rather than a whole round.
    fn blocks(self) -> usize {
        match self {
            Mix::Warm => 2,
            Mix::Churn => 1,
        }
    }

    /// Rounds every untraced run makes, however short its time.
    fn min_rounds(self) -> usize {
        match self {
            Mix::Warm => 3,
            Mix::Churn => 1,
        }
    }

    /// `(warm-up bodies, timed bodies)` for `seed`.
    pub fn bodies(self, seed: u64) -> (Vec<String>, Vec<String>) {
        match self {
            Mix::Warm => {
                let pool = mix::warm_pool(seed);
                let timed = mix::draw(&pool, seed, self.timed_requests());
                (pool, timed)
            }
            Mix::Churn => (Vec::new(), mix::churn_mix(seed)),
        }
    }
}

/// One round on a fresh daemon: set-up, then timed blocks.
struct Round {
    setup_s: f64,
    warm: Vec<Answer>,
    /// `(seconds, answers)` of each timed block.
    blocks: Vec<(f64, Vec<Answer>)>,
    peak_rss_mb: f64,
}

fn run_round(warmup: &[String], bodies: &[String], blocks: usize) -> Result<Round, String> {
    let t0 = now();
    let (daemon, _) = daemon::start(1 + warmup.len() + blocks * bodies.len())?;
    let warm = closed_loop(daemon.addr(), warmup);
    let setup_s = t0.elapsed().as_secs_f64();
    let blocks = (0..blocks)
        .map(|_| {
            let t = now();
            let answers = closed_loop(daemon.addr(), bodies);
            (t.elapsed().as_secs_f64(), answers)
        })
        .collect::<Vec<_>>();
    // A failed exchange leaves the daemon short of its connection count,
    // so it would never exit: stop it instead (its requests then count
    // as failed, and its memory as unknown).
    let all_answered = warm
        .iter()
        .chain(blocks.iter().flat_map(|(_, answers)| answers))
        .all(|a| a.status != 0);
    let peak_rss_mb = if all_answered {
        daemon.finish()?
    } else {
        drop(daemon);
        f64::NAN
    };
    Ok(Round {
        setup_s,
        warm,
        blocks,
        peak_rss_mb,
    })
}

/// Per-block numbers after the correctness check.
struct Checked {
    timed_s: f64,
    plans_per_s: f64,
    p50_ms: f64,
    tail_label: String,
    tail_ms: f64,
}

/// Counts `answers` to `bodies` into `out`; returns how many were right.
fn check_answers(
    bodies: &[String],
    answers: &[Answer],
    reference: &mut Reference,
    out: &mut Outcome,
) -> usize {
    let mut correct = 0;
    for (body, answer) in bodies.iter().zip(answers) {
        out.attempted += 1;
        if reference.accepts(body, answer) {
            correct += 1;
        } else {
            out.failed += 1;
            report_mismatch(body, answer, reference);
        }
    }
    correct
}

/// Checks every answer of `round` against the reference, counting
/// attempts and failures into `out`, and derives each block's numbers.
fn check_round(
    round: &Round,
    warmup: &[String],
    timed: &[String],
    reference: &mut Reference,
    out: &mut Outcome,
) -> Vec<Checked> {
    check_answers(warmup, &round.warm, reference, out);
    round
        .blocks
        .iter()
        .map(|(timed_s, answers)| {
            let correct = check_answers(timed, answers, reference, out);
            let latencies: Vec<f64> = answers.iter().map(|a| a.latency_ms).collect();
            let (tail_label, tail_ms) = tail(&latencies);
            Checked {
                timed_s: *timed_s,
                plans_per_s: correct as f64 / timed_s,
                p50_ms: percentile(&sorted(&latencies), 50.0),
                tail_label,
                tail_ms,
            }
        })
        .collect()
}

fn report_mismatch(body: &str, answer: &Answer, reference: &mut Reference) {
    eprintln!(
        "WRONG OUTPUT for {body}\n  status {}: {}\n  expected: {}",
        answer.status,
        strip_id(&answer.body),
        reference.expected(body)
    );
}

/// Share of `bodies` that device-affinity routing sends to the busiest
/// of the daemon's workers.
pub fn worker_share_max(bodies: &[String]) -> f64 {
    let mut per_worker = [0usize; WORKERS];
    for body in bodies {
        if let Ok(req) = PlanRequest::parse(body) {
            if let Some(n) = per_worker.get_mut(worker_for_device(&req.device, WORKERS)) {
                *n += 1;
            }
        }
    }
    let busiest = per_worker.iter().copied().max().unwrap_or(0);
    busiest as f64 / bodies.len().max(1) as f64
}

/// The untraced run: rounds on fresh daemons until `seconds` are spent.
pub fn run(mix: Mix, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let (warmup, timed) = mix.bodies(seed);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    for _ in 0..mix.extra_setups() {
        let (daemon, setup_s) = daemon::start(1)?;
        daemon.finish()?;
        setups.push(setup_s);
    }
    let started = now();
    let mut rounds = Vec::new();
    while rounds.len() < mix.min_rounds() || started.elapsed().as_secs_f64() < seconds as f64 {
        rounds.push(run_round(&warmup, &timed, mix.blocks())?);
    }
    let mut reference = Reference::new();
    let checked: Vec<Checked> = rounds
        .iter()
        .flat_map(|r| check_round(r, &warmup, &timed, &mut reference, &mut out))
        .collect();
    setups.extend(rounds.iter().map(|r| r.setup_s));

    let setup_s = median(&setups);
    let plans_per_s = median(&checked.iter().map(|c| c.plans_per_s).collect::<Vec<_>>());
    let p50 = median(&checked.iter().map(|c| c.p50_ms).collect::<Vec<_>>());
    let tail_ms = median(&checked.iter().map(|c| c.tail_ms).collect::<Vec<_>>());
    let tail_label = checked
        .first()
        .map_or_else(String::new, |c| c.tail_label.clone());
    let pass_s = median(&checked.iter().map(|c| c.timed_s).collect::<Vec<_>>());
    let rss = median(&rounds.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>());

    out.line(format!(
        "rounds={} blocks={} timed_requests={} warmup_requests={} setups={} connections={} daemon: --workers {WORKERS} --queue {} --cache-cap {CACHE_CAP}",
        rounds.len(),
        checked.len(),
        timed.len(),
        warmup.len(),
        setups.len(),
        crate::client::CONNECTIONS,
        daemon::QUEUE
    ));
    let per_block: Vec<String> = checked
        .iter()
        .map(|c| format!("{:.3}", c.plans_per_s))
        .collect();
    out.line(format!("setup_s        {setup_s:.6} s"));
    out.line(format!(
        "plans_per_s    {plans_per_s:.4} 1/s (blocks: {})",
        per_block.join(" ")
    ));
    out.line(format!("plan_p50_ms    {p50:.4} ms"));
    out.line(format!(
        "plan_tail_ms   {tail_ms:.4} ms ({tail_label} of {} requests)",
        timed.len()
    ));
    out.line(format!(
        "pass_s         {pass_s:.4} s (one block of timed requests)"
    ));
    out.line(format!("peak_rss_mb    {rss:.2} MiB (daemon process)"));
    out.line(format!(
        "failed_share   {} ({} of {})",
        out.failed_share(),
        out.failed,
        out.attempted
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("ops_per_s", plans_per_s, "1/s");
    out.metric("op_p50_ms", p50, "ms");
    out.metric("op_tail_ms", tail_ms, "ms");
    out.metric("pass_s", pass_s, "s");
    out.metric("peak_rss_mb", rss, "MiB");
    Ok(out)
}

/// Decomposed [`PlanService::handle`]: the same public calls in the same
/// order, each wrapped in a span. The response must equal `handle`'s.
fn staged_handle(
    service: &PlanService,
    req: &PlanRequest,
    tracer: &mut Tracer,
    parent: Option<usize>,
    id: usize,
) -> PlanResponse {
    let span = tracer.enter("serve.catalog.resolve_ms", parent, id);
    let resolved = (|| {
        Ok::<_, String>((
            catalog::device_by_name(&req.device)?,
            catalog::backend_by_name(&req.backend)?,
            catalog::network_by_name(&req.network)?,
        ))
    })();
    tracer.exit(span);
    let (device, backend, network) = match resolved {
        Ok(r) => r,
        Err(e) => return PlanResponse::Error(e),
    };
    if !(req.budget > 0.0 && req.budget <= 1.0) {
        return PlanResponse::Error(format!("budget must be in (0, 1], got {}", req.budget));
    }
    let profiler = LayerProfiler::noiseless(&device)
        .with_cache(Arc::clone(service.cache()))
        .with_stats(Arc::clone(service.stats()));

    let span = tracer.enter("core.accuracy.build_ms", parent, id);
    let accuracy = AccuracyModel::for_network(&network);
    tracer.exit(span);

    // The pruner builds its ladders inside `prune_to_*`, out of reach of
    // a benchmark-side span. So the ladders are built first on their own
    // (`candidates_ms`: the cold cost on a miss-heavy mix), the plan call
    // then rebuilds them from the now-warm cache, and a second build
    // afterwards (`candidates_rerun`) measures that warm share so the
    // stage partition can take it out of `plan_ms` again.
    let pruner = PerfAwarePruner::new(&profiler, &accuracy);
    let build_ladders = |tracer: &mut Tracer, name: &'static str| {
        let ladders = tracer.enter(name, parent, id);
        for layer in network.layers() {
            let span = tracer.enter_labelled(
                "core.pruner.candidates_for",
                Some(layer.label().to_string()),
                Some(ladders),
                id,
            );
            black_box(pruner.candidates_for(&backend, layer));
            tracer.exit(span);
        }
        tracer.exit(ladders);
    };
    build_ladders(tracer, "core.pruner.candidates_ms");

    let span = tracer.enter("core.pruner.plan_ms", parent, id);
    let plan = match req.objective {
        RequestObjective::Latency => pruner.prune_to_latency(&backend, &network, req.budget),
        RequestObjective::Energy => pruner.prune_to_energy(&backend, &network, req.budget),
    };
    tracer.exit(span);
    build_ladders(tracer, "core.pruner.candidates_rerun");

    let pruned = network.sequential_with_kept(plan.kept_channels());
    let runner = NetworkRunner::new(&device)
        .with_cache(Arc::clone(service.cache()))
        .with_stats(Arc::clone(service.stats()));
    let span = tracer.enter("profiler.runner.verify_ms", parent, id);
    let partial = match req.fault_seed {
        Some(seed) => {
            let fault = FaultPlan::new(seed).with_permanent_rate(req.fault_rate);
            runner.try_run(&FaultyBackend::new(backend, fault), &pruned)
        }
        None => runner.try_run(&backend, &pruned),
    };
    tracer.exit(span);

    PlanResponse::Ok(PlanBody {
        network: req.network.clone(),
        device: req.device.clone(),
        backend: req.backend.clone(),
        objective: req.objective,
        budget: req.budget,
        latency_ms: plan.latency_ms(),
        energy_mj: plan.energy_mj(),
        accuracy: plan.accuracy(),
        kept: network
            .layers()
            .iter()
            .map(|l| {
                let channels = plan.kept_for(l.label()).unwrap_or(l.c_out());
                (l.label().to_string(), channels)
            })
            .collect(),
        degraded: !partial.is_complete(),
        verified_ms: partial.report().total_ms(),
        failed: partial
            .failed()
            .iter()
            .map(|f| FailedLayerInfo {
                layer: f.label.clone(),
                attempts: f.attempts,
                error: f.error.clone(),
            })
            .collect(),
    })
}

/// Cache layer micro-measurements: `(hit_us, miss_us at the daemon's
/// cap, miss_us unbounded)`, each a median over single
/// [`LatencyCache::cost`] calls. The cache is first filled well past the
/// cap with distinct keys (every channel count of every VGG-16 and
/// ResNet-50 layer, per backend and device); misses are then new keys.
pub fn cache_costs() -> Result<(f64, f64, f64), String> {
    const FILL: usize = 20 * CACHE_CAP;
    const PROBES: usize = 2000;
    let devices: Vec<_> = catalog::named_devices()
        .into_iter()
        .map(|(_, d)| d)
        .collect();
    let backends = mix::BACKENDS
        .iter()
        .map(|b| catalog::backend_by_name(b))
        .collect::<Result<Vec<_>, _>>()?;
    let mut keys: Vec<(usize, usize, ConvLayerSpec)> = Vec::new();
    'fill: for (b, _) in backends.iter().enumerate() {
        for (d, _) in devices.iter().enumerate() {
            for network in [pruneperf_models::vgg16(), pruneperf_models::resnet50()] {
                for layer in network.layers() {
                    for c in 1..=layer.c_out() {
                        if keys.len() == FILL + PROBES {
                            break 'fill;
                        }
                        if let Ok(spec) = layer.with_c_out(c) {
                            keys.push((b, d, spec));
                        }
                    }
                }
            }
        }
    }
    if keys.len() < FILL + PROBES {
        return Err(format!("only {} distinct cache keys", keys.len()));
    }
    let (fill, probes) = keys.split_at(FILL);
    let cost = |cache: &LatencyCache, (b, d, spec): &(usize, usize, ConvLayerSpec)| {
        if let (Some(backend), Some(device)) = (backends.get(*b), devices.get(*d)) {
            black_box(cache.cost(backend.as_ref(), spec, device));
        }
    };
    let measure = |cap: usize| -> (f64, f64) {
        let cache = LatencyCache::new();
        if cap > 0 {
            cache.set_max_entries_per_shard(cap);
        }
        for key in fill {
            cost(&cache, key);
        }
        let timed = |keys: &mut dyn Iterator<Item = &(usize, usize, ConvLayerSpec)>| {
            let samples: Vec<f64> = keys
                .map(|key| {
                    let t = now();
                    cost(&cache, key);
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&samples)
        };
        let miss_us = timed(&mut probes.iter());
        // The most recent inserts are still present, even at the cap.
        let hit_us = timed(&mut probes.iter().rev().take(PROBES / 8));
        (hit_us, miss_us)
    };
    let (hit_us, miss_cap_us) = measure(CACHE_CAP);
    let (_, miss_unbounded_us) = measure(0);
    Ok((hit_us, miss_cap_us, miss_unbounded_us))
}

/// The traced run: one untraced round for reference, then an in-process
/// replay of the same requests with spans around every layer call.
pub fn run_traced(mix: Mix, seed: u64, out_dir: &std::path::Path) -> Result<Outcome, String> {
    let (warmup, timed) = mix.bodies(seed);
    let mut out = Outcome::default();
    let untraced = run_round(&warmup, &timed, 1)?;
    let mut reference = Reference::new();
    let checked = check_round(&untraced, &warmup, &timed, &mut reference, &mut out)
        .pop()
        .ok_or("the untraced round has one block")?;

    sweep::set_sweep_jobs(sweep::resolve_jobs(None));
    // `handled` answers through `PlanService::handle`, exactly as the
    // daemon does; `staged` runs the decomposed stages on its own
    // service, so each sees the request sequence the daemon saw.
    let handled = PlanService::new(CACHE_CAP);
    let staged = PlanService::new(CACHE_CAP);
    let mut scratch = Tracer::new();
    for body in &warmup {
        let req = PlanRequest::parse(body).map_err(|e| format!("warm-up body: {e}"))?;
        black_box(handled.handle(&req));
        black_box(staged_handle(&staged, &req, &mut scratch, None, 0));
    }
    let cache0 = handled.cache().stats();
    let engine0 = handled.cache().engine_stats();
    let attempts0 = site_attempts(&handled);

    let replayed = timed.get(..mix.traced_requests()).unwrap_or(&timed);
    let mut tracer = Tracer::new();
    let t0 = now();
    for (id, body) in replayed.iter().enumerate() {
        out.attempted += 1;
        let root = tracer.enter("serve.request", None, id);
        let raw = mix::http_request(body);
        let span = tracer.enter("serve.http.read_us", Some(root), id);
        let http_req = http::read_request(&mut BufReader::new(raw.as_bytes()));
        tracer.exit(span);
        let http_req = http_req.map_err(|e| format!("read_request: {e}"))?;
        let span = tracer.enter("serve.protocol.parse_us", Some(root), id);
        let req = PlanRequest::parse(http_req.body.trim());
        tracer.exit(span);
        let req = req.map_err(|e| format!("parse: {e}"))?;
        let span = tracer.enter("serve.planner.handle_ms", Some(root), id);
        let response = handled.handle(&req);
        tracer.exit(span);
        let span = tracer.enter("serve.protocol.render_us", Some(root), id);
        let rendered = response.render(id, false);
        tracer.exit(span);
        let stages = tracer.enter("serve.planner.stages", Some(root), id);
        let staged_response = staged_handle(&staged, &req, &mut tracer, Some(stages), id);
        tracer.exit(stages);
        tracer.exit(root);
        let answer = Answer {
            status: response.http_status(),
            body: rendered.clone(),
            latency_ms: 0.0,
        };
        if !reference.accepts(body, &answer) || staged_response.render(id, false) != rendered {
            out.failed += 1;
            report_mismatch(body, &answer, &mut reference);
        }
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let cache1 = handled.cache().stats();
    let engine1 = handled.cache().engine_stats();
    let attempts1 = site_attempts(&handled);
    let (hit_us, miss_us, miss_unbounded_us) = cache_costs()?;

    let med_us = |name: &str| median(&tracer.samples_us(name));
    let total_us = |name: &str| tracer.samples_us(name).iter().sum::<f64>();
    let handle_ms = med_us("serve.planner.handle_ms") / 1e3;
    // resolve + build + ladders + (plan minus its warm ladder rebuild) +
    // verify: the stages `handle` runs, each once.
    let stage_total = total_us("serve.catalog.resolve_ms")
        + total_us("core.accuracy.build_ms")
        + total_us("core.pruner.candidates_ms")
        + total_us("core.pruner.plan_ms")
        - total_us("core.pruner.candidates_rerun")
        + total_us("profiler.runner.verify_ms");
    let traced_plans_per_s = replayed.len() as f64 / traced_s;
    let hits = cache1.hits.saturating_sub(cache0.hits);
    let misses = cache1.misses.saturating_sub(cache0.misses);

    // Per-request medians of each stage span.
    for (name, unit) in [
        ("serve.http.read_us", "us"),
        ("serve.protocol.parse_us", "us"),
        ("serve.catalog.resolve_ms", "ms"),
        ("core.accuracy.build_ms", "ms"),
        ("core.pruner.candidates_ms", "ms"),
        ("core.pruner.plan_ms", "ms"),
        ("profiler.runner.verify_ms", "ms"),
        ("serve.protocol.render_us", "us"),
    ] {
        let per_unit = if unit == "ms" { 1e3 } else { 1.0 };
        out.metric(name, med_us(name) / per_unit, unit);
    }
    out.metric("serve.planner.handle_ms", handle_ms, "ms");
    out.metric(
        "serve.planner.stage_coverage",
        stage_total / total_us("serve.planner.handle_ms").max(f64::MIN_POSITIVE),
        "ratio",
    );
    out.metric("serve.server.overhead_ms", checked.p50_ms - handle_ms, "ms");
    out.metric(
        "serve.admission.worker_share_max",
        worker_share_max(replayed),
        "ratio",
    );
    out.metric(
        "profiler.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric("profiler.cache.misses", misses as f64, "count");
    out.metric(
        "profiler.cache.evictions",
        cache1.evictions.saturating_sub(cache0.evictions) as f64,
        "count",
    );
    out.metric("profiler.cache.hit_us", hit_us, "us");
    out.metric("profiler.cache.miss_us", miss_us, "us");
    out.metric("profiler.cache.miss_unbounded_us", miss_unbounded_us, "us");
    out.metric(
        "gpusim.chains_assembled",
        engine1
            .chains_assembled
            .saturating_sub(engine0.chains_assembled) as f64,
        "count",
    );
    out.metric(
        "gpusim.kernel_evals",
        engine1.kernel_evals.saturating_sub(engine0.kernel_evals) as f64,
        "count",
    );
    out.metric(
        "gpusim.engine_runs",
        engine1.engine_runs.saturating_sub(engine0.engine_runs) as f64,
        "count",
    );
    out.metric(
        "profiler.retry_attempts",
        attempts1.saturating_sub(attempts0) as f64,
        "count",
    );
    out.metric(
        "trace.overhead_ratio",
        checked.plans_per_s / traced_plans_per_s,
        "ratio",
    );
    out.line(format!(
        "traced replay: {} of {} requests in {traced_s:.3} s ({traced_plans_per_s:.3} plans/s) vs untraced {:.3} plans/s over the live daemon; \
         the replay runs each request twice on one thread (through handle, then stage by stage)",
        replayed.len(),
        timed.len(),
        checked.plans_per_s
    ));
    write_trace(&tracer, mix_name(mix), seed, out_dir, &mut out)?;
    Ok(out)
}

fn mix_name(mix: Mix) -> &'static str {
    match mix {
        Mix::Warm => "serve_warm",
        Mix::Churn => "serve_churn",
    }
}

/// Backend attempts summed over every instrumented retry site.
fn site_attempts(service: &PlanService) -> u64 {
    service
        .stats()
        .sites()
        .iter()
        .map(|(_, c)| c.attempts)
        .sum()
}

/// Writes the Chrome trace under `out_dir` and notes its path.
pub fn write_trace(
    tracer: &Tracer,
    workload: &str,
    seed: u64,
    out_dir: &std::path::Path,
    out: &mut Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;
    let path = out_dir.join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::write(&path, tracer.to_chrome_json())
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    out.line(format!(
        "chrome trace: {} ({} spans)",
        path.display(),
        tracer.spans().len()
    ));
    Ok(())
}
