//! Seeded request mixes for the serve workloads.
//!
//! Both mixes are pure functions of the seed. The warm mix reuses the
//! system's own load generator ([`generate_trace`]) for its body pool;
//! the churn mix spans the whole catalog so its latency working set is
//! far larger than the daemon's cache bound. Both are stratified, so
//! seeds change which requests are sent more than how much work they
//! carry.

use std::collections::HashSet;

use pruneperf_serve::loadgen::{generate_trace, LoadgenOptions};

/// Requests generated to collect the warm pool's distinct bodies.
pub const WARM_TRACE_REQUESTS: usize = 240;

/// Catalog names the churn mix draws from.
pub const NETWORKS: [&str; 4] = ["alexnet", "vgg16", "resnet50", "mobilenetv1"];
/// Device short names.
pub const DEVICES: [&str; 4] = ["hikey970", "odroidxu4", "tx2", "nano"];
/// Backend short names.
pub const BACKENDS: [&str; 6] = [
    "acl-gemm",
    "acl-direct",
    "acl-direct-tuned",
    "acl-auto",
    "cudnn",
    "tvm",
];
/// Plan objectives.
pub const OBJECTIVES: [&str; 2] = ["latency", "energy"];

/// `splitmix64` step: the stateful form of the repo's stock mixer.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The distinct request bodies of the loadgen trace for `seed`, in
/// first-seen order, each a JSON object without the `arrival_ms` field.
pub fn warm_pool(seed: u64) -> Vec<String> {
    let trace = generate_trace(&LoadgenOptions {
        seed,
        requests: WARM_TRACE_REQUESTS,
        ..LoadgenOptions::default()
    });
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    for line in trace.lines() {
        // Each line is `{"arrival_ms":<t>,<body fields>}`.
        let Some((_, fields)) = line.split_once(',') else {
            continue;
        };
        let body = format!("{{{fields}");
        if seen.insert(body.clone()) {
            pool.push(body);
        }
    }
    pool
}

/// The `network` field of a generated body.
#[cfg(test)]
fn network_of(body: &str) -> &str {
    body.split_once("\"network\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map_or("", |(name, _)| name)
}

/// The stratum of a loadgen body: its network, device and objective
/// (everything before the budget).
fn stratum_of(body: &str) -> &str {
    body.split_once(",\"budget\"")
        .map_or(body, |(head, _)| head)
}

/// `n` bodies drawn by seed (with replacement) from `pool`, stratified
/// by network, device and objective: draw `i` comes from the `i mod k`-th
/// of the pool's `k` strata, in first-seen order, so the work mix does
/// not swing with the seed.
pub fn draw(pool: &[String], seed: u64, n: usize) -> Vec<String> {
    let mut strata: Vec<(&str, Vec<&String>)> = Vec::new();
    for body in pool {
        let key = stratum_of(body);
        match strata.iter_mut().find(|(name, _)| *name == key) {
            Some((_, bodies)) => bodies.push(body),
            None => strata.push((key, vec![body])),
        }
    }
    let mut rng = seed ^ 0x5eed_d4a3;
    (0..n)
        .map(|i| {
            let Some((_, bodies)) = strata.get(i % strata.len().max(1)) else {
                return String::new();
            };
            let ix = (splitmix(&mut rng) % bodies.len().max(1) as u64) as usize;
            bodies.get(ix).map_or_else(String::new, |b| (*b).clone())
        })
        .collect()
}

/// One body for every (network, device, backend) triple of the catalog.
/// Networks take turns (the closed loop then pairs the same networks
/// back to back for every seed); within a network the order is seeded,
/// as are the objective, a budget in `[0.4, 0.9)` and a fault seed on
/// about one request in five.
pub fn churn_mix(seed: u64) -> Vec<String> {
    let mut rng = seed ^ 0xc4u64.rotate_left(56);
    let mut per_network: Vec<Vec<String>> = Vec::new();
    for network in NETWORKS {
        let mut keyed: Vec<(u64, String)> = Vec::new();
        for device in DEVICES {
            for backend in BACKENDS {
                let objective = OBJECTIVES[(splitmix(&mut rng) % 2) as usize];
                let budget_milli = 400 + splitmix(&mut rng) % 500;
                let mut body = format!(
                    "{{\"network\":\"{network}\",\"device\":\"{device}\",\"backend\":\"{backend}\",\
                     \"objective\":\"{objective}\",\"budget\":0.{budget_milli}"
                );
                if splitmix(&mut rng).is_multiple_of(5) {
                    let fault_seed = splitmix(&mut rng) % 1000;
                    body.push_str(&format!(",\"fault_seed\":{fault_seed},\"fault_rate\":0.6"));
                }
                body.push('}');
                keyed.push((splitmix(&mut rng), body));
            }
        }
        keyed.sort();
        per_network.push(keyed.into_iter().map(|(_, body)| body).collect());
    }
    let per = DEVICES.len() * BACKENDS.len();
    (0..per)
        .flat_map(|i| {
            per_network
                .iter()
                .filter_map(move |bodies| bodies.get(i).cloned())
        })
        .collect()
}

/// The full HTTP/1.1 request the client sends for one plan body.
pub fn http_request(body: &str) -> String {
    format!(
        "POST /plan HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_serve::catalog;
    use pruneperf_serve::PlanRequest;

    fn assert_in_catalog(body: &str) {
        let req = PlanRequest::parse(body).expect("generated bodies parse");
        assert!(catalog::network_by_name(&req.network).is_ok(), "{body}");
        assert!(catalog::device_by_name(&req.device).is_ok(), "{body}");
        assert!(catalog::backend_by_name(&req.backend).is_ok(), "{body}");
        assert!(req.budget > 0.0 && req.budget <= 1.0, "{body}");
    }

    #[test]
    fn the_mixes_are_seed_deterministic() {
        assert_eq!(warm_pool(7), warm_pool(7));
        assert_ne!(warm_pool(7), warm_pool(8));
        let pool = warm_pool(7);
        assert_eq!(draw(&pool, 7, 50), draw(&pool, 7, 50));
        assert_ne!(draw(&pool, 7, 50), draw(&pool, 8, 50));
        assert_eq!(churn_mix(7), churn_mix(7));
        assert_ne!(churn_mix(7), churn_mix(8));
    }

    #[test]
    fn the_mixes_stay_within_the_catalog() {
        for seed in 0..8 {
            let pool = warm_pool(seed);
            assert!(pool.len() > 40, "seed {seed}: pool of {}", pool.len());
            let distinct: HashSet<&String> = pool.iter().collect();
            assert_eq!(distinct.len(), pool.len(), "the pool holds distinct bodies");
            for body in &pool {
                assert_in_catalog(body);
                assert!(!body.contains("arrival_ms"));
            }
            let drawn = draw(&pool, seed, 160);
            let strata: HashSet<&str> = pool.iter().map(|b| stratum_of(b)).collect();
            assert_eq!(
                strata.len(),
                16,
                "seed {seed}: 2 networks x 4 devices x 2 objectives"
            );
            for network in ["alexnet", "mobilenetv1"] {
                let n = drawn.iter().filter(|b| network_of(b) == network).count();
                assert_eq!(n, 80, "seed {seed}: draws are balanced by network");
            }

            let churn = churn_mix(seed);
            let faulty = churn.iter().filter(|b| b.contains("fault_seed")).count();
            assert!((5..=40).contains(&faulty), "seed {seed}: {faulty} faulty");
            let mut triples = HashSet::new();
            for body in &churn {
                assert_in_catalog(body);
                let req = PlanRequest::parse(body).expect("parsed above");
                assert!((0.4..0.9).contains(&req.budget), "{body}");
                triples.insert((req.network, req.device, req.backend));
            }
            // Every (network, device, backend) triple exactly once, with
            // the networks taking turns.
            assert_eq!(triples.len(), churn.len());
            assert_eq!(churn.len(), NETWORKS.len() * DEVICES.len() * BACKENDS.len());
            for (i, body) in churn.iter().enumerate() {
                assert_eq!(network_of(body), NETWORKS[i % NETWORKS.len()]);
            }
        }
    }
}
