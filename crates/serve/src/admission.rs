//! Virtual-time admission control: bounded queues, explicit sheds.
//!
//! The live server's backpressure story must also hold in replay mode,
//! where there is no wall clock and no real queue — so both are driven
//! by the same *model*: each worker serves its queue FIFO at a fixed
//! virtual service time, a request hashes to a worker by device name
//! (shard affinity: requests for one device land where that device's
//! cache shards are warm), and a request arriving while its worker's
//! backlog is at capacity is shed with an explicit 429-style response —
//! never buffered without bound.
//!
//! The model is a pure function of `(arrival times, device names,
//! config)`. In particular it does **not** depend on `--jobs`: the
//! worker count here is the *simulated* pool (`--workers`), a protocol
//! parameter, while `--jobs` only fans out the independent response
//! computations. That split is what keeps replay output byte-identical
//! at any `--jobs`.

use std::cmp::Ordering;

use pruneperf_backends::hash::fnv1a;

/// The admission model's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Simulated worker count (device digests map onto these).
    pub workers: usize,
    /// Maximum backlog (queued + in service) per worker beyond the
    /// request being admitted; arrivals past this are shed.
    pub queue_capacity: usize,
    /// Virtual service time per admitted request, milliseconds.
    pub service_ms: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            workers: 4,
            queue_capacity: 4,
            service_ms: 5.0,
        }
    }
}

/// The model's verdict on one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionOutcome {
    /// Worker the request hashed to.
    pub worker: usize,
    /// `true` when the request was admitted (not shed).
    pub admitted: bool,
    /// Backlog observed at arrival (requests ahead of this one).
    pub depth: usize,
    /// Virtual start of service (admitted only; `0.0` otherwise).
    pub start_ms: f64,
    /// Virtual completion time (admitted only; `0.0` otherwise).
    pub finish_ms: f64,
}

impl AdmissionOutcome {
    /// Queueing + service latency in virtual milliseconds.
    pub fn latency_ms(&self, arrival_ms: f64) -> f64 {
        if self.admitted {
            self.finish_ms - arrival_ms
        } else {
            0.0
        }
    }
}

/// The worker a device's requests are pinned to: same digest family as
/// the latency cache's shard split, so one device's plans queue behind
/// each other (and in the live server, behind a warm per-device cache
/// working set) instead of scattering.
pub fn worker_for_device(device: &str, workers: usize) -> usize {
    (fnv1a(device.as_bytes()) % workers.max(1) as u64) as usize
}

/// Runs the model over `(arrival_ms, device)` pairs in stream order.
///
/// Arrivals are taken as given (traces are normally time-sorted; an
/// out-of-order trace is still processed deterministically in stream
/// order). For each request: backlog = admitted requests on the same
/// worker that finish after this arrival; `backlog > queue_capacity`
/// sheds, otherwise service starts when the worker frees up.
pub fn simulate(requests: &[(f64, &str)], config: &AdmissionConfig) -> Vec<AdmissionOutcome> {
    let workers = config.workers.max(1);
    // Per-worker finish times of admitted requests, in admission order.
    let mut finishes: Vec<Vec<f64>> = vec![Vec::new(); workers];
    let mut outcomes = Vec::with_capacity(requests.len());
    for &(arrival, device) in requests {
        let worker = worker_for_device(device, workers);
        // lint: allow(index) — worker < workers by construction
        let lane = &mut finishes[worker];
        // A lane's finish times never decrease, so the ones after this
        // arrival are a suffix. Spelled with `partial_cmp` so a NaN
        // arrival, like in a plain `f > arrival` count, finds none.
        let depth = lane.len()
            - lane.partition_point(|f| f.partial_cmp(&arrival) != Some(Ordering::Greater));
        if depth > config.queue_capacity {
            outcomes.push(AdmissionOutcome {
                worker,
                admitted: false,
                depth,
                start_ms: 0.0,
                finish_ms: 0.0,
            });
            continue;
        }
        let free_at = lane.last().copied().unwrap_or(0.0);
        let start = arrival.max(free_at);
        let finish = start + config.service_ms;
        debug_assert!(
            finish >= free_at,
            "service_ms > 0 keeps a lane's finish times non-decreasing"
        );
        lane.push(finish);
        outcomes.push(AdmissionOutcome {
            worker,
            admitted: true,
            depth,
            start_ms: start,
            finish_ms: finish,
        });
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workers: usize, queue: usize, service: f64) -> AdmissionConfig {
        AdmissionConfig {
            workers,
            queue_capacity: queue,
            service_ms: service,
        }
    }

    #[test]
    fn spread_arrivals_never_shed() {
        let reqs: Vec<(f64, &str)> = (0..8).map(|i| (i as f64 * 100.0, "tx2")).collect();
        let out = simulate(&reqs, &cfg(2, 1, 5.0));
        assert!(out.iter().all(|o| o.admitted));
        for (o, (t, _)) in out.iter().zip(&reqs) {
            assert_eq!(o.start_ms, *t, "idle worker starts immediately");
            assert_eq!(o.finish_ms, t + 5.0);
        }
    }

    #[test]
    fn a_burst_beyond_capacity_sheds() {
        // Five simultaneous arrivals on one device, queue capacity 1:
        // in-service + 1 queued admitted, the rest shed.
        let reqs: Vec<(f64, &str)> = (0..5).map(|_| (10.0, "tx2")).collect();
        let out = simulate(&reqs, &cfg(2, 1, 5.0));
        let admitted = out.iter().filter(|o| o.admitted).count();
        assert_eq!(admitted, 2);
        assert!(!out[4].admitted);
        assert_eq!(out[4].depth, 2);
        // Admitted requests queue FIFO on the worker.
        assert_eq!(out[0].start_ms, 10.0);
        assert_eq!(out[1].start_ms, 15.0);
    }

    #[test]
    fn devices_pin_to_workers() {
        let w = worker_for_device("tx2", 4);
        for _ in 0..3 {
            assert_eq!(worker_for_device("tx2", 4), w);
        }
        let reqs = [(0.0, "tx2"), (0.0, "tx2")];
        let out = simulate(&reqs, &cfg(4, 0, 5.0));
        assert_eq!(out[0].worker, out[1].worker);
    }

    #[test]
    fn the_model_is_a_pure_function_of_its_inputs() {
        let reqs: Vec<(f64, &str)> = (0..16)
            .map(|i| (i as f64 * 2.0, if i % 2 == 0 { "tx2" } else { "nano" }))
            .collect();
        let a = simulate(&reqs, &cfg(3, 2, 7.5));
        let b = simulate(&reqs, &cfg(3, 2, 7.5));
        assert_eq!(a, b);
    }

    /// [`simulate`] with the backlog counted by a scan over every finish
    /// time the lane ever admitted.
    fn simulate_linear(
        requests: &[(f64, &str)],
        config: &AdmissionConfig,
    ) -> Vec<AdmissionOutcome> {
        let workers = config.workers.max(1);
        let mut finishes: Vec<Vec<f64>> = vec![Vec::new(); workers];
        let mut outcomes = Vec::new();
        for &(arrival, device) in requests {
            let worker = worker_for_device(device, workers);
            let lane = &mut finishes[worker];
            let depth = lane.iter().filter(|&&f| f > arrival).count();
            if depth > config.queue_capacity {
                outcomes.push(AdmissionOutcome {
                    worker,
                    admitted: false,
                    depth,
                    start_ms: 0.0,
                    finish_ms: 0.0,
                });
                continue;
            }
            let free_at = lane.last().copied().unwrap_or(0.0);
            let start = arrival.max(free_at);
            let finish = start + config.service_ms;
            lane.push(finish);
            outcomes.push(AdmissionOutcome {
                worker,
                admitted: true,
                depth,
                start_ms: start,
                finish_ms: finish,
            });
        }
        outcomes
    }

    #[test]
    fn the_suffix_backlog_matches_a_linear_count() {
        let devices = ["tx2", "nano", "hikey970", "odroidxu4"];
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        // Arrivals on a 0.5 ms grid with 2.5 ms service, so many land
        // exactly on a finish time; every eighth steps back in time.
        let mut clock = 0.0f64;
        let reqs: Vec<(f64, &str)> = (0..3000)
            .map(|i| {
                clock += (next() % 4) as f64 * 0.5;
                let arrival = if i % 8 == 7 {
                    (clock - (next() % 40) as f64 * 0.5).max(0.0)
                } else {
                    clock
                };
                (arrival, devices[next() as usize % devices.len()])
            })
            .collect();
        for config in [
            cfg(1, 0, 2.5),
            cfg(2, 1, 2.5),
            cfg(3, 4, 2.5),
            cfg(2, 2, 0.75),
        ] {
            let fast = simulate(&reqs, &config);
            assert_eq!(fast, simulate_linear(&reqs, &config), "{config:?}");
            assert!(fast.iter().any(|o| !o.admitted), "{config:?} sheds");
        }
        let ties = [
            (0.0, "tx2"),
            (0.0, "tx2"),
            (2.5, "tx2"),
            (5.0, "tx2"),
            (f64::NAN, "tx2"),
            (1.0, "tx2"),
        ];
        let config = cfg(1, 1, 2.5);
        let out = simulate(&ties, &config);
        assert_eq!(out, simulate_linear(&ties, &config));
        assert_eq!(
            out[2].depth, 1,
            "the request finishing at 2.5 is not ahead of it"
        );
        assert_eq!(out[4].depth, 0, "no finish time orders after NaN");
    }

    #[test]
    fn latency_includes_queueing() {
        let reqs = [(0.0, "tx2"), (0.0, "tx2")];
        let out = simulate(&reqs, &cfg(1, 4, 5.0));
        assert_eq!(out[0].latency_ms(0.0), 5.0);
        assert_eq!(out[1].latency_ms(0.0), 10.0, "queued behind the first");
    }
}
