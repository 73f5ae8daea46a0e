//! The wire protocol: plan requests and line-delimited JSON responses.
//!
//! Requests are one JSON object per line (the HTTP body in live mode,
//! one trace line in replay mode). Responses are rendered by hand in a
//! fixed field order — the same idiom as the chaos/bench/stats reports —
//! so a response byte stream can be golden-tested and byte-compared
//! across worker counts. Floats use Rust's shortest round-trip `{}`
//! form, which is deterministic.

use std::fmt::Write as _;

use serde::Value;
use serde_json::from_str;

/// What the client asks the planner to minimize against the budget.
pub use pruneperf_core::Objective as RequestObjective;

/// One plan request, parsed from a JSON object line.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Virtual arrival time in milliseconds (replay/loadgen only; the
    /// admission model queues and sheds against this clock).
    pub arrival_ms: f64,
    /// Network short name (`resnet50` | `vgg16` | `alexnet` |
    /// `mobilenetv1`).
    pub network: String,
    /// Device short name (`hikey970` | `odroidxu4` | `tx2` | `nano`).
    pub device: String,
    /// Backend short name; defaults to `acl-gemm`.
    pub backend: String,
    /// Pruning objective; defaults to latency.
    pub objective: RequestObjective,
    /// Budget fraction in `(0, 1]`.
    pub budget: f64,
    /// When present, the verification run goes through a seeded
    /// fault-injecting backend (the PR-4 fallible path): layers that
    /// still fail after retries degrade the response instead of
    /// erroring it.
    pub fault_seed: Option<u64>,
    /// Permanent-fault rate for the injected faults, in `[0, 1]`.
    pub fault_rate: f64,
}

impl PlanRequest {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for malformed JSON, missing
    /// required fields (`network`, `device`, `budget`) or out-of-range
    /// values. Name resolution is *not* checked here — unknown names
    /// become error *responses*, not parse failures, so one bad request
    /// cannot desynchronize a replay stream.
    pub fn parse(line: &str) -> Result<PlanRequest, String> {
        let value: Value = from_str(line).map_err(|e| format!("malformed request JSON: {e}"))?;
        let obj_err = || "request must be a JSON object".to_string();
        value.as_object().ok_or_else(obj_err)?;
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("request needs a string field '{key}'"))
        };
        let network = str_field("network")?;
        let device = str_field("device")?;
        let backend = match value.get("backend") {
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| "field 'backend' must be a string".to_string())?,
            None => "acl-gemm".to_string(),
        };
        let objective = match value.get("objective") {
            None => RequestObjective::Latency,
            Some(v) => match v.as_str() {
                Some("latency") => RequestObjective::Latency,
                Some("energy") => RequestObjective::Energy,
                _ => return Err("field 'objective' must be \"latency\" or \"energy\"".to_string()),
            },
        };
        let budget = value
            .get("budget")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| "request needs a numeric field 'budget'".to_string())?;
        let arrival_ms = match value.get("arrival_ms") {
            None => 0.0,
            Some(v) => v
                .as_f64()
                .ok_or_else(|| "field 'arrival_ms' must be a number".to_string())?,
        };
        if !arrival_ms.is_finite() || arrival_ms < 0.0 {
            return Err("field 'arrival_ms' must be a finite non-negative number".to_string());
        }
        let fault_seed =
            match value.get("fault_seed") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    "field 'fault_seed' must be a non-negative integer".to_string()
                })?),
            };
        let fault_rate = match value.get("fault_rate") {
            None => 0.25,
            Some(v) => v
                .as_f64()
                .ok_or_else(|| "field 'fault_rate' must be a number".to_string())?,
        };
        if !(0.0..=1.0).contains(&fault_rate) {
            return Err("field 'fault_rate' must be in [0, 1]".to_string());
        }
        Ok(PlanRequest {
            arrival_ms,
            network,
            device,
            backend,
            objective,
            budget,
            fault_seed,
            fault_rate,
        })
    }

    /// The dedup identity: everything that determines the response body
    /// except arrival time. Two requests with equal keys get one
    /// computation and byte-identical bodies (modulo the `deduped` flag).
    pub fn canonical_key(&self) -> String {
        let seed = match self.fault_seed {
            Some(s) => s.to_string(),
            None => "-".to_string(),
        };
        format!(
            "{}|{}|{}|{}|{:016x}|{}|{:016x}",
            self.network,
            self.device,
            self.backend,
            self.objective.as_str(),
            self.budget.to_bits(),
            seed,
            self.fault_rate.to_bits()
        )
    }
}

/// One layer the fallible verification run could not cost.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedLayerInfo {
    /// Layer label.
    pub layer: String,
    /// Retry attempts spent before giving up.
    pub attempts: u32,
    /// The final error, rendered.
    pub error: String,
}

/// The computed body of a successful plan response.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBody {
    /// Echo of the resolved request surface.
    pub network: String,
    /// Device short name echoed back.
    pub device: String,
    /// Backend short name echoed back.
    pub backend: String,
    /// Objective echoed back.
    pub objective: RequestObjective,
    /// Budget fraction echoed back.
    pub budget: f64,
    /// Planned latency, summed per-layer milliseconds.
    pub latency_ms: f64,
    /// Planned energy, millijoules.
    pub energy_mj: f64,
    /// Modeled accuracy after pruning, in `[0, 1]`.
    pub accuracy: f64,
    /// `(layer label, kept channels)` for every layer the plan touched,
    /// in network order.
    pub kept: Vec<(String, usize)>,
    /// `true` when the fallible verification run lost layers to
    /// permanent faults; the totals then cover only measured layers.
    pub degraded: bool,
    /// Verified latency over the measurable layers of the pruned
    /// network (equals a full verification when `degraded` is false).
    pub verified_ms: f64,
    /// The layers the verification run could not cost.
    pub failed: Vec<FailedLayerInfo>,
}

/// A response to one request line: computed, shed, or refused.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanResponse {
    /// The planner produced a (possibly degraded) plan.
    Ok(PlanBody),
    /// Admission control shed the request: the target worker's queue was
    /// full at arrival (the HTTP layer maps this to 429).
    Shed {
        /// Worker the request hashed to (device shard affinity).
        worker: usize,
        /// Queue depth observed at arrival.
        depth: usize,
    },
    /// The request was understood but refused (unknown name, bad
    /// budget); the message is user-facing (HTTP 400).
    Error(String),
}

impl PlanResponse {
    /// Renders the response as one JSON line (no trailing newline), in a
    /// fixed field order. `id` is the request's index in its stream;
    /// `deduped` marks a follower serving a leader's body.
    pub fn render(&self, id: usize, deduped: bool) -> String {
        let mut out = String::with_capacity(256);
        match self {
            PlanResponse::Ok(body) => {
                let _ = write!(
                    out,
                    "{{\"status\":\"ok\",\"id\":{id},\"network\":{},\"device\":{},\"backend\":{},\
                     \"objective\":\"{}\",\"budget\":{},\"deduped\":{deduped},\"degraded\":{},\
                     \"latency_ms\":{},\"energy_mj\":{},\"accuracy\":{},\"verified_ms\":{}",
                    json_string(&body.network),
                    json_string(&body.device),
                    json_string(&body.backend),
                    body.objective.as_str(),
                    body.budget,
                    body.degraded,
                    body.latency_ms,
                    body.energy_mj,
                    body.accuracy,
                    body.verified_ms,
                );
                out.push_str(",\"kept\":[");
                for (i, (label, channels)) in body.kept.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{},{channels}]", json_string(label));
                }
                out.push_str("],\"failed\":[");
                for (i, f) in body.failed.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"layer\":{},\"attempts\":{},\"error\":{}}}",
                        json_string(&f.layer),
                        f.attempts,
                        json_string(&f.error)
                    );
                }
                out.push_str("]}");
            }
            PlanResponse::Shed { worker, depth } => {
                let _ = write!(
                    out,
                    "{{\"status\":\"shed\",\"id\":{id},\"worker\":{worker},\"depth\":{depth},\
                     \"error\":\"queue full, request shed\"}}"
                );
            }
            PlanResponse::Error(message) => {
                let _ = write!(
                    out,
                    "{{\"status\":\"error\",\"id\":{id},\"error\":{}}}",
                    json_string(message)
                );
            }
        }
        out
    }

    /// The HTTP status code this response maps to in live mode.
    pub fn http_status(&self) -> u16 {
        match self {
            PlanResponse::Ok(_) => 200,
            PlanResponse::Shed { .. } => 429,
            PlanResponse::Error(_) => 400,
        }
    }
}

/// Renders `s` as a JSON string literal with the required escapes.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let req = PlanRequest::parse(
            r#"{"arrival_ms": 3.5, "network": "alexnet", "device": "tx2", "backend": "cudnn",
                "objective": "energy", "budget": 0.7, "fault_seed": 9, "fault_rate": 0.5}"#,
        )
        .unwrap();
        assert_eq!(req.network, "alexnet");
        assert_eq!(req.device, "tx2");
        assert_eq!(req.backend, "cudnn");
        assert_eq!(req.objective, RequestObjective::Energy);
        assert_eq!(req.budget, 0.7);
        assert_eq!(req.arrival_ms, 3.5);
        assert_eq!(req.fault_seed, Some(9));
        assert_eq!(req.fault_rate, 0.5);
    }

    #[test]
    fn defaults_backend_objective_and_arrival() {
        let req =
            PlanRequest::parse(r#"{"network":"vgg16","device":"hikey970","budget":0.8}"#).unwrap();
        assert_eq!(req.backend, "acl-gemm");
        assert_eq!(req.objective, RequestObjective::Latency);
        assert_eq!(req.arrival_ms, 0.0);
        assert_eq!(req.fault_seed, None);
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("not json", "malformed"),
            ("[1,2]", "JSON object"),
            (r#"{"device":"tx2","budget":0.8}"#, "'network'"),
            (r#"{"network":"alexnet","budget":0.8}"#, "'device'"),
            (r#"{"network":"alexnet","device":"tx2"}"#, "'budget'"),
            (
                r#"{"network":"alexnet","device":"tx2","budget":0.8,"objective":"speed"}"#,
                "objective",
            ),
            (
                r#"{"network":"alexnet","device":"tx2","budget":0.8,"fault_rate":2.0}"#,
                "fault_rate",
            ),
            (
                r#"{"network":"alexnet","device":"tx2","budget":0.8,"arrival_ms":-1}"#,
                "arrival_ms",
            ),
        ] {
            let e = PlanRequest::parse(line).unwrap_err();
            assert!(e.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn canonical_key_ignores_arrival_only() {
        let a = PlanRequest::parse(
            r#"{"arrival_ms":1,"network":"alexnet","device":"tx2","budget":0.8}"#,
        )
        .unwrap();
        let b = PlanRequest::parse(
            r#"{"arrival_ms":9,"network":"alexnet","device":"tx2","budget":0.8}"#,
        )
        .unwrap();
        let c = PlanRequest::parse(
            r#"{"arrival_ms":1,"network":"alexnet","device":"tx2","budget":0.7}"#,
        )
        .unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_ne!(a.canonical_key(), c.canonical_key());
    }

    #[test]
    fn responses_render_fixed_order_json() {
        let shed = PlanResponse::Shed {
            worker: 1,
            depth: 2,
        };
        assert_eq!(
            shed.render(7, false),
            "{\"status\":\"shed\",\"id\":7,\"worker\":1,\"depth\":2,\
             \"error\":\"queue full, request shed\"}"
        );
        assert_eq!(shed.http_status(), 429);
        let error = PlanResponse::Error("unknown device 'x'".to_string());
        assert_eq!(
            error.render(0, false),
            "{\"status\":\"error\",\"id\":0,\"error\":\"unknown device 'x'\"}"
        );
        assert_eq!(error.http_status(), 400);
    }

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
