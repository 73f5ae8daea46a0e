//! Output correctness: every served plan must equal the in-process
//! reference answer for the same request.

use std::collections::HashMap;

use pruneperf_serve::{PlanRequest, PlanService};

use crate::client::Answer;

/// A response body with its `"id":<n>` field removed; the id numbers
/// the daemon's connections and is the one field allowed to differ.
pub fn strip_id(body: &str) -> String {
    let Some(start) = body.find("\"id\":") else {
        return body.to_string();
    };
    let digits_from = start + "\"id\":".len();
    let rest = body.get(digits_from..).unwrap_or("");
    let digits = rest.chars().take_while(char::is_ascii_digit).count();
    let mut after = rest.get(digits..).unwrap_or("");
    if let Some(stripped) = after.strip_prefix(',') {
        after = stripped;
    }
    format!("{}{after}", body.get(..start).unwrap_or(""))
}

/// Entries the reference cache may hold before it is cleared.
const REFERENCE_MAX_ENTRIES: usize = 100_000;

/// Reference answers, computed once per distinct body on one fresh
/// unbounded service (a cache bound changes retention, never values).
/// Its cache is cleared whenever it outgrows [`REFERENCE_MAX_ENTRIES`]:
/// answers do not depend on cache history, and a wide mix would
/// otherwise hold hundreds of MiB.
pub struct Reference {
    service: PlanService,
    answers: HashMap<String, String>,
}

impl Reference {
    /// A fresh reference service.
    pub fn new() -> Self {
        Reference {
            service: PlanService::new(0),
            answers: HashMap::new(),
        }
    }

    /// The expected body for `body`, id removed.
    pub fn expected(&mut self, body: &str) -> String {
        if let Some(known) = self.answers.get(body) {
            return known.clone();
        }
        let rendered = match PlanRequest::parse(body) {
            Ok(req) => self.service.handle(&req).render(0, false),
            Err(e) => format!("unparseable request: {e}"),
        };
        if self.service.cache().len() > REFERENCE_MAX_ENTRIES {
            self.service.cache().clear();
        }
        let expected = strip_id(&rendered);
        // lint: allow(grow) — one entry per distinct body of a finite workload
        self.answers.insert(body.to_string(), expected.clone());
        expected
    }

    /// Whether `answer` is a correct 200 response to `body`.
    pub fn accepts(&mut self, body: &str, answer: &Answer) -> bool {
        answer.status == 200 && strip_id(&answer.body) == self.expected(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = r#"{"network":"alexnet","device":"tx2","objective":"latency","budget":0.7}"#;

    #[test]
    fn ids_are_the_only_field_removed() {
        assert_eq!(
            strip_id(r#"{"status":"ok","id":42,"network":"alexnet"}"#),
            r#"{"status":"ok","network":"alexnet"}"#
        );
        assert_eq!(strip_id(r#"{"status":"ok"}"#), r#"{"status":"ok"}"#);
    }

    #[test]
    fn the_check_rejects_one_altered_kept_count() {
        let mut reference = Reference::new();
        let served = PlanService::new(4096)
            .handle(&PlanRequest::parse(BODY).expect("valid request"))
            .render(17, false);
        let answer = |body: String| Answer {
            status: 200,
            body,
            latency_ms: 1.0,
        };
        assert!(reference.accepts(BODY, &answer(served.clone())));

        // Alter exactly one kept-channel count: `["<label>",<n>]` -> n+1.
        let kept_at = served
            .find("\"kept\":[[")
            .expect("plans list kept channels");
        let tail = served.get(kept_at..).expect("in bounds");
        let comma = tail.find("\",").expect("label then count") + 2;
        let count: String = tail
            .get(comma..)
            .expect("in bounds")
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let n: usize = count.parse().expect("kept count is an integer");
        let at = kept_at + comma;
        let altered = format!(
            "{}{}{}",
            served.get(..at).expect("in bounds"),
            n + 1,
            served.get(at + count.len()..).expect("in bounds")
        );
        assert_ne!(altered, served);
        assert!(!reference.accepts(BODY, &answer(altered)));

        // A right body under a wrong status is wrong too.
        let mut shed = answer(served);
        shed.status = 429;
        assert!(!reference.accepts(BODY, &shed));
    }
}
