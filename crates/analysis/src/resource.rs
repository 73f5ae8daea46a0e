//! The resource-bound rules (`RB001`–`RB004`).
//!
//! The search arc (ROADMAP item 4) keeps millions of candidate plans in
//! flight through long-lived state — the `LatencyCache` and `KernelMemo`
//! (both over one bounded `ShardedMemo`), job queues, trace buffers. A collection that only ever grows is a slow
//! memory leak at serving scale, and the paper's §IV caching argument only
//! holds while the cache fits the device. These rules make boundedness a
//! reviewed property:
//!
//! - `RB001` — a grow-only struct field: a `self.`-prefixed collection
//!   receiving `push`/`insert`/`extend` with no shrink site
//!   (`remove`/`pop`/`clear`/`truncate`/`drain`/…) anywhere in the same
//!   file (marker: `lint: allow(grow)`, one marked grow site justifies
//!   the field).
//! - `RB002` — unbounded channel construction (`channel()`,
//!   `unbounded()`): without a capacity there is no backpressure
//!   (marker: `lint: allow(unbounded-channel)`).
//! - `RB003` — a cache-like struct (`*Cache`, `*Memo`) in a file with no
//!   capacity policy: no shrink site, no eviction-named function and no
//!   capacity-limit vocabulary (`max_entries`, `max_capacity`,
//!   `capacity_limit`, `evict`). The `lint: allow(cache-bound)` marker on
//!   the struct declaration is the reviewed justification.
//! - `RB004` — self-recursion on the fallible API surface with no
//!   depth/fuel-style bound in scope: unbounded recursion turns a deep
//!   input into a stack overflow, which no `Result` can catch (marker:
//!   `lint: allow(recursion-bound)`).
//!
//! Field identity is scoped per file, like lock identity in
//! [`crate::callgraph`]: same-named fields in different modules are
//! genuinely different collections. Shrink evidence is likewise per-file —
//! an over-approximation pair documented in `DESIGN.md` §13.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::model::MutKind;
use crate::panic_path::FALLIBLE_ROOTS;
use crate::rules;

/// Call names that construct an unbounded channel (`RB002`).
const UNBOUNDED_CHANNEL_CALLS: &[&str] = &["channel", "unbounded"];

/// Function names that count as eviction evidence for `RB003` even
/// without a modeled shrink mutation (the body may shrink through a
/// helper the token scan cannot see).
const EVICTION_FN_NAMES: &[&str] = &[
    "clear",
    "evict",
    "trim",
    "shrink",
    "invalidate",
    "reset",
    "prune",
];

/// Runs the RB rules over the call graph's model.
pub fn check(graph: &CallGraph<'_>) -> Vec<Diagnostic> {
    let model = graph.model();
    let mut diags: Vec<Diagnostic> = Vec::new();

    // Per-file shrink evidence and per-(file, field) grow sites.
    let mut shrunk_fields: BTreeMap<(&str, &str), ()> = BTreeMap::new();
    // (file, field) -> (first site, any allow(grow) marker on a site).
    let mut grow_sites: BTreeMap<(&str, &str), (usize, bool)> = BTreeMap::new();
    for f in &model.functions {
        for m in &f.mutations {
            let field = m.path.split('.').next().unwrap_or(&m.path);
            match m.kind {
                MutKind::Shrink => {
                    shrunk_fields.insert((f.file.as_str(), field), ());
                }
                MutKind::Grow if m.self_prefixed => {
                    let slot = grow_sites
                        .entry((f.file.as_str(), field))
                        .or_insert((m.line, false));
                    slot.0 = slot.0.min(m.line);
                    slot.1 |= f.allows(m.line, "grow");
                }
                _ => {}
            }
        }
    }
    for (&(file, field), &(line, justified)) in &grow_sites {
        if justified || shrunk_fields.contains_key(&(file, field)) {
            continue;
        }
        diags.push(
            Diagnostic::new(
                rules::RB001,
                severity(rules::RB001),
                format!("{file}:{line}"),
                format!(
                    "field `{field}` only ever grows: it receives pushes/inserts \
                     but has no shrink site in `{file}`"
                ),
            )
            .with_hint(
                "add an eviction/clear path, or mark one grow site \
                 `// lint: allow(grow) — <why the size is bounded>`",
            ),
        );
    }

    for f in &model.functions {
        for c in &f.calls {
            if !UNBOUNDED_CHANNEL_CALLS.contains(&c.name.as_str())
                || f.allows(c.line, "unbounded-channel")
            {
                continue;
            }
            diags.push(
                Diagnostic::new(
                    rules::RB002,
                    severity(rules::RB002),
                    format!("{}:{}", f.file, c.line),
                    format!(
                        "`{}(…)` constructs an unbounded channel — producers never \
                         block, so a slow consumer grows the queue without limit",
                        c.name
                    ),
                )
                .with_hint(
                    "use a bounded variant (`sync_channel`, `bounded`) sized to the \
                     admission policy, or mark \
                     `// lint: allow(unbounded-channel) — <why it is bounded>`",
                ),
            );
        }
    }

    for facts in &model.facts {
        if facts.cache_structs.is_empty() {
            continue;
        }
        let fns_in_file = || model.functions.iter().filter(move |f| f.file == facts.file);
        let has_shrink =
            fns_in_file().any(|f| f.mutations.iter().any(|m| m.kind == MutKind::Shrink));
        let has_eviction_fn = fns_in_file().any(|f| {
            EVICTION_FN_NAMES
                .iter()
                .any(|n| f.name == *n || f.name.contains("evict"))
        });
        if facts.has_capacity_tokens || has_shrink || has_eviction_fn {
            continue;
        }
        for (line, name) in &facts.cache_structs {
            diags.push(
                Diagnostic::new(
                    rules::RB003,
                    severity(rules::RB003),
                    format!("{}:{}", facts.file, line),
                    format!(
                        "cache-like struct `{name}` has no capacity policy: no \
                         eviction method, shrink site or capacity limit in its file"
                    ),
                )
                .with_hint(
                    "add bounded eviction (max_entries + evict/clear), or mark the \
                     declaration `// lint: allow(cache-bound) — <why it is bounded>`",
                ),
            );
        }
    }

    let mut roots: Vec<usize> = Vec::new();
    for name in FALLIBLE_ROOTS {
        roots.extend_from_slice(graph.functions_named(name));
    }
    roots.sort_unstable();
    roots.dedup();
    let (reached, parent, root_of) = graph.reach_from(&roots);
    for (i, f) in model.functions.iter().enumerate() {
        if !reached[i] || f.has_depth_bound_token {
            continue;
        }
        // Direct self-recursion only: a bare `name(…)` or `self.name(…)`
        // call. A qualified `Vec::new()` inside `fn new`, or `x.len()`
        // inside `fn len`, resolves to the same bare name without being
        // recursion (mutual recursion is a documented miss — §13).
        let Some(site) = f
            .calls
            .iter()
            .find(|c| c.name == f.name && (c.bare || c.recv.as_deref() == Some("self")))
        else {
            continue;
        };
        if f.allows(site.line, "recursion-bound") {
            continue;
        }
        let root_name = root_of[i]
            .map(|r| model.functions[r].name.as_str())
            .unwrap_or("?");
        let chain = graph.chain_to(&parent, i, 6);
        diags.push(
            Diagnostic::new(
                rules::RB004,
                severity(rules::RB004),
                format!("{}:{}", f.file, site.line),
                format!(
                    "`{}` recurses with no depth bound on the fallible path: \
                     reachable from `{root_name}` via {chain}",
                    f.name
                ),
            )
            .with_hint(
                "thread an explicit depth/fuel parameter and fail when it runs out, \
                 or mark `// lint: allow(recursion-bound) — <why depth is bounded>`",
            ),
        );
    }

    diags
}

/// Catalog severity for a rule id.
fn severity(rule: &str) -> crate::Severity {
    rules::rule_info(rule).map_or(crate::Severity::Error, |r| r.severity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{self, SourceModel};

    fn diags_for(src: &str) -> Vec<Diagnostic> {
        let functions = model::model_file("lib.rs", src);
        let facts = vec![model::file_facts("lib.rs", src)];
        let m = SourceModel {
            functions,
            facts,
            files: 1,
        };
        let g = CallGraph::build(&m);
        check(&g)
    }

    #[test]
    fn rb001_flags_grow_only_fields_and_accepts_shrinks() {
        let bad = "\
impl Log {
    fn record(&mut self, x: u32) {
        self.entries.push(x);
    }
}
";
        let diags = diags_for(bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, rules::RB001);
        assert!(diags[0].message.contains("entries"), "{diags:?}");

        let balanced = "\
impl Log {
    fn record(&mut self, x: u32) {
        self.entries.push(x);
    }
    fn flush(&mut self) {
        self.entries.clear();
    }
}
";
        assert!(diags_for(balanced).is_empty(), "{:?}", diags_for(balanced));
    }

    #[test]
    fn rb001_marker_justifies_the_field() {
        let src = "\
impl Log {
    fn record(&mut self, x: u32) {
        // lint: allow(grow) — bounded by the fixed stage count
        self.entries.push(x);
    }
}
";
        assert!(diags_for(src).is_empty(), "{:?}", diags_for(src));
    }

    #[test]
    fn rb002_flags_unbounded_channels() {
        let src = "\
fn wire() -> (Sender<u32>, Receiver<u32>) {
    mpsc::channel()
}
";
        let diags = diags_for(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, rules::RB002);

        let marked = "\
fn wire() -> (Sender<u32>, Receiver<u32>) {
    // lint: allow(unbounded-channel) — at most one message per run
    mpsc::channel()
}
";
        assert!(diags_for(marked).is_empty(), "{:?}", diags_for(marked));
    }

    #[test]
    fn rb003_flags_policy_free_caches_and_accepts_evidence() {
        let bad = "\
pub struct PlanCache {
    rows: Vec<Row>,
}
impl PlanCache {
    fn put(&mut self, r: Row) {
        // lint: allow(grow) — seeded: the rule under test is RB003
        self.rows.push(r);
    }
}
";
        let diags = diags_for(bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, rules::RB003);

        let capped = "\
pub struct PlanCache {
    rows: Vec<Row>,
    max_entries: usize,
}
";
        assert!(diags_for(capped).is_empty(), "{:?}", diags_for(capped));

        let evicting = "\
pub struct PlanCache {
    rows: Vec<Row>,
}
impl PlanCache {
    fn evict_oldest(&mut self) {
        self.rows.pop();
    }
}
";
        assert!(diags_for(evicting).is_empty(), "{:?}", diags_for(evicting));
    }

    #[test]
    fn rb004_flags_unbounded_fallible_recursion() {
        let bad = "\
fn try_cost(v: &[u32]) -> Result<u32, ()> {
    descend(v)
}
fn descend(v: &[u32]) -> Result<u32, ()> {
    if v.is_empty() {
        return Ok(0);
    }
    descend(&v[1..])
}
";
        let diags = diags_for(bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, rules::RB004);
        assert!(diags[0].message.contains("try_cost → descend"), "{diags:?}");

        let bounded = "\
fn try_cost(v: &[u32]) -> Result<u32, ()> {
    descend(v, 8)
}
fn descend(v: &[u32], fuel: u32) -> Result<u32, ()> {
    if v.is_empty() || fuel == 0 {
        return Ok(0);
    }
    descend(&v[1..], fuel - 1)
}
";
        assert!(diags_for(bounded).is_empty(), "{:?}", diags_for(bounded));
    }

    #[test]
    fn cold_recursion_is_ignored() {
        let src = "\
fn walk(v: &[u32]) -> u32 {
    if v.is_empty() {
        0
    } else {
        walk(&v[1..])
    }
}
";
        assert!(diags_for(src).is_empty(), "{:?}", diags_for(src));
    }
}
