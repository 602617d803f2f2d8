//! Whole-program determinism analyses on the call graph.
//!
//! Two passes, both over [`crate::graph::Workspace`]:
//!
//! - **Nondeterminism taint** (`nondet-taint`): functions that read a
//!   nondeterministic value (wall clock, environment, spawned threads,
//!   `RandomState`, `Ordering::Relaxed` loads, pointer-address
//!   formatting, `static mut`) are *sources*. Taint propagates from a
//!   source function to its callers — a caller consumes the source's
//!   return value, so it is over-approximated as tainted too. A finding
//!   fires when a tainted function inside the deterministic domain
//!   (sim-domain crates plus `obs`/`trace`/`digest`) hands data to a
//!   *sink*: span/metric emission, invariant recording, fingerprinting,
//!   event scheduling, or queue insertion. Each finding reports the
//!   full source → sink call path, which the per-file lexical rules
//!   cannot see (the source and the sink live in different functions,
//!   often different crates).
//!
//! - **Panic reachability** (`panic-in-pub-api`): panic-family macros
//!   (`panic!`, `assert!*`, `unreachable!`, `todo!` — not
//!   `debug_assert!*`) in non-test session-crate code that a public
//!   session API can reach. Reachability here prefers precision over
//!   recall: it walks resolved path-call edges always, but by-name
//!   method edges only when the method name is unambiguous in the
//!   workspace (a `.push()` must not make every `Vec` user
//!   "panic-reachable").

use std::collections::BTreeMap;

use crate::graph::{SymbolId, Workspace};
use crate::rules::{Finding, RuleId};

/// Crates whose outputs must be bit-identical across reruns: the
/// sim-domain crates plus the telemetry/trace/digest planes they emit
/// through.
pub const DETERMINISTIC_DOMAIN: &[&str] = &[
    "netsim",
    "tcp",
    "session",
    "nws",
    "workloads",
    "obs",
    "trace",
    "digest",
];

/// Function names whose arguments end up in deterministic artifacts:
/// trace spans, metrics, invariant records, fingerprints/digests, and
/// the event queue.
pub const SINK_NAMES: &[&str] = &[
    "span_begin",
    "span_end",
    "instant",
    "counter_add",
    "gauge_max",
    "gauge_set",
    "hist_observe",
    "record",
    "record_obs_link_metrics",
    "fingerprint",
    "trailer_digest",
    "block_digests",
    "block_digest",
    "schedule",
    "enqueue",
];

/// One nondeterminism introduction point inside a function.
#[derive(Debug, Clone)]
pub struct TaintSource {
    pub sym: SymbolId,
    /// Short category: `wall-clock`, `env-read`, …
    pub kind: &'static str,
    /// What exactly was seen (`std::env::var`, `{:p}`, …).
    pub detail: String,
    pub line: u32,
}

/// Find every taint source in the workspace. Test code and the
/// sanctioned harness files are not seeded.
pub fn collect_sources(ws: &Workspace, exempt_files: &[&str]) -> Vec<TaintSource> {
    let mut out = Vec::new();
    // static mut names, per crate (usage anywhere in the crate taints).
    let mut statics_mut: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for m in &ws.modules {
        for s in &m.statics_mut {
            statics_mut
                .entry(m.crate_dir.as_str())
                .or_default()
                .push(s.as_str());
        }
    }

    for (id, sym) in ws.symbols.iter().enumerate() {
        if sym.in_test || exempt_files.contains(&sym.file.as_str()) {
            continue;
        }
        for ext in &ws.externals[id] {
            let p = ext.path.as_str();
            let kind =
                if p.starts_with("std::time::Instant") || p.starts_with("std::time::SystemTime") {
                    Some("wall-clock")
                } else if p.starts_with("std::env::") {
                    Some("env-read")
                } else if p.starts_with("std::thread::") && !p.ends_with("::sleep") {
                    Some("thread")
                } else if p.contains("RandomState") {
                    Some("hash-state")
                } else if p.ends_with("Ordering::Relaxed") {
                    Some("relaxed-atomic")
                } else {
                    None
                };
            if let Some(kind) = kind {
                out.push(TaintSource {
                    sym: id,
                    kind,
                    detail: p.to_string(),
                    line: ext.line,
                });
            }
        }
        // Unresolved `Ordering::Relaxed` / `RandomState` mentions (no
        // visible `use`): fall back to the raw path refs.
        for pr in &sym.facts.paths {
            let segs = &pr.segments;
            let relaxed = segs.len() >= 2
                && segs[segs.len() - 2] == "Ordering"
                && segs[segs.len() - 1] == "Relaxed";
            let external_hit = ws.externals[id].iter().any(|e| e.line == pr.line);
            if relaxed && !external_hit {
                out.push(TaintSource {
                    sym: id,
                    kind: "relaxed-atomic",
                    detail: pr.dotted(),
                    line: pr.line,
                });
            }
        }
        for s in &sym.facts.strings {
            if s.text.contains("{:p}") {
                out.push(TaintSource {
                    sym: id,
                    kind: "ptr-address",
                    detail: "{:p} format".to_string(),
                    line: s.line,
                });
            }
        }
        if let Some(names) = statics_mut.get(sym.crate_dir.as_str()) {
            for n in names {
                if sym.facts.idents.contains(*n) {
                    out.push(TaintSource {
                        sym: id,
                        kind: "static-mut",
                        detail: format!("static mut {n}"),
                        line: sym.line,
                    });
                }
            }
        }
    }
    out
}

/// Sink calls made by one function: `(name, line, col)`.
fn sink_calls(ws: &Workspace, id: SymbolId) -> Vec<(String, u32, u32)> {
    let sym = &ws.symbols[id];
    let mut out = Vec::new();
    for m in &sym.facts.method_calls {
        if SINK_NAMES.contains(&m.name.as_str()) {
            out.push((m.name.clone(), m.line, m.col));
        }
    }
    for p in &sym.facts.paths {
        if p.kind == crate::parser::PathKind::Call && SINK_NAMES.contains(&p.last()) {
            out.push((p.last().to_string(), p.line, p.col));
        }
    }
    out
}

/// Propagate every source to its transitive callers; report each
/// tainted deterministic-domain function that feeds a sink, with the
/// source → sink path. One finding per (source site, sink function,
/// sink name).
pub fn analyze(ws: &Workspace, exempt_files: &[&str]) -> Vec<Finding> {
    let sources = collect_sources(ws, exempt_files);
    let rev = ws.reverse_calls();
    let mut findings = Vec::new();

    for src in &sources {
        // BFS from the source fn over reverse call edges, recording
        // parents for path reconstruction.
        let mut parent: BTreeMap<SymbolId, SymbolId> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([src.sym]);
        let mut visited = vec![false; ws.symbols.len()];
        visited[src.sym] = true;
        while let Some(cur) = queue.pop_front() {
            let sym = &ws.symbols[cur];
            if !sym.in_test && DETERMINISTIC_DOMAIN.contains(&sym.crate_dir.as_str()) {
                let mut reported = std::collections::BTreeSet::new();
                for (name, line, col) in sink_calls(ws, cur) {
                    if !reported.insert(name.clone()) {
                        continue;
                    }
                    let path = call_path(ws, &parent, src.sym, cur);
                    findings.push(Finding {
                        file: sym.file.clone(),
                        line,
                        col,
                        rule: RuleId::NondetTaint,
                        message: format!(
                            "{} value ({} at {}:{}) can reach sink `{name}` (path: {path})",
                            src.kind, src.detail, ws.symbols[src.sym].file, src.line
                        ),
                    });
                }
            }
            for &caller in &rev[cur] {
                if !visited[caller] {
                    visited[caller] = true;
                    parent.insert(caller, cur);
                    queue.push_back(caller);
                }
            }
        }
    }
    findings
}

/// `source_fn -> … -> sink_fn` using the BFS parent map (parents point
/// from caller back toward the source's callee chain).
fn call_path(
    ws: &Workspace,
    parent: &BTreeMap<SymbolId, SymbolId>,
    source: SymbolId,
    sink: SymbolId,
) -> String {
    let mut chain = vec![sink];
    let mut cur = sink;
    while cur != source {
        match parent.get(&cur) {
            Some(&p) => {
                chain.push(p);
                cur = p;
            }
            None => break,
        }
    }
    chain.reverse();
    chain
        .iter()
        .map(|&id| ws.symbols[id].display())
        .collect::<Vec<_>>()
        .join(" -> ")
}

const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
];

/// Panic-family macro sites in non-test `session` code reachable from a
/// public session API. Reported once per site, naming one entry path.
pub fn panic_in_pub_api(ws: &Workspace) -> Vec<Finding> {
    // Precise reverse edges: path calls always; method edges only when
    // the name is workspace-unique.
    let mut method_count: BTreeMap<&str, usize> = BTreeMap::new();
    for sym in &ws.symbols {
        if sym.type_name.is_some() {
            *method_count.entry(sym.name.as_str()).or_default() += 1;
        }
    }
    let mut rev: Vec<Vec<SymbolId>> = vec![Vec::new(); ws.symbols.len()];
    for (from, edges) in ws.calls.iter().enumerate() {
        for e in edges {
            let ambiguous_method =
                e.via.starts_with('.') && method_count.get(&e.via[1..]).copied().unwrap_or(0) > 1;
            if !ambiguous_method {
                rev[e.to].push(from);
            }
        }
    }
    for v in &mut rev {
        v.sort();
        v.dedup();
    }

    let mut findings = Vec::new();
    for (id, sym) in ws.symbols.iter().enumerate() {
        if sym.crate_dir != "session" || sym.in_test {
            continue;
        }
        let sites: Vec<_> = sym
            .facts
            .paths
            .iter()
            .filter(|p| {
                p.kind == crate::parser::PathKind::Macro && PANIC_MACROS.contains(&p.last())
            })
            .collect();
        if sites.is_empty() {
            continue;
        }
        // Walk callers until a public non-test session fn is reached.
        let mut parent: BTreeMap<SymbolId, SymbolId> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([id]);
        let mut visited = vec![false; ws.symbols.len()];
        visited[id] = true;
        let mut entry = None;
        while let Some(cur) = queue.pop_front() {
            let s = &ws.symbols[cur];
            if s.is_pub && !s.in_test && s.crate_dir == "session" {
                entry = Some(cur);
                break;
            }
            for &caller in &rev[cur] {
                if !visited[caller] {
                    visited[caller] = true;
                    parent.insert(caller, cur);
                    queue.push_back(caller);
                }
            }
        }
        let Some(entry) = entry else { continue };
        // Reconstruct entry -> … -> panicking fn.
        let mut chain = vec![entry];
        let mut cur = entry;
        while cur != id {
            match parent.get(&cur) {
                Some(&p) => {
                    chain.push(p);
                    cur = p;
                }
                None => break,
            }
        }
        let path = chain
            .iter()
            .map(|&s| ws.symbols[s].display())
            .collect::<Vec<_>>()
            .join(" -> ");
        for p in sites {
            findings.push(Finding {
                file: sym.file.clone(),
                line: p.line,
                col: p.col,
                rule: RuleId::PanicInPubApi,
                message: format!(
                    "{}! reachable from public session API `{}` (path: {path})",
                    p.last(),
                    ws.symbols[entry].display()
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::testutil::scratch_dir;

    const OBS_MANIFEST: &str = "[package]\nname = \"lsl-obs\"\n";
    const NETSIM_MANIFEST: &str =
        "[package]\nname = \"lsl-netsim\"\n\n[dependencies]\nlsl-obs.workspace = true\n";

    fn load(files: &[(&str, &str)]) -> (crate::graph::testutil::TempDir, Workspace) {
        let td = scratch_dir(files);
        let ws = Workspace::load(td.path()).expect("load");
        (td, ws)
    }

    #[test]
    fn cross_function_env_read_reaches_metric_sink() {
        // The source (env read) and the sink (counter_add) live in
        // DIFFERENT functions: no per-file lexical rule can connect
        // them — this is the case the call graph exists for.
        let (_td, ws) = load(&[
            ("crates/obs/Cargo.toml", OBS_MANIFEST),
            (
                "crates/obs/src/lib.rs",
                "pub fn counter_add(name: &str, idx: u64, d: u64) {}\n",
            ),
            ("crates/netsim/Cargo.toml", NETSIM_MANIFEST),
            (
                "crates/netsim/src/lib.rs",
                "fn knob() -> u64 {\n    std::env::var(\"LSL_KNOB\").ok().and_then(|v| v.parse().ok()).unwrap_or(0)\n}\npub fn step(t: u64) {\n    let k = knob();\n    lsl_obs::counter_add(\"knob\", 0, k);\n}\n",
            ),
        ]);
        let f = analyze(&ws, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::NondetTaint);
        assert!(f[0].message.contains("env-read"), "{}", f[0].message);
        assert!(f[0].message.contains("std::env::var"), "{}", f[0].message);
        assert!(
            f[0].message.contains("knob -> step"),
            "path missing: {}",
            f[0].message
        );
        assert_eq!(f[0].file, "crates/netsim/src/lib.rs");
    }

    #[test]
    fn sources_outside_the_deterministic_domain_do_not_fire() {
        // realnet reads the wall clock, but nothing in the sim domain
        // depends on realnet — no taint path exists into a sink.
        let (_td, ws) = load(&[
            ("crates/realnet/Cargo.toml", "[package]\nname = \"lsl-realnet\"\n"),
            (
                "crates/realnet/src/lib.rs",
                "pub fn now_ms() -> u64 { let t = std::time::Instant::now(); 0 }\npub fn serve() { let t = now_ms(); log_it(t); }\nfn log_it(t: u64) {}\n",
            ),
        ]);
        assert!(analyze(&ws, &[]).is_empty());
        // …but the source itself was seen.
        assert!(collect_sources(&ws, &[])
            .iter()
            .any(|s| s.kind == "wall-clock"));
    }

    #[test]
    fn exempt_files_and_tests_are_not_seeded() {
        let (_td, ws) = load(&[
            ("crates/workloads/Cargo.toml", "[package]\nname = \"lsl-workloads\"\n"),
            (
                "crates/workloads/src/lib.rs",
                "pub mod campaign;\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v = std::env::var(\"X\"); }\n}\n",
            ),
            (
                "crates/workloads/src/campaign.rs",
                "pub fn fan_out() { let n = std::thread::spawn(|| {}); }\n",
            ),
        ]);
        let sources = collect_sources(&ws, &["crates/workloads/src/campaign.rs"]);
        assert!(sources.is_empty(), "{sources:?}");
    }

    #[test]
    fn relaxed_atomics_and_ptr_format_are_sources() {
        let (_td, ws) = load(&[
            ("crates/netsim/Cargo.toml", "[package]\nname = \"lsl-netsim\"\n"),
            (
                "crates/netsim/src/lib.rs",
                "use std::sync::atomic::{AtomicU64, Ordering};\npub fn read(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\npub fn label(x: &u32) -> String { format!(\"{:p}\", x) }\n",
            ),
        ]);
        let kinds: Vec<&str> = collect_sources(&ws, &[]).iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&"relaxed-atomic"), "{kinds:?}");
        assert!(kinds.contains(&"ptr-address"), "{kinds:?}");
    }

    #[test]
    fn static_mut_usage_taints_the_function() {
        let (_td, ws) = load(&[
            ("crates/tcp/Cargo.toml", "[package]\nname = \"lsl-tcp\"\n"),
            (
                "crates/tcp/src/lib.rs",
                "static mut SCRATCH: u64 = 0;\npub fn poke() -> u64 { unsafe { SCRATCH += 1; SCRATCH } }\npub fn clean() -> u64 { 7 }\n",
            ),
        ]);
        let sources = collect_sources(&ws, &[]);
        assert_eq!(sources.len(), 1, "{sources:?}");
        assert_eq!(sources[0].kind, "static-mut");
        assert_eq!(ws.symbols[sources[0].sym].name, "poke");
    }

    #[test]
    fn panic_reachable_from_pub_session_api_is_reported_with_path() {
        let (_td, ws) = load(&[
            ("crates/session/Cargo.toml", "[package]\nname = \"lsl-session\"\n"),
            (
                "crates/session/src/lib.rs",
                "pub fn open(sz: usize) { validate(sz); }\nfn validate(sz: usize) { assert!(sz > 0, \"empty\"); }\nfn dead() { panic!(\"unreached\"); }\n#[cfg(test)]\nmod tests { #[test] fn t() { panic!(\"test only\"); } }\n",
            ),
        ]);
        let f = panic_in_pub_api(&ws);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("open -> validate"),
            "{}",
            f[0].message
        );
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn ambiguous_method_edges_do_not_create_panic_reachability() {
        // Two `push` methods exist; a pub fn calling `.push()` on its own
        // buffer must not be considered able to reach the panicking one.
        let (_td, ws) = load(&[
            ("crates/session/Cargo.toml", "[package]\nname = \"lsl-session\"\n"),
            (
                "crates/session/src/lib.rs",
                "pub struct A { v: u64 }\nimpl A { fn push(&mut self) { panic!(\"boom\"); } }\npub struct B { v: u64 }\nimpl B { fn push(&mut self) {} }\npub fn api(b: &mut B) { b.push(); }\n",
            ),
        ]);
        assert!(panic_in_pub_api(&ws).is_empty());
    }
}
