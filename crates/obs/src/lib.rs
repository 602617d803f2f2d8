//! Deterministic observability plane for the LSL stack.
//!
//! Every layer of the simulator (netsim, tcp, session, workloads)
//! reports telemetry through this crate: **spans** (begin/end/instant
//! events stamped with sim time) and **metrics** (counters, gauges,
//! fixed-bucket histograms). Two properties are non-negotiable and
//! shape the whole design:
//!
//! - **Determinism.** No wall clock anywhere: timestamps are the
//!   caller's sim time in nanoseconds (`u64`). All registries are
//!   BTree-ordered, all arithmetic is saturating integer math, and the
//!   canonical renderings ([`ObsReport::render`],
//!   [`metrics::MetricsSnapshot::render`]) are byte-identical for
//!   same-seed runs — the chaos fingerprint contract extends over them.
//! - **Near-zero hot-path cost.** Recording is off by default; every
//!   entry point first checks a thread-local `Cell<bool>`. When
//!   enabled, span names are `&'static str` (no interning table, no
//!   formatting) and events append to a `Vec` — no per-event
//!   allocation beyond amortized growth.
//!
//! The recorder is **thread-local**: each simulation runs on one
//! thread, so parallel campaign workers never mix telemetry. A run brackets
//! itself with [`recorded`] (or `enable`/`take`) and gets back an
//! [`ObsReport`] it can render, export ([`export`]), or summarize
//! ([`report::flight_recorder`]).

pub mod export;
pub mod metrics;
pub mod report;
pub mod span;

pub use metrics::MetricsSnapshot;
pub use span::{SpanEvent, SpanPhase};

use std::cell::{Cell, RefCell};

#[derive(Default)]
struct Recorder {
    spans: Vec<SpanEvent>,
    metrics: metrics::Registry,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Everything one run recorded: the span log plus a metrics snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ObsReport {
    /// Span events in recording order (nondecreasing sim time).
    pub spans: Vec<SpanEvent>,
    /// Snapshot of every counter/gauge/histogram at capture time.
    pub metrics: MetricsSnapshot,
}

impl ObsReport {
    /// Canonical text form: the span log followed by the metrics
    /// snapshot. Byte-identical across same-seed runs; this is the
    /// string the determinism tests and fingerprints hash.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 32);
        out.push_str("spans:\n");
        for s in &self.spans {
            out.push_str(&s.render_line());
            out.push('\n');
        }
        out.push_str(&self.metrics.render());
        out
    }

    /// FNV-1a 64-bit digest of [`render`](Self::render) — a compact
    /// handle for fingerprint strings.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.render().as_bytes())
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.metrics.is_empty()
    }
}

/// FNV-1a over `bytes`; the same hash the netsim golden trace uses.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Turn recording on for this thread. Does not clear prior state —
/// pair with [`reset`] (or use [`recorded`]) at run boundaries.
pub fn enable() {
    ENABLED.with(|e| e.set(true));
}

/// Turn recording off for this thread.
pub fn disable() {
    ENABLED.with(|e| e.set(false));
}

/// Whether recording is currently on for this thread.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Clear all recorded spans and metrics on this thread.
pub fn reset() {
    RECORDER.with(|r| *r.borrow_mut() = Recorder::default());
}

/// Drain this thread's telemetry into an [`ObsReport`], leaving the
/// recorder empty. The enabled flag is untouched.
pub fn take() -> ObsReport {
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        ObsReport {
            spans: std::mem::take(&mut rec.spans),
            metrics: rec.metrics.take_snapshot(),
        }
    })
}

/// Run `f` with recording enabled on a clean recorder and return its
/// result together with the captured [`ObsReport`]. The previous
/// enabled state is restored afterwards, so nesting is safe.
pub fn recorded<T>(f: impl FnOnce() -> T) -> (T, ObsReport) {
    let was = is_enabled();
    reset();
    enable();
    let out = f();
    let rep = take();
    ENABLED.with(|e| e.set(was));
    (out, rep)
}

/// Record the beginning of a span. `id` disambiguates overlapping
/// spans of the same name (attempt number, session id, link id…).
#[inline]
pub fn span_begin(t_ns: u64, name: &'static str, id: u64) {
    push_span(t_ns, SpanPhase::Begin, name, id);
}

/// Record the end of the span opened by `span_begin(name, id)`.
#[inline]
pub fn span_end(t_ns: u64, name: &'static str, id: u64) {
    push_span(t_ns, SpanPhase::End, name, id);
}

/// Record a point event (no duration).
#[inline]
pub fn instant(t_ns: u64, name: &'static str, id: u64) {
    push_span(t_ns, SpanPhase::Instant, name, id);
}

#[inline]
fn push_span(t_ns: u64, phase: SpanPhase, name: &'static str, id: u64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| {
        r.borrow_mut().spans.push(SpanEvent {
            t_ns,
            phase,
            name,
            id,
        })
    });
}

/// Add `delta` to the counter `name[idx]` (saturating).
#[inline]
pub fn counter_add(name: &'static str, idx: u64, delta: u64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().metrics.counter_add(name, idx, delta));
}

/// Raise the high-watermark gauge `name[idx]` to at least `value`.
#[inline]
pub fn gauge_max(name: &'static str, idx: u64, value: u64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().metrics.gauge_max(name, idx, value));
}

/// Set the last-value gauge `name[idx]` to `value`.
#[inline]
pub fn gauge_set(name: &'static str, idx: u64, value: u64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().metrics.gauge_set(name, idx, value));
}

/// Record `value` into the power-of-two-bucket histogram `name`.
#[inline]
pub fn hist_observe(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().metrics.hist_observe(name, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        reset();
        disable();
        span_begin(1, "x", 0);
        counter_add("c", 0, 1);
        hist_observe("h", 7);
        let rep = take();
        assert!(rep.is_empty());
    }

    #[test]
    fn recorded_captures_and_restores() {
        disable();
        let ((), rep) = recorded(|| {
            span_begin(10, "session.attempt", 1);
            span_end(20, "session.attempt", 1);
            instant(15, "session.reconnect", 1);
            counter_add("tcp.retransmit.fast", 0, 2);
            gauge_max("netsim.link.queue_pkts_hwm", 3, 17);
            gauge_set("session.resume_offset", 0, 65536);
            hist_observe("session.recovery_ns", 1_000_000);
        });
        assert!(!is_enabled(), "previous enabled state restored");
        assert_eq!(rep.spans.len(), 3);
        assert_eq!(rep.spans[0].name, "session.attempt");
        let text = rep.render();
        assert!(text.contains("10 B session.attempt 1"), "{text}");
        assert!(text.contains("tcp.retransmit.fast[0] = 2"), "{text}");
        assert!(text.contains("session.resume_offset[0] = 65536"), "{text}");
        // Same input -> same digest; different input -> different.
        let ((), rep2) = recorded(|| {
            span_begin(10, "session.attempt", 1);
        });
        assert_ne!(rep.digest(), rep2.digest());
    }

    #[test]
    fn render_is_deterministic_across_insertion_orders() {
        let ((), a) = recorded(|| {
            counter_add("b", 1, 1);
            counter_add("a", 0, 1);
        });
        let ((), b) = recorded(|| {
            counter_add("a", 0, 1);
            counter_add("b", 1, 1);
        });
        assert_eq!(a.render(), b.render());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of empty input is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
