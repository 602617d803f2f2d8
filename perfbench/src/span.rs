//! In-memory span recorder for the traced run.
//!
//! The benchmark's own loop wraps every call it makes into a layer of
//! the stack in a span. A span records its layer, its start and end on
//! the wall clock, the span that opened it (its parent) and the session
//! it belongs to. Spans stay in memory while the run lasts and are
//! written out once, when it ends.
//!
//! A layer's self time is the duration of its spans minus the part
//! covered by their children. The per-session root span's self time is
//! therefore the loop's own glue, and the layer self times plus that
//! glue add up to the traced wall time.
//!
//! With tracing off, [`Tracer::span`] calls its closure and nothing
//! else: no clock read, no allocation.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layer a span's call goes into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Root span of one session; its self time is the loop's glue.
    Session,
    /// Per-session construction: topology instance, `Net`, depots,
    /// sink, and the client's first connect.
    Setup,
    /// `Net::poll`: netsim scheduling plus tcp input and timers.
    TcpPoll,
    /// `BulkSender::handle`, including the tcp send path it calls.
    Sender,
    /// `Depot::handle`.
    Depot,
    /// `SinkServer::handle` and `take_outcomes`.
    Sink,
    /// `SessionClient::handle`, `on_outcome` and `update_scores`.
    Client,
    /// `StripedSession::handle` and `on_outcome`.
    Stripe,
    /// `ForecastPlane::observe_live`, `sweep` and `arm`.
    NwsSweep,
    /// `ForecastPlane::scores`.
    NwsScores,
    /// `ConnTrace` detach plus `seq_growth` and `retransmissions`.
    TraceAnalyze,
    /// Obs recorder drain and end-of-run link export.
    Obs,
    /// `LslListener::accept` and `IncomingSession::read_all`.
    RealnetSink,
    /// The benchmark's own output checks.
    Verify,
}

impl Layer {
    pub const ALL: [Layer; 14] = [
        Layer::Session,
        Layer::Setup,
        Layer::TcpPoll,
        Layer::Sender,
        Layer::Depot,
        Layer::Sink,
        Layer::Client,
        Layer::Stripe,
        Layer::NwsSweep,
        Layer::NwsScores,
        Layer::TraceAnalyze,
        Layer::Obs,
        Layer::RealnetSink,
        Layer::Verify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Session => "bench.session",
            Layer::Setup => "setup",
            Layer::TcpPoll => "tcp.poll",
            Layer::Sender => "session.sender",
            Layer::Depot => "session.depot",
            Layer::Sink => "session.sink",
            Layer::Client => "session.client",
            Layer::Stripe => "session.stripe",
            Layer::NwsSweep => "nws.sweep",
            Layer::NwsScores => "nws.scores",
            Layer::TraceAnalyze => "trace.analyze",
            Layer::Obs => "obs",
            Layer::RealnetSink => "realnet.sink",
            Layer::Verify => "bench.verify",
        }
    }

    /// Layers of the program under test (everything but the
    /// benchmark's own glue and checks).
    pub fn is_program(self) -> bool {
        !matches!(self, Layer::Session | Layer::Verify)
    }
}

/// Totals for one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub calls: u64,
    pub self_ns: u64,
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
struct SpanRec {
    start_ns: u64,
    dur_ns: u64,
    /// Index of the parent span in the kept log (`u32::MAX`: none, or
    /// the parent was past the cap).
    parent: u32,
    session: u32,
    layer: Layer,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    /// Index in the kept log, if kept.
    rec: Option<u32>,
}

/// Span recorder. Keeps up to `cap` spans; later ones still count
/// towards the per-layer totals.
pub struct Tracer {
    on: bool,
    origin: Instant,
    stack: Vec<Open>,
    agg: [Agg; Layer::ALL.len()],
    spans: Vec<SpanRec>,
    cap: usize,
    session: u32,
}

impl Tracer {
    pub fn new(on: bool, cap: usize) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            stack: Vec::new(),
            agg: [Agg::default(); Layer::ALL.len()],
            spans: Vec::new(),
            cap,
            session: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span of `layer`.
    fn enter(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let rec = (self.spans.len() < self.cap).then(|| {
            let parent = self.stack.last().and_then(|o| o.rec).unwrap_or(u32::MAX);
            self.spans.push(SpanRec {
                start_ns,
                dur_ns: 0,
                parent,
                session: self.session,
                layer,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            rec,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.rec {
            self.spans[i as usize].dur_ns = dur;
        }
        let a = &mut self.agg[open.layer as usize];
        a.calls += 1;
        a.self_ns += dur - open.child_ns.min(dur);
    }

    /// Run `f` inside a span of `layer`.
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.enter(layer);
        let out = f();
        self.exit();
        out
    }

    /// Open the root span of session `id`.
    pub fn begin_session(&mut self, id: u32) {
        self.session = id;
        self.enter(Layer::Session);
    }

    pub fn agg(&self, layer: Layer) -> Agg {
        self.agg[layer as usize]
    }

    /// Self time of the program's layers, seconds.
    pub fn program_self_s(&self) -> f64 {
        Layer::ALL
            .iter()
            .filter(|l| l.is_program())
            .map(|&l| self.agg(l).self_ns as f64 / 1e9)
            .sum()
    }

    /// Spans that did not fit under the cap.
    pub fn dropped(&self) -> u64 {
        let calls: u64 = self.agg.iter().map(|a| a.calls).sum();
        calls - self.spans.len() as u64
    }

    /// Write the kept spans as tab-separated rows:
    /// `id parent session layer start_ns dur_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tsession\tlayer\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.session,
                s.layer.name(),
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, 16);
        t.begin_session(0);
        t.span(Layer::TcpPoll, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.exit();
        let root = t.agg(Layer::Session);
        let poll = t.agg(Layer::TcpPoll);
        assert_eq!(poll.calls, 1);
        assert!(poll.self_ns >= 2_000_000);
        assert!((1_000_000..2_000_000).contains(&root.self_ns), "{root:?}");
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, 16);
        assert_eq!(t.span(Layer::Sender, || 7), 7);
        assert_eq!(t.agg(Layer::Sender).calls, 0);
    }
}
