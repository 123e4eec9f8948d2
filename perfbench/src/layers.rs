//! Per-layer timing, taken from outside the program.
//!
//! Every number here comes from the benchmark's own `Instant` timers
//! around calls into lsbench's public functions. Nothing inside the
//! program is instrumented, and `WallStats.latency` is never read: it
//! charges each op the length of its whole dispatch batch, so it is not a
//! per-op latency.

use lsbench_sut::sut::{ExecOutcome, SutMetrics, SystemUnderTest, TransportStats};
use lsbench_workload::ops::Operation;
use std::collections::BTreeMap;
use std::time::Instant;

/// Wall time and call count spent in one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Wall seconds.
    pub seconds: f64,
    /// Calls into the layer.
    pub calls: u64,
}

/// Named layer spans of one iteration. Layer names are lsbench's modules
/// (`workload.dataset`, `sut.execute`, `results.encode`, ...).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    spans: BTreeMap<&'static str, Span>,
}

impl Ledger {
    /// Runs `f`, charging its wall time and one call to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(layer, t0.elapsed().as_secs_f64(), 1);
        out
    }

    /// Charges `seconds` and `calls` to `layer`.
    pub fn add(&mut self, layer: &'static str, seconds: f64, calls: u64) {
        let span = self.spans.entry(layer).or_default();
        span.seconds += seconds;
        span.calls += calls;
    }

    /// Seconds charged to `layer` (0 when the layer never ran).
    pub fn seconds(&self, layer: &str) -> f64 {
        self.spans.get(layer).map_or(0.0, |s| s.seconds)
    }

    /// Calls charged to `layer`.
    pub fn calls(&self, layer: &str) -> u64 {
        self.spans.get(layer).map_or(0, |s| s.calls)
    }
}

/// Per-op probe latencies split by kind, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct ProbeLatencies {
    /// Reads and scans.
    pub read_ns: Vec<u64>,
    /// Inserts, updates and deletes.
    pub write_ns: Vec<u64>,
}

/// A pass-through SUT that times every call into the wrapped SUT.
///
/// In batch mode it times each `execute_many` call as the driver made it,
/// which keeps the driver's batching intact. In per-op mode it splits each
/// batch into one-op `execute_many` calls and records every op's latency;
/// that changes batching, so per-op mode is only used on a fresh SUT in a
/// separate pass, never in a run whose totals are reported.
pub struct TimedSut<'a> {
    inner: &'a mut (dyn SystemUnderTest<Operation> + Send),
    /// Time in `execute`/`execute_many`.
    pub execute: Span,
    /// Time in `train`, `maintenance`, `on_phase_change` and `crash`.
    pub maintenance: Span,
    per_op: Option<ProbeLatencies>,
}

impl<'a> TimedSut<'a> {
    /// Times whole calls (batch mode).
    pub fn new(inner: &'a mut (dyn SystemUnderTest<Operation> + Send)) -> Self {
        TimedSut {
            inner,
            execute: Span::default(),
            maintenance: Span::default(),
            per_op: None,
        }
    }

    /// Times every op on its own (per-op mode).
    pub fn per_op(inner: &'a mut (dyn SystemUnderTest<Operation> + Send)) -> Self {
        TimedSut {
            per_op: Some(ProbeLatencies::default()),
            ..TimedSut::new(inner)
        }
    }

    /// The per-op latencies recorded so far (empty in batch mode).
    pub fn into_latencies(self) -> ProbeLatencies {
        self.per_op.unwrap_or_default()
    }

    fn maint<T>(&mut self, f: impl FnOnce(&mut (dyn SystemUnderTest<Operation> + Send)) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.inner);
        self.maintenance.seconds += t0.elapsed().as_secs_f64();
        self.maintenance.calls += 1;
        out
    }
}

impl SystemUnderTest<Operation> for TimedSut<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn train(&mut self, budget: u64) -> u64 {
        self.maint(|s| s.train(budget))
    }

    fn execute(&mut self, op: &Operation) -> lsbench_sut::Result<ExecOutcome> {
        let t0 = Instant::now();
        let out = self.inner.execute(op);
        let ns = t0.elapsed();
        self.execute.seconds += ns.as_secs_f64();
        self.execute.calls += 1;
        if let Some(lat) = self.per_op.as_mut() {
            record_op(lat, op, ns.as_nanos() as u64);
        }
        out
    }

    fn execute_many(&mut self, ops: &[Operation]) -> Vec<lsbench_sut::Result<ExecOutcome>> {
        let Some(lat) = self.per_op.as_mut() else {
            let t0 = Instant::now();
            let out = self.inner.execute_many(ops);
            self.execute.seconds += t0.elapsed().as_secs_f64();
            self.execute.calls += 1;
            return out;
        };
        let mut out = Vec::with_capacity(ops.len());
        for op in ops {
            let t0 = Instant::now();
            let one = self.inner.execute_many(std::slice::from_ref(op));
            let ns = t0.elapsed();
            self.execute.seconds += ns.as_secs_f64();
            self.execute.calls += 1;
            record_op(lat, op, ns.as_nanos() as u64);
            out.extend(one);
        }
        out
    }

    fn on_phase_change(&mut self, new_phase: usize) -> u64 {
        self.maint(|s| s.on_phase_change(new_phase))
    }

    fn maintenance(&mut self) -> u64 {
        self.maint(|s| s.maintenance())
    }

    fn crash(&mut self) -> u64 {
        self.maint(|s| s.crash())
    }

    fn metrics(&self) -> SutMetrics {
        self.inner.metrics()
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}

fn record_op(lat: &mut ProbeLatencies, op: &Operation, ns: u64) {
    if op.is_write() {
        lat.write_ns.push(ns);
    } else {
        lat.read_ns.push(ns);
    }
}
