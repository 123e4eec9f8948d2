//! Turns iterations into the benchmark's metrics and the layer ledger.

use crate::layers::ProbeLatencies;
use crate::workloads::Iteration;
use lsbench_stats::descriptive;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    descriptive::median(values).unwrap_or(0.0)
}

/// The `q`-quantile of nanosecond samples (0 when empty).
fn ns_quantile(samples: &[u64], q: f64) -> f64 {
    let values: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    descriptive::quantile(&values, q).unwrap_or(0.0)
}

/// Median over iterations of `f`.
fn med(iterations: &[&Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    median(&iterations.iter().map(|it| f(it)).collect::<Vec<_>>())
}

/// The end-to-end metrics, from untraced iterations only.
pub fn end_to_end(untraced: &[&Iteration], peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", med(untraced, |it| it.setup_s)),
        metric(
            "ops_per_s",
            "ops/s",
            med(untraced, |it| it.ops() as f64 / it.run_s()),
        ),
        metric("total_s", "s", med(untraced, |it| it.total_s)),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// Layers whose time sums to the flow's `total_s`, in flow order. The run
/// layers (`driver.run`, `engine.run`) contain op generation and the SUT
/// calls; the ledger splits them out.
const FLOW_LAYERS: [&str; 11] = [
    "workload.dataset",
    "sut.build",
    "driver.run",
    "engine.run",
    "capacity.reduce",
    "metrics.adaptability",
    "metrics.sla",
    "metrics.specialization",
    "results.save",
    "results.load",
    "results.compare",
];

/// Seconds of `it`'s run layer (`driver.run` or `engine.run`) left after
/// op generation and the calls into the SUT: dispatch, fault routing,
/// record append, scheduling and hold-out bookkeeping.
fn overhead_s(it: &Iteration, run_layer: &str) -> f64 {
    let run = it.ledger.seconds(run_layer);
    if run == 0.0 {
        return 0.0;
    }
    let opgen = it.opgen_ns_per_op * it.ops() as f64 * 1e-9;
    run - opgen - it.ledger.seconds("sut.execute") - it.ledger.seconds("sut.maintenance")
}

fn unattributed_frac(it: &Iteration) -> f64 {
    let attributed: f64 = FLOW_LAYERS.iter().map(|l| it.ledger.seconds(l)).sum();
    1.0 - attributed / it.total_s
}

/// Per-op latency samples pooled over the workload's SUTs.
fn pooled_latencies(probed: &Iteration) -> ProbeLatencies {
    let mut pooled = ProbeLatencies::default();
    for row in &probed.suts {
        pooled.read_ns.extend(&row.latencies.read_ns);
        pooled.write_ns.extend(&row.latencies.write_ns);
    }
    pooled
}

/// The per-layer metrics, from traced iterations, with per-op latencies
/// from the one that `probed` them; the tracing overhead compares them
/// with the untraced ones. `failed_op_frac` counts every iteration.
pub fn per_layer(
    traced: &[&Iteration],
    untraced: &[&Iteration],
    probed: &Iteration,
    failed_op_frac: f64,
) -> Vec<Metric> {
    let secs = |layer: &'static str| med(traced, |it| it.ledger.seconds(layer));
    let per_op_ns = |layer: &'static str| {
        med(traced, |it| {
            overhead_s(it, layer) * 1e9 / it.ops().max(1) as f64
        })
    };
    let lat = pooled_latencies(probed);
    let derive = |it: &Iteration| {
        [
            "metrics.adaptability",
            "metrics.sla",
            "metrics.specialization",
        ]
        .iter()
        .map(|l| it.ledger.seconds(l))
        .sum::<f64>()
    };
    let probes = med(traced, |it| {
        it.capacity.as_ref().map_or(0.0, |c| c.probes as f64)
    });
    let probe_s = med(traced, |it| {
        it.capacity.as_ref().map_or(0.0, |c| median(&c.probe_s))
    });
    let trace_overhead = med(traced, |it| it.total_s) / med(untraced, |it| it.total_s) - 1.0;
    vec![
        metric("workload.dataset_s", "s", secs("workload.dataset")),
        metric(
            "workload.opgen_ns_per_op",
            "ns",
            med(traced, |it| it.opgen_ns_per_op),
        ),
        metric("sut.build_s", "s", secs("sut.build")),
        metric("sut.execute_s", "s", secs("sut.execute")),
        metric("sut.read_ns.p50", "ns", ns_quantile(&lat.read_ns, 0.5)),
        metric("sut.read_ns.p99", "ns", ns_quantile(&lat.read_ns, 0.99)),
        metric("sut.read_samples", "count", lat.read_ns.len() as f64),
        metric("sut.write_ns.p50", "ns", ns_quantile(&lat.write_ns, 0.5)),
        metric("sut.write_ns.p99", "ns", ns_quantile(&lat.write_ns, 0.99)),
        metric("sut.write_samples", "count", lat.write_ns.len() as f64),
        metric("sut.maintenance_s", "s", secs("sut.maintenance")),
        metric(
            "sut.adaptations",
            "count",
            med(traced, |it| {
                it.suts.iter().map(|s| s.adaptations as f64).sum()
            }),
        ),
        metric(
            "sut.bytes_per_key",
            "B/key",
            med(traced, |it| {
                it.suts.iter().map(|s| s.bytes_per_key).sum::<f64>() / it.suts.len().max(1) as f64
            }),
        ),
        metric("driver.run_s", "s", secs("driver.run")),
        metric("driver.overhead_ns_per_op", "ns", per_op_ns("driver.run")),
        metric("engine.run_s", "s", secs("engine.run")),
        metric("engine.overhead_ns_per_op", "ns", per_op_ns("engine.run")),
        metric("capacity.probes", "count", probes),
        metric("capacity.probe_s.p50", "s", probe_s),
        metric("metrics.adaptability_s", "s", secs("metrics.adaptability")),
        metric("metrics.sla_s", "s", secs("metrics.sla")),
        metric(
            "metrics.specialization_s",
            "s",
            secs("metrics.specialization"),
        ),
        metric("results.encode_s", "s", secs("results.encode")),
        metric("results.write_s", "s", secs("results.write")),
        metric(
            "results.bytes",
            "B",
            med(traced, |it| it.artifact_bytes as f64),
        ),
        metric("results.load_s", "s", secs("results.load")),
        metric("results.compare_s", "s", secs("results.compare")),
        metric("derive_s", "s", med(traced, derive)),
        metric("archive_s", "s", secs("results.save")),
        metric(
            "compare_s",
            "s",
            med(traced, |it| {
                it.ledger.seconds("results.load") + it.ledger.seconds("results.compare")
            }),
        ),
        metric(
            "artifact_bytes_per_op",
            "B/op",
            med(traced, |it| {
                it.artifact_bytes as f64 / it.archived_ops.max(1) as f64
            }),
        ),
        metric("failed_op_frac", "ratio", failed_op_frac),
        metric(
            "ledger.unattributed_frac",
            "ratio",
            med(traced, unattributed_frac),
        ),
        metric("ledger.trace_overhead_frac", "ratio", trace_overhead),
    ]
}

/// The layer ledger of one traced iteration: each layer's time, its share
/// of `total_s`, ns per op, and calls, then the unattributed remainder;
/// and a row per SUT, with the per-op latencies `probed` measured.
pub fn render_ledger(it: &Iteration, probed: &Iteration) -> String {
    let ops = it.ops().max(1) as f64;
    let total = it.total_s;
    let opgen = it.opgen_ns_per_op * it.ops() as f64 * 1e-9;
    let run_layer = if it.ledger.seconds("engine.run") > 0.0 {
        "engine.run"
    } else {
        "driver.run"
    };
    let layer = |name: &str| {
        (
            name.to_string(),
            it.ledger.seconds(name),
            it.ledger.calls(name),
        )
    };
    let mut rows = vec![
        layer("workload.dataset"),
        layer("sut.build"),
        ("workload.opgen (est.)".to_string(), opgen, 0),
        layer("sut.execute"),
        layer("sut.maintenance"),
        (
            format!("{} (overhead)", run_layer.trim_end_matches(".run")),
            overhead_s(it, run_layer),
            it.ledger.calls(run_layer),
        ),
    ];
    for name in [
        "capacity.reduce",
        "metrics.adaptability",
        "metrics.sla",
        "metrics.specialization",
        "results.save",
        "results.encode",
        "results.write",
        "results.load",
        "results.compare",
    ] {
        rows.push(layer(name));
    }
    // Encode and write are side measurements of the two steps inside
    // `results.save`; the total does not count them again.
    for row in rows
        .iter_mut()
        .filter(|r| r.0 == "results.encode" || r.0 == "results.write")
    {
        row.0 = format!("  {} (side)", row.0);
    }
    rows.push(("unattributed".to_string(), unattributed_frac(it) * total, 0));
    let mut out = format!(
        "{:<26} {:>10} {:>7} {:>10} {:>9}\n",
        "layer", "seconds", "share", "ns/op", "calls"
    );
    for (name, seconds, calls) in &rows {
        out += &format!(
            "{name:<26} {seconds:>10.4} {:>6.1}% {:>10.1} {calls:>9}\n",
            100.0 * seconds / total,
            seconds * 1e9 / ops
        );
    }
    out += &format!(
        "{:<26} {total:>10.4} {:>6.1}% {:>10.1}\n",
        "total",
        100.0,
        total * 1e9 / ops
    );
    out += &format!(
        "\n{:<8} {:>9} {:>10} {:>10} {:>12} {:>10} {:>10}\n",
        "sut", "run_s", "execute_s", "maint_s", "overhead/op", "read_p50", "read_p99"
    );
    for (s, p) in it.suts.iter().zip(&probed.suts) {
        let overhead =
            s.run_s - s.execute_s - s.maintenance_s - it.opgen_ns_per_op * s.ops as f64 * 1e-9;
        out += &format!(
            "{:<8} {:>9.4} {:>10.4} {:>10.4} {:>10.1}ns {:>8.0}ns {:>8.0}ns\n",
            s.name,
            s.run_s,
            s.execute_s,
            s.maintenance_s,
            overhead * 1e9 / s.ops.max(1) as f64,
            ns_quantile(&p.latencies.read_ns, 0.5),
            ns_quantile(&p.latencies.read_ns, 0.99)
        );
    }
    out
}
