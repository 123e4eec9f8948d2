//! Rendering benchmark results: ASCII figures, CSV series, JSON artifacts.
//!
//! §IV requires results to "remain comparable across many deployments with
//! wide-ranging designs", so every report renders three ways: a
//! human-readable plain-text figure (printed by the bench binaries), a CSV
//! series (for external plotting), and JSON (machine interchange).

use crate::metrics::adaptability::AdaptabilityReport;
use crate::metrics::cost::{CostReport, TrainingTradeoff};
use crate::metrics::sla::SlaReport;
use crate::metrics::specialization::SpecializationReport;
use crate::{BenchError, Result};
use serde::Serialize;

/// Serializes any report to pretty JSON.
pub fn to_json<T: Serialize>(report: &T) -> Result<String> {
    serde_json::to_string_pretty(report).map_err(|e| BenchError::Serialization(e.to_string()))
}

/// Width of the plot area in characters.
const PLOT_WIDTH: usize = 60;

fn bar(frac: f64, width: usize) -> String {
    let n = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    "█".repeat(n)
}

/// Renders a Fig. 1a-style box-plot chart: one row per distribution, sorted
/// by Φ, showing whiskers/quartiles/median as a text gauge.
pub fn render_specialization(report: &SpecializationReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Fig.1a  Specialization — {} (throughput per distribution, sorted by Φ)\n",
        report.sut_name
    ));
    let max = report
        .entries
        .iter()
        .map(|e| e.throughput.whisker_hi)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    for e in &report.entries {
        let b = &e.throughput;
        let pos = |v: f64| ((v / max) * (PLOT_WIDTH - 1) as f64).round() as usize;
        let (wl, q1, md, q3, wh) = (
            pos(b.whisker_lo),
            pos(b.five.q1),
            pos(b.five.median),
            pos(b.five.q3),
            pos(b.whisker_hi),
        );
        let mut row = vec![' '; PLOT_WIDTH];
        for cell in row.iter_mut().take(wh.min(PLOT_WIDTH - 1) + 1).skip(wl) {
            *cell = '-';
        }
        for cell in &mut row[q1..=q3.min(PLOT_WIDTH - 1)] {
            *cell = '=';
        }
        row[md.min(PLOT_WIDTH - 1)] = '#';
        let marker = if e.holdout { " [hold-out]" } else { "" };
        out.push_str(&format!(
            "  Φ={:<6.3} {:<22} |{}| med={:.0}{}\n",
            e.phi,
            e.phase,
            row.iter().collect::<String>(),
            b.five.median,
            marker
        ));
    }
    if let Some(r) = report.worst_to_best_ratio() {
        out.push_str(&format!("  worst/best median throughput ratio: {r:.3}\n"));
    }
    out
}

/// Renders a Fig. 1b-style cumulative-completions chart.
pub fn render_adaptability(reports: &[&AdaptabilityReport]) -> String {
    let mut out = String::new();
    out.push_str("Fig.1b  Cumulative queries over time\n");
    for r in reports {
        let total = r.curve.last().map(|&(_, v)| v).unwrap_or(0.0);
        out.push_str(&format!(
            "  {:<24} area-vs-ideal={:+.1} (normalized {:+.4})\n",
            r.sut_name, r.area_vs_ideal, r.normalized_area
        ));
        // A sparkline of completions over 32 buckets.
        let mut line = String::from("    ");
        for i in 0..32 {
            let idx = i * (r.curve.len() - 1) / 31;
            let frac = if total > 0.0 {
                r.curve[idx].1 / total
            } else {
                0.0
            };
            let glyph = match (frac * 8.0) as usize {
                0 => ' ',
                1 => '▁',
                2 => '▂',
                3 => '▃',
                4 => '▄',
                5 => '▅',
                6 => '▆',
                7 => '▇',
                _ => '█',
            };
            line.push(glyph);
        }
        out.push_str(&line);
        out.push('\n');
        for &(phase, rec) in &r.recovery_times {
            out.push_str(&format!(
                "    recovery after phase {phase} change: {rec:.3}s\n"
            ));
        }
    }
    out
}

/// Renders a Fig. 1c-style SLA band chart: per interval, a stacked bar of
/// within-SLA vs violated completions.
pub fn render_sla(report: &SlaReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Fig.1c  SLA bands — {} (threshold {:.4}s, interval {:.1}s, violations {:.2}%)\n",
        report.sut_name,
        report.threshold,
        report.interval,
        report.violation_fraction * 100.0
    ));
    let max_total = report
        .bands
        .iter()
        .map(|b| b.total())
        .max()
        .unwrap_or(1)
        .max(1);
    // Cap displayed intervals to keep figures readable.
    let step = (report.bands.len() / 40).max(1);
    for (i, b) in report.bands.iter().enumerate().step_by(step) {
        let within_frac = b.within as f64 / max_total as f64;
        let violated_frac = b.violated as f64 / max_total as f64;
        out.push_str(&format!(
            "  t={:<6.1} |{}{}| {}/{} over\n",
            i as f64 * report.interval,
            bar(within_frac, 40),
            "▒".repeat((violated_frac * 40.0).round() as usize),
            b.violated,
            b.total()
        ));
    }
    for &(phase, speed) in &report.adjustment_speed {
        out.push_str(&format!(
            "  adjustment speed after phase {phase} (Σ over-SLA of first {} ops): {speed:.4}s\n",
            report.adjustment_n
        ));
    }
    out
}

/// Renders a Fig. 1d-style cost table plus the DBA comparison.
pub fn render_cost(report: &CostReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Fig.1d  Cost — {} (throughput {:.0} ops/s)\n",
        report.sut_name, report.throughput
    ));
    out.push_str("  hardware  train-s     train-$      exec-s      exec-$     labels-$\n");
    for b in &report.breakdowns {
        out.push_str(&format!(
            "  {:<8} {:>9.4} {:>11.6} {:>11.4} {:>11.6} {:>11.6}\n",
            b.hardware,
            b.training.seconds,
            b.training.dollars,
            b.execution.seconds,
            b.execution.dollars,
            b.label_collection.dollars
        ));
    }
    if let Some(cpp) = report.cost_per_performance {
        out.push_str(&format!("  cost-per-performance: ${cpp:.9} per ops/s\n"));
    }
    out
}

/// Renders the learned-vs-DBA trade-off curve of Fig. 1d.
pub fn render_tradeoff(t: &TrainingTradeoff) -> String {
    let mut out = String::new();
    out.push_str("Fig.1d  Throughput per training cost vs. DBA step function\n");
    out.push_str("  learned: (training $, throughput)\n");
    for &(c, tput) in &t.learned_curve {
        out.push_str(&format!("    ${c:<12.6} -> {tput:>10.0} ops/s\n"));
    }
    out.push_str("  DBA steps: (cumulative $, throughput)\n");
    for &(c, tput) in &t.dba_steps {
        out.push_str(&format!("    ${c:<12.2} -> {tput:>10.0} ops/s\n"));
    }
    match t.cost_to_outperform {
        Some(c) => out.push_str(&format!(
            "  training cost to outperform the tuned traditional system: ${c:.6}\n"
        )),
        None => {
            out.push_str("  the learned system never outperforms the tuned traditional system\n")
        }
    }
    out
}

/// CSV of a `(x, y)` series with a header.
pub fn series_csv(header: (&str, &str), points: &[(f64, f64)]) -> String {
    let mut out = format!("{},{}\n", header.0, header.1);
    for &(x, y) in points {
        out.push_str(&format!("{x},{y}\n"));
    }
    out
}

/// Locates the workspace root: the topmost ancestor of the running
/// package's manifest dir (or the cwd) that contains a `Cargo.toml`.
pub(crate) fn workspace_root() -> std::path::PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let mut root = start.clone();
    let mut cur = start;
    while let Some(parent) = cur.parent() {
        if parent.join("Cargo.toml").exists() {
            root = parent.to_path_buf();
        }
        cur = parent.to_path_buf();
    }
    root
}

/// Writes `contents` to `dir/name`, creating `dir` if needed — the single
/// write path shared by [`write_artifact`] and the results store
/// ([`crate::results`]), so every artifact lands the same way.
///
/// The write is crash-safe but not durable: the bytes go to a temporary
/// `.{name}.<pid>-<n>.tmp` in the same directory, which is then renamed
/// over `name`. A writer killed mid-write therefore leaves at worst a
/// stray temporary file (which store listings ignore: it does not end in
/// `.json`), never a truncated file under the final name. Nothing is
/// fsynced, so after a power loss the file may still be missing or
/// empty.
pub(crate) fn write_artifact_to(
    dir: &std::path::Path,
    name: &str,
    contents: &str,
) -> Result<std::path::PathBuf> {
    static NEXT_TEMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::fs::create_dir_all(dir)
        .map_err(|e| BenchError::Serialization(format!("mkdir failed: {e}")))?;
    let path = dir.join(name);
    // Unique per process and per call, so concurrent writers of the same
    // name never share a temporary file.
    let n = NEXT_TEMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let temp = dir.join(format!(".{name}.{}-{n}.tmp", std::process::id()));
    std::fs::write(&temp, contents)
        .and_then(|()| std::fs::rename(&temp, &path))
        .map_err(|e| {
            let _ = std::fs::remove_file(&temp);
            BenchError::Serialization(format!("write failed: {e}"))
        })?;
    Ok(path)
}

/// Writes an artifact under `<workspace>/target/lsbench-results/`, creating
/// the directory if needed. Returns the path written.
pub fn write_artifact(name: &str, contents: &str) -> Result<std::path::PathBuf> {
    let dir = workspace_root().join("target").join("lsbench-results");
    write_artifact_to(&dir, name, contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::sla::{Band, ColorBand};
    use lsbench_stats::descriptive::BoxPlot;

    fn spec_report() -> SpecializationReport {
        use crate::metrics::specialization::PhaseSpecialization;
        SpecializationReport {
            sut_name: "test".to_string(),
            entries: vec![
                PhaseSpecialization {
                    phase: "uniform".to_string(),
                    phi: 0.0,
                    throughput: BoxPlot::of(&[90.0, 100.0, 110.0, 105.0, 95.0]).unwrap(),
                    holdout: false,
                },
                PhaseSpecialization {
                    phase: "zipf".to_string(),
                    phi: 0.7,
                    throughput: BoxPlot::of(&[40.0, 60.0, 50.0, 45.0, 55.0]).unwrap(),
                    holdout: true,
                },
            ],
            ops_per_window: 10,
        }
    }

    #[test]
    fn specialization_renders() {
        let s = render_specialization(&spec_report());
        assert!(s.contains("uniform"));
        assert!(s.contains("zipf"));
        assert!(s.contains("[hold-out]"));
        assert!(s.contains("worst/best"));
    }

    #[test]
    fn adaptability_renders() {
        let r = AdaptabilityReport {
            sut_name: "x".to_string(),
            curve: (0..=32).map(|i| (i as f64, (i * i) as f64)).collect(),
            area_vs_ideal: -12.5,
            normalized_area: -0.1,
            recovery_times: vec![(1, 3.25)],
            phase_throughput: vec![10.0, 20.0],
        };
        let s = render_adaptability(&[&r]);
        assert!(s.contains("area-vs-ideal=-12.5"));
        assert!(s.contains("recovery after phase 1"));
    }

    #[test]
    fn sla_renders() {
        let r = SlaReport {
            sut_name: "x".to_string(),
            threshold: 0.01,
            interval: 1.0,
            bands: vec![
                Band {
                    within: 50,
                    violated: 0,
                },
                Band {
                    within: 20,
                    violated: 30,
                },
            ],
            color_bands: vec![ColorBand::default(); 2],
            violation_fraction: 0.3,
            adjustment_speed: vec![(1, 0.5)],
            adjustment_n: 100,
        };
        let s = render_sla(&r);
        assert!(s.contains("30.00%"));
        assert!(s.contains("adjustment speed"));
    }

    /// Golden pin of the `lsbench run` figure output: the exact bytes of
    /// the Fig. 1b and Fig. 1c renders for a fixed synthetic report. Any
    /// formatting change — spacing, glyph choice, precision — must be a
    /// deliberate edit to these strings, because downstream tooling greps
    /// this output.
    #[test]
    fn run_report_output_is_pinned() {
        let adapt = AdaptabilityReport {
            sut_name: "rmi".to_string(),
            curve: (0..=32)
                .map(|i| (i as f64 * 0.25, (i * i) as f64))
                .collect(),
            area_vs_ideal: -12.5,
            normalized_area: -0.0625,
            recovery_times: vec![(1, 3.25)],
            phase_throughput: vec![100.0, 200.0],
        };
        assert_eq!(
            render_adaptability(&[&adapt]),
            "Fig.1b  Cumulative queries over time\n\
             \x20 rmi                      area-vs-ideal=-12.5 (normalized -0.0625)\n\
             \x20               ▁▁▁▁▂▂▂▂▃▃▃▄▄▄▅▅▆▆▇█\n\
             \x20   recovery after phase 1 change: 3.250s\n"
        );

        let sla = SlaReport {
            sut_name: "rmi".to_string(),
            threshold: 0.01,
            interval: 1.0,
            bands: vec![
                Band {
                    within: 50,
                    violated: 0,
                },
                Band {
                    within: 20,
                    violated: 30,
                },
            ],
            color_bands: vec![ColorBand::default(); 2],
            violation_fraction: 0.3,
            adjustment_speed: vec![(1, 0.5)],
            adjustment_n: 100,
        };
        assert_eq!(
            render_sla(&sla),
            "Fig.1c  SLA bands — rmi (threshold 0.0100s, interval 1.0s, violations 30.00%)\n\
             \x20 t=0.0    |████████████████████████████████████████| 0/50 over\n\
             \x20 t=1.0    |████████████████▒▒▒▒▒▒▒▒▒▒▒▒▒▒▒▒▒▒▒▒▒▒▒▒| 30/50 over\n\
             \x20 adjustment speed after phase 1 (Σ over-SLA of first 100 ops): 0.5000s\n"
        );
    }

    #[test]
    fn json_round_trips() {
        let j = to_json(&spec_report()).unwrap();
        assert!(j.contains("\"phi\""));
        let back: SpecializationReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back, spec_report());
    }

    #[test]
    fn failed_write_leaves_neither_artifact_nor_temporary_file() {
        let dir = std::env::temp_dir().join(format!("lsbench-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A directory squatting on the final name makes the rename fail
        // after the temporary file was written in full.
        std::fs::create_dir_all(dir.join("a.json").join("occupied")).unwrap();
        assert!(write_artifact_to(&dir, "a.json", "{}").is_err());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["a.json"]);
        assert!(dir.join("a.json").is_dir());
        let path = write_artifact_to(&dir, "b.json", "{}").unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "{}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_format() {
        let csv = series_csv(("t", "v"), &[(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(csv, "t,v\n0,1\n1,2\n");
    }

    #[test]
    fn tradeoff_renders_both_outcomes() {
        let with = TrainingTradeoff {
            learned_curve: vec![(1.0, 100.0), (10.0, 5000.0)],
            dba_steps: vec![(0.0, 1000.0), (400.0, 2500.0)],
            cost_to_outperform: Some(10.0),
        };
        assert!(render_tradeoff(&with).contains("training cost to outperform"));
        let without = TrainingTradeoff {
            cost_to_outperform: None,
            ..with
        };
        assert!(render_tradeoff(&without).contains("never outperforms"));
    }
}
