//! The host block printed with every result (`env.json`), and the
//! process's memory high-water mark.

use serde::Value;

/// Host and build facts a result is only comparable under.
pub fn env(workload: &str, seed: u64, keys: usize, ops: u64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Object(vec![
        ("cpu".into(), Value::Str(cpu)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("rustc".into(), Value::Str(env!("PERFBENCH_RUSTC").into())),
        (
            "git_rev".into(),
            Value::Str(env!("PERFBENCH_GIT_REV").into()),
        ),
        (
            "profile".into(),
            Value::Str(env!("PERFBENCH_PROFILE").into()),
        ),
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::UInt(seed)),
        ("keys".into(), Value::UInt(keys as u64)),
        ("ops".into(), Value::UInt(ops)),
    ])
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
