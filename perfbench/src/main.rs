//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload figures_quick|sweep_paper|serve_warm|serve_cold
//!           --seed N --seconds N --trace 0|1 [--serve-bin PATH] [--rev REV]
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it runs the workload once
//! untraced and once with spans around every call into a layer, then the
//! per-layer probes, and prints the per-layer ledger. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md`.

mod batch;
mod layers;
mod serve;
mod spans;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Every workload the benchmark defines, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["figures_quick", "sweep_paper", "serve_warm", "serve_cold"];

/// End-to-end metrics (`--trace 0`), reported by every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub serve_bin: Option<String>,
    pub rev: String,
    /// Internal: construct a workload's set-up in a fresh process and
    /// exit (timed by the parent as `setup_s`).
    pub setup_only: Option<String>,
}

fn usage() -> &'static str {
    "usage: perfbench --workload figures_quick|sweep_paper|serve_warm|serve_cold \
     --seed N --seconds N --trace 0|1 [--serve-bin PATH] [--rev REV]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        serve_bin: None,
        rev: "unknown".to_string(),
        setup_only: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--serve-bin" => args.serve_bin = Some(value()?),
            "--rev" => args.rev = value()?,
            "--setup-only" => args.setup_only = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.setup_only.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(value, unit)` by metric name.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Operations attempted (jobs, sweeps or requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Every output check that failed; empty means correct.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// A cache configuration of `kb` KB with `line`-byte lines, `ways`-way
/// set associative, under one write-hit and one write-miss policy.
pub fn cache_config(
    kb: u32,
    line: u32,
    ways: u32,
    hit: cwp::cache::WriteHitPolicy,
    miss: cwp::cache::WriteMissPolicy,
) -> cwp::cache::CacheConfig {
    cwp::cache::CacheConfig::builder()
        .size_bytes(kb * 1024)
        .line_bytes(line)
        .associativity(ways)
        .write_hit(hit)
        .write_miss(miss)
        .build()
        .expect("benchmark geometries are valid")
}

/// Worker count used for runner jobs, sweep threads and server workers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `VmHWM` (peak resident set) of a process, in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Times fresh processes that each build `workload`'s set-up and exit;
/// returns the median seconds. A process start is about a millisecond,
/// so the median is taken over many.
pub fn setup_in_fresh_processes(workload: &str) -> Result<f64, String> {
    const REPEATS: usize = 11;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::new();
    for _ in 0..REPEATS {
        let start = Instant::now();
        let status = std::process::Command::new(&exe)
            .args(["--setup-only", workload])
            .status()
            .map_err(|e| format!("spawn set-up process: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!(
                "set-up process for {workload} exited with {status}"
            ));
        }
    }
    Ok(median(&times))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(workload) = &args.setup_only {
        return match batch::setup_only(workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let scale = if args.workload == "sweep_paper" {
        "paper"
    } else {
        "quick"
    };
    // Results from different machine shapes must never be compared.
    println!(
        "{{\"context\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"threads\":{},\"scale\":\"{}\",\"rev\":\"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        nproc(),
        scale,
        json_escape(&args.rev)
    );

    let result = match args.workload.as_str() {
        "figures_quick" => batch::figures_quick(&args),
        "sweep_paper" => batch::sweep_paper(&args),
        "serve_warm" | "serve_cold" => serve::run(&args),
        _ => unreachable!("validated in parse_args"),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let wanted: Vec<(String, &str)> = if args.trace {
        layers::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(layers::exp_metric_names())
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        let Some((value, got_unit)) = outcome.metrics.get(name) else {
            eprintln!("perfbench: internal error: metric {name} was not measured");
            return ExitCode::FAILURE;
        };
        assert_eq!(got_unit, unit, "unit of {name}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
