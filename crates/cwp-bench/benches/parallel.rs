//! Serial vs sharded banked sweeps: wall clock and scaling efficiency.
//!
//! Runs the fig10-style size sweep (eight cache sizes, 16B lines,
//! write-through + fetch-on-write) through the banked data-free pass
//! of the work-stealing shard scheduler ([`simulate_many_sharded`]) at
//! 1, 2, 4, and 8 threads, per workload. The one-thread pass runs the
//! whole plan inline on the calling thread, so it is the serial
//! baseline: the report's `serial_s` fields repeat it, and every
//! speedup and efficiency is relative to it.
//!
//! The workload scale comes from `CWP_BENCH_SCALE`
//! (`test|quick|paper|<factor>`, default `quick`): the `paper` knob
//! drives the generators at `Scale::Paper`, 26,992,181 data references
//! (6.95x fewer than the paper's 187.6M), the regime the chunked trace
//! segments and the shard scheduler exist for.
//! Outputs are checksummed against an untimed serial pass on every run
//! — a sharded divergence is a bench failure, not a number.
//!
//! With `CWP_BENCH_JSON=path` the medians, scaling efficiencies, and
//! host core count land in a JSON report;
//! `results/BENCH_parallel.json` holds the committed baseline that
//! `scripts/verify.sh` gates against.

use std::time::{Duration, Instant};

use cwp_cache::CacheConfig;
use cwp_core::sim::simulate_many_sharded;
use cwp_trace::{workloads, RecordedTrace, Scale};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn scale_from_env() -> Scale {
    match std::env::var("CWP_BENCH_SCALE").ok().as_deref() {
        None | Some("") | Some("quick") => Scale::Quick,
        Some("test") => Scale::Test,
        Some("paper") => Scale::Paper,
        Some(other) => match other.parse::<f64>() {
            Ok(f) if f > 0.0 => Scale::Custom(f),
            _ => panic!("bad CWP_BENCH_SCALE {other:?} (want test|quick|paper|<factor>)"),
        },
    }
}

/// Figure 10's size sweep: 1KB..128KB, 16B lines, write-through +
/// fetch-on-write (the `figures fig10` geometry).
fn sweep_configs() -> Vec<CacheConfig> {
    [1, 2, 4, 8, 16, 32, 64, 128]
        .iter()
        .map(|&kb| {
            CacheConfig::builder()
                .size_bytes(kb * 1024)
                .line_bytes(16)
                .write_hit(cwp_cache::WriteHitPolicy::WriteThrough)
                .write_miss(cwp_cache::WriteMissPolicy::FetchOnWrite)
                .build()
                .expect("fig10 geometry is valid")
        })
        .collect()
}

/// Median of a few timed runs of `f` (at least one; more while the
/// budget lasts).
fn median_secs<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.is_empty() || (start.elapsed() < budget && samples.len() < 25) {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Row {
    workload: &'static str,
    refs: u64,
    sharded_s: [f64; THREADS.len()],
}

impl Row {
    /// The serial baseline: the one-thread pass runs inline.
    fn serial_s(&self) -> f64 {
        self.sharded_s[0]
    }
}

fn main() {
    let budget = Duration::from_millis(
        std::env::var("CWP_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300),
    );
    let scale = scale_from_env();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let configs = sweep_configs();
    let mut rows = Vec::new();
    for w in workloads::suite() {
        let trace = RecordedTrace::record(w.as_ref(), scale);
        let digest: u64 = simulate_many_sharded(&trace, &configs, 1, None)
            .0
            .expect("uncancellable sweep")
            .iter()
            .map(|o| o.stats.accesses() ^ o.traffic_total.total_bytes())
            .sum();
        let mut sharded_s = [0.0; THREADS.len()];
        for (slot, &threads) in sharded_s.iter_mut().zip(&THREADS) {
            *slot = median_secs(budget, || {
                let (outcomes, _) = simulate_many_sharded(&trace, &configs, threads, None);
                let outcomes = outcomes.expect("uncancellable sweep");
                let got: u64 = outcomes
                    .iter()
                    .map(|o| o.stats.accesses() ^ o.traffic_total.total_bytes())
                    .sum();
                assert_eq!(got, digest, "sharded pass diverged at {threads} threads");
                got
            });
        }
        let row = Row {
            workload: w.name(),
            refs: trace.len() as u64,
            sharded_s,
        };
        let at = |i: usize| row.serial_s() / row.sharded_s[i];
        println!(
            "parallel-sweep/{}: {} refs, serial (x1) {:.1} ms; sharded \
             x2 {:.1} ms ({:.2}x), x4 {:.1} ms ({:.2}x), x8 {:.1} ms ({:.2}x)",
            row.workload,
            row.refs,
            row.sharded_s[0] * 1e3,
            row.sharded_s[1] * 1e3,
            at(1),
            row.sharded_s[2] * 1e3,
            at(2),
            row.sharded_s[3] * 1e3,
            at(3),
        );
        rows.push(row);
    }

    let suite_serial: f64 = rows.iter().map(Row::serial_s).sum();
    let suite_sharded: Vec<f64> = (0..THREADS.len())
        .map(|i| rows.iter().map(|r| r.sharded_s[i]).sum())
        .collect();
    let best = suite_sharded.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "parallel-sweep/suite ({} cores): serial {:.1} ms, best sharded {:.1} ms \
         ({:.2}x), ratio {:.3}",
        cores,
        suite_serial * 1e3,
        best * 1e3,
        suite_serial / best,
        best / suite_serial,
    );

    if let Ok(path) = std::env::var("CWP_BENCH_JSON") {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"parallel-sweep\",\n");
        json.push_str(&format!("  \"scale\": \"{scale}\",\n"));
        json.push_str(&format!("  \"cores\": {cores},\n"));
        json.push_str(&format!("  \"sweep_points\": {},\n", configs.len()));
        json.push_str(&format!(
            "  \"threads\": [{}],\n",
            THREADS.map(|t| t.to_string()).join(", ")
        ));
        json.push_str("  \"workloads\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"workload\": \"{}\", \"refs\": {}, \"serial_s\": {:.6}, \
                 \"sharded_s\": [{}], \"efficiency\": [{}]}}{}\n",
                r.workload,
                r.refs,
                r.serial_s(),
                r.sharded_s.map(|s| format!("{s:.6}")).join(", "),
                r.sharded_s
                    .iter()
                    .zip(&THREADS)
                    .map(|(s, t)| format!("{:.3}", r.serial_s() / (*t as f64 * s)))
                    .collect::<Vec<_>>()
                    .join(", "),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
        json.push_str(&format!(
            "  \"suite_serial_s\": {suite_serial:.6},\n  \"suite_sharded_s\": [{}],\n",
            suite_sharded
                .iter()
                .map(|s| format!("{s:.6}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        json.push_str(&format!(
            "  \"suite_best_sharded_s\": {best:.6},\n  \
             \"suite_sharded_ratio\": {:.4}\n}}\n",
            best / suite_serial
        ));
        std::fs::write(&path, json).expect("write CWP_BENCH_JSON report");
        println!("parallel-sweep: wrote {path}");
    }
}
