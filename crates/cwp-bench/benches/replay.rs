//! Record-once/replay-many vs regenerate-every-point.
//!
//! Measures the fig10-style sweep (eight cache sizes, 16B lines,
//! write-through + fetch-on-write) three ways, per workload at quick
//! scale:
//!
//! - `regenerate`: the pre-trace-store behaviour — run the workload
//!   generator once per sweep point, eight generator runs in all;
//! - `replay`: record the trace once, then one replay pass per point;
//! - `fanout`: record once, then a single pass through a bank of eight
//!   caches (`sweep` over the recording, one thread).
//!
//! With `CWP_BENCH_JSON=path` the per-workload medians and the overall
//! sweep speedup land in a JSON report (see `results/BENCH_replay.json`).

use std::time::{Duration, Instant};

use cwp_cache::CacheConfig;
use cwp_core::sim::{replay, simulate, sweep, Source};
use cwp_trace::{workloads, RecordedTrace, Scale};

const SCALE: Scale = Scale::Quick;

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
    record_s: f64,
    regenerate_s: f64,
    replay_s: f64,
    fanout_s: f64,
}

fn main() {
    let budget = Duration::from_millis(
        std::env::var("CWP_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300),
    );
    let configs = sweep_configs();
    let mut rows = Vec::new();
    for w in workloads::suite() {
        let record_s = median_secs(budget, || RecordedTrace::record(w.as_ref(), SCALE));
        let trace = RecordedTrace::record(w.as_ref(), SCALE);
        let regenerate_s = median_secs(budget, || {
            configs
                .iter()
                .map(|c| simulate(w.as_ref(), SCALE, c).stats.accesses())
                .sum::<u64>()
        });
        let replay_s = median_secs(budget, || {
            configs
                .iter()
                .map(|c| replay(&trace, c).stats.accesses())
                .sum::<u64>()
        });
        let fanout_s = median_secs(budget, || {
            sweep(Source::Recorded(&trace), &configs, 1, None)
                .0
                .expect("uncancellable sweep")
                .iter()
                .map(|o| o.stats.accesses())
                .sum::<u64>()
        });
        let row = Row {
            workload: w.name(),
            refs: trace.len() as u64,
            record_s,
            regenerate_s,
            replay_s,
            fanout_s,
        };
        println!(
            "replay-sweep/{}: {} refs, record {:.1} ms, regenerate {:.1} ms, \
             record+replay {:.1} ms ({:.2}x), record+fanout {:.1} ms ({:.2}x)",
            row.workload,
            row.refs,
            row.record_s * 1e3,
            row.regenerate_s * 1e3,
            (row.record_s + row.replay_s) * 1e3,
            row.regenerate_s / (row.record_s + row.replay_s),
            (row.record_s + row.fanout_s) * 1e3,
            row.regenerate_s / (row.record_s + row.fanout_s),
        );
        rows.push(row);
    }

    let regenerate: f64 = rows.iter().map(|r| r.regenerate_s).sum();
    let replay_total: f64 = rows.iter().map(|r| r.record_s + r.replay_s).sum();
    let fanout_total: f64 = rows.iter().map(|r| r.record_s + r.fanout_s).sum();
    let speedup = regenerate / replay_total.min(fanout_total);
    println!(
        "replay-sweep/suite: regenerate {:.1} ms, replay {:.1} ms, fanout {:.1} ms, \
         best speedup {speedup:.2}x",
        regenerate * 1e3,
        replay_total * 1e3,
        fanout_total * 1e3,
    );

    if let Ok(path) = std::env::var("CWP_BENCH_JSON") {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"replay-vs-regenerate\",\n");
        json.push_str(&format!("  \"scale\": \"{SCALE}\",\n"));
        json.push_str(&format!("  \"sweep_points\": {},\n", configs.len()));
        json.push_str("  \"workloads\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"workload\": \"{}\", \"refs\": {}, \"record_s\": {:.6}, \
                 \"regenerate_s\": {:.6}, \"replay_s\": {:.6}, \"fanout_s\": {:.6}}}{}\n",
                r.workload,
                r.refs,
                r.record_s,
                r.regenerate_s,
                r.replay_s,
                r.fanout_s,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
        json.push_str(&format!(
            "  \"suite_regenerate_s\": {regenerate:.6},\n  \"suite_replay_s\": {replay_total:.6},\n  \
             \"suite_fanout_s\": {fanout_total:.6},\n  \"suite_speedup\": {speedup:.3}\n}}\n"
        ));
        std::fs::write(&path, json).expect("write CWP_BENCH_JSON report");
        println!("replay-sweep: wrote {path}");
    }
}
