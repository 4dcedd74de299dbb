//! The trace substrate's end-to-end contract: a reference stream that
//! goes generator -> `TraceWriter` -> disk bytes -> `TraceReader` ->
//! [`RecordedTrace`] -> cache replay settles to *byte-identical*
//! [`CacheStats`] and [`Traffic`] against simulating the live
//! generator, for every workload in the suite.
//!
//! This is the property the whole record-once/replay-many design rests
//! on: fig10-style sweeps may replace their generator runs with replays
//! (and banked replays) only because nothing observable distinguishes
//! the two.

use cwp_cache::{CacheConfig, WriteHitPolicy, WriteMissPolicy};
use cwp_core::{replay, simulate, sweep, Source};
use cwp_trace::io::{TraceReader, TraceWriter};
use cwp_trace::recorded::{RecordedTrace, TraceRecorder};
use cwp_trace::{workloads, Scale, TraceSink, Workload};

/// Serializes `workload`'s stream through the binary format and decodes
/// it back, exactly as `figures --save-traces` / `--load-traces` do.
fn disk_round_trip(workload: &dyn Workload) -> RecordedTrace {
    let mut bytes = Vec::new();
    let mut writer = TraceWriter::new(&mut bytes).expect("header write cannot fail in memory");
    let summary = workload.run(Scale::Test, &mut writer);
    writer
        .finish_with_summary(summary)
        .expect("flush cannot fail in memory");

    let mut reader = TraceReader::new(&bytes[..]).expect("the magic header round-trips");
    let mut recorder = TraceRecorder::new();
    for record in reader.by_ref() {
        recorder.record(record.expect("every written record decodes"));
    }
    let mut folded = recorder.folded_summary();
    folded.instructions += reader
        .trailing_insts()
        .expect("finish_with_summary always writes a footer");
    let trace = recorder
        .finish(folded)
        .expect("an unbounded recorder cannot overflow");
    assert_eq!(
        trace.summary(),
        summary,
        "the footer must reconstruct the run totals, trailing compute included"
    );
    trace
}

fn probe_configs() -> Vec<CacheConfig> {
    vec![
        CacheConfig::default(),
        CacheConfig::builder()
            .size_bytes(1024)
            .line_bytes(16)
            .write_hit(WriteHitPolicy::WriteThrough)
            .write_miss(WriteMissPolicy::FetchOnWrite)
            .build()
            .expect("geometry is valid"),
        CacheConfig::builder()
            .size_bytes(4096)
            .line_bytes(32)
            .associativity(2)
            .write_hit(WriteHitPolicy::WriteBack)
            .write_miss(WriteMissPolicy::WriteValidate)
            .build()
            .expect("geometry is valid"),
    ]
}

#[test]
fn disk_round_tripped_replay_matches_live_simulation_for_every_workload() {
    for workload in workloads::suite() {
        let trace = disk_round_trip(workload.as_ref());
        for config in probe_configs() {
            let live = simulate(workload.as_ref(), Scale::Test, &config);
            let replayed = replay(&trace, &config);
            let name = workload.name();
            assert_eq!(live.summary, replayed.summary, "{name} {config:?}");
            assert_eq!(live.stats, replayed.stats, "{name} {config:?}");
            assert_eq!(
                live.traffic_execution, replayed.traffic_execution,
                "{name} {config:?}"
            );
            assert_eq!(
                live.traffic_total, replayed.traffic_total,
                "{name} {config:?}"
            );
        }
    }
}

#[test]
fn banked_fanout_over_a_disk_round_trip_matches_live_simulation() {
    let configs = probe_configs();
    for workload in workloads::suite() {
        let trace = disk_round_trip(workload.as_ref());
        let fanned = sweep(Source::Recorded(&trace), &configs, 1, None)
            .0
            .expect("uncancellable sweep");
        for (outcome, config) in fanned.iter().zip(&configs) {
            let live = simulate(workload.as_ref(), Scale::Test, config);
            let name = workload.name();
            assert_eq!(live.summary, outcome.summary, "{name} {config:?}");
            assert_eq!(live.stats, outcome.stats, "{name} {config:?}");
            assert_eq!(
                live.traffic_total, outcome.traffic_total,
                "{name} {config:?}"
            );
        }
    }
}
