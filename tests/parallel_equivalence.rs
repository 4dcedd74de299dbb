//! The parallel banked engine's determinism contract: sweeps render
//! byte-identical figure tables at every thread count, for all six
//! workloads and from both sources (sharded over a recording, streamed
//! from a live run), and a mid-sweep cancellation never corrupts later
//! results.

use std::sync::Arc;
use std::time::Duration;

use cwp::cache::CacheConfig;
use cwp::core::sim::{replay, simulate_many_sharded, sweep, Source};
use cwp::core::supervise::CancelToken;
use cwp::core::{experiments, Lab};
use cwp::trace::{workloads, RecordedTrace, Scale};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Sweep-heavy experiments whose tables cover all six workloads.
const EXPERIMENT_IDS: [&str; 3] = ["fig01", "fig13", "fig18"];

/// Renders every experiment's tables (text and CSV) with a fresh lab at
/// the given sweep thread count.
fn render_suite(threads: usize) -> String {
    let mut lab = Lab::new(Scale::Test);
    lab.set_threads(threads);
    let mut out = String::new();
    for id in EXPERIMENT_IDS {
        let experiment = experiments::by_id(id).expect("known experiment id");
        for table in experiment.run_checked(&mut lab).expect("check passes") {
            out.push_str(&table.to_string());
            out.push_str(&table.to_csv());
        }
    }
    assert!(
        lab.workload_names().len() == 6,
        "the suite lab must cover all six workloads"
    );
    out
}

#[test]
fn figure_tables_are_byte_identical_at_every_thread_count() {
    let serial = render_suite(1);
    assert!(!serial.is_empty());
    for threads in THREAD_COUNTS {
        assert_eq!(
            render_suite(threads),
            serial,
            "tables diverged at {threads} threads"
        );
    }
}

#[test]
fn sharded_outcomes_match_serial_replay_for_every_workload() {
    let configs: Vec<CacheConfig> = (0..8)
        .map(|i| CacheConfig::builder().size_bytes(256 << i).build().unwrap())
        .collect();
    for workload in workloads::suite() {
        let trace = RecordedTrace::record(workload.as_ref(), Scale::Test);
        let golden: Vec<_> = configs.iter().map(|c| replay(&trace, c)).collect();
        let live = Source::Live(workload.as_ref(), Scale::Test);
        for (plan, source) in [("sharded", Source::Recorded(&trace)), ("streamed", live)] {
            for threads in THREAD_COUNTS {
                let (outcomes, report) = sweep(source, &configs, threads, None);
                let outcomes = outcomes.expect("uncancelled sweep completes");
                for ((got, want), config) in outcomes.iter().zip(&golden).zip(&configs) {
                    assert_eq!(
                        got.stats,
                        want.stats,
                        "{} @ {config} with {threads} {plan} threads",
                        workload.name()
                    );
                    assert_eq!(got.traffic_total, want.traffic_total);
                }
                assert_eq!(report.shard_us.len() as u64, report.executed);
            }
        }
    }
}

#[test]
fn a_mid_sweep_cancel_never_corrupts_later_sweeps() {
    let workload = workloads::liver();
    let trace = Arc::new(RecordedTrace::record(workload.as_ref(), Scale::Test));
    let configs: Vec<CacheConfig> = (0..12)
        .map(|i| {
            CacheConfig::builder()
                .size_bytes(256 << (i % 6))
                .line_bytes(8 << (i / 6))
                .build()
                .unwrap()
        })
        .collect();
    let golden: Vec<_> = configs.iter().map(|c| replay(&trace, c)).collect();

    // Trip the token from another thread while the sharded pass runs.
    // Depending on timing the pass either aborts (None) or wins the
    // race and completes; both are legal, but a completed pass must be
    // exactly the serial result.
    let token = CancelToken::new();
    let trigger = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            token.cancel();
        })
    };
    let (racy, _) = simulate_many_sharded(&trace, &configs, 4, Some(&token));
    trigger.join().unwrap();
    if let Some(outcomes) = racy {
        for (got, want) in outcomes.iter().zip(&golden) {
            assert_eq!(got.stats, want.stats);
        }
    }

    // A pre-tripped token always aborts mid-sweep.
    let tripped = CancelToken::new();
    tripped.cancel();
    let (aborted, _) = simulate_many_sharded(&trace, &configs, 4, Some(&tripped));
    assert!(aborted.is_none(), "a tripped token must abort the sweep");

    // And whatever happened above, the next sweep over the same trace
    // is still byte-exact at every thread count.
    for threads in THREAD_COUNTS {
        let (outcomes, _) = simulate_many_sharded(&trace, &configs, threads, None);
        for (got, want) in outcomes.expect("uncancelled").iter().zip(&golden) {
            assert_eq!(got.stats, want.stats, "{threads} threads");
            assert_eq!(got.traffic_total, want.traffic_total, "{threads} threads");
        }
    }
}
