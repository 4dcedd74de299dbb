//! Traced simulation runs: event streams, windowed time series, and
//! run manifests.
//!
//! [`trace_simulation`] is [`crate::sim::simulate`] with full
//! observability attached: a [`JsonlWriter`] records the typed event
//! stream and a [`WindowSampler`] aggregates it into per-window rows.
//! Three artifacts land in the run directory:
//!
//! - `events.jsonl` — one JSON object per event, `seq`-numbered;
//! - `windows.csv` — one row per `window` accesses (plus a trailing
//!   row for the partial window and the final flush);
//! - `manifest.json` — a [`RunManifest`] with the configuration, seed,
//!   git revision, wall time, counter totals, and a `reconciled` flag.
//!
//! The `reconciled` flag is the subsystem's integrity check: the
//! sampler's per-window sums must equal the run's [`CacheStats`] and
//! `Traffic` totals *exactly* — same counters, two independent paths.
//! `validate_trace` refuses any run directory where it is false.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use cwp_cache::{CacheConfig, CacheStats};
use cwp_mem::Traffic;
use cwp_obs::{obs_warn, JsonlWriter, RunManifest, Tee, WindowRow, WindowSampler};
use cwp_trace::{RecordedTrace, Scale, Workload};

use crate::sim::{simulate_probed, SimOutcome, Source};

/// Where and how finely to trace.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Root directory for run artifacts (created if absent).
    pub dir: PathBuf,
    /// Sampler window, in front-side accesses.
    pub window: u64,
    /// Cap on JSONL events written; excess events are counted as
    /// dropped (the windowed CSV is never capped). `None` = unlimited.
    pub max_events: Option<u64>,
}

impl TraceOptions {
    /// Trace into `dir` with the default window of 4096 accesses and
    /// a one-million-event JSONL cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TraceOptions {
            dir: dir.into(),
            window: 4096,
            max_events: Some(1_000_000),
        }
    }
}

/// One traced run: the simulation outcome plus its manifest.
#[derive(Debug)]
pub struct TracedRun {
    /// What the simulation produced, exactly as the untraced path would.
    pub outcome: SimOutcome,
    /// The manifest written to `manifest.json`.
    pub manifest: RunManifest,
    /// The run directory holding the three artifacts.
    pub dir: PathBuf,
}

/// Compares the sampler's window sums against the run's end-of-run
/// counters. Returns the mismatches as `(counter, window_sum, total)`
/// triples — empty means the trace reconciles.
fn reconcile(sums: &WindowRow, stats: &CacheStats, traffic: &Traffic) -> Vec<(String, u64, u64)> {
    let flush = stats.flush;
    let checks: [(&str, u64, u64); 24] = [
        ("accesses", sums.refs, stats.accesses()),
        ("reads", sums.reads, stats.reads),
        ("writes", sums.writes, stats.writes),
        ("read_hits", sums.read_hits, stats.read_hits),
        ("read_misses", sums.read_misses, stats.read_misses),
        (
            "partial_read_misses",
            sums.partial_read_misses,
            stats.partial_read_misses,
        ),
        ("write_hits", sums.write_hits, stats.write_hits),
        ("write_misses", sums.write_misses, stats.write_misses),
        (
            "writes_to_dirty",
            sums.writes_to_dirty,
            stats.writes_to_dirty,
        ),
        ("fetches", sums.demand_fetches, stats.fetches),
        ("invalidations", sums.invalidations, stats.invalidations),
        (
            "line_allocations",
            sums.line_allocations,
            stats.line_allocations,
        ),
        ("victims", sums.victims, stats.victims.total),
        ("victims_dirty", sums.victims_dirty, stats.victims.dirty),
        (
            "victim_dirty_bytes",
            sums.victim_dirty_bytes,
            stats.victims.dirty_bytes,
        ),
        ("flush_victims", sums.flush_victims, flush.total),
        ("flush_dirty", sums.flush_dirty, flush.dirty),
        (
            "flush_dirty_bytes",
            sums.flush_dirty_bytes,
            flush.dirty_bytes,
        ),
        ("fetch_txns", sums.fetch_txns, traffic.fetch.transactions),
        ("fetch_bytes", sums.fetch_bytes, traffic.fetch.bytes),
        (
            "write_back_txns",
            sums.write_back_txns,
            traffic.write_back.transactions,
        ),
        (
            "write_back_bytes",
            sums.write_back_bytes,
            traffic.write_back.bytes,
        ),
        (
            "write_through_txns",
            sums.write_through_txns,
            traffic.write_through.transactions,
        ),
        (
            "write_through_bytes",
            sums.write_through_bytes,
            traffic.write_through.bytes,
        ),
    ];
    checks
        .iter()
        .filter(|(_, a, b)| a != b)
        .map(|(k, a, b)| (k.to_string(), *a, *b))
        .collect()
}

/// End-of-run totals recorded in the manifest for quick inspection
/// (and for `validate_trace`'s refs-sum cross-check).
fn manifest_totals(stats: &CacheStats, traffic: &Traffic) -> Vec<(String, u64)> {
    [
        ("accesses", stats.accesses()),
        ("reads", stats.reads),
        ("writes", stats.writes),
        ("misses", stats.total_misses()),
        ("fetches", stats.fetches),
        ("backside_txns", traffic.total_transactions()),
        ("backside_bytes", traffic.total_bytes()),
        ("victims_dirty_bytes", stats.victims.dirty_bytes),
        ("flush_dirty_bytes", stats.flush.dirty_bytes),
        ("faults_injected", stats.faults.injected),
        ("data_loss_events", stats.faults.data_loss_events),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Runs `workload` through `config` with tracing attached and writes
/// `events.jsonl`, `windows.csv`, and `manifest.json` into `dir`.
///
/// The simulation itself is identical to [`crate::sim::simulate`] —
/// same flush-stop accounting, same statistics — only observed.
///
/// # Errors
///
/// Fails on I/O errors creating or writing the run artifacts.
pub fn trace_simulation(
    workload: &dyn Workload,
    scale: Scale,
    config: &CacheConfig,
    experiment: &str,
    options: &TraceOptions,
    dir: &Path,
) -> io::Result<TracedRun> {
    trace_driver(
        workload.name(),
        scale,
        config,
        experiment,
        options,
        dir,
        |probe| simulate_probed(Source::Live(workload, scale), config, probe),
    )
}

/// As [`trace_simulation`], but driven by a pre-recorded trace. The
/// artifacts and outcome are identical to tracing a live run of the
/// workload the trace was recorded from — `name` should be that
/// workload's name, since the recording itself carries none.
///
/// # Errors
///
/// Fails on I/O errors creating or writing the run artifacts.
pub fn trace_replay(
    name: &str,
    trace: &RecordedTrace,
    scale: Scale,
    config: &CacheConfig,
    experiment: &str,
    options: &TraceOptions,
    dir: &Path,
) -> io::Result<TracedRun> {
    trace_driver(name, scale, config, experiment, options, dir, |probe| {
        simulate_probed(Source::Recorded(trace), config, probe)
    })
}

type TraceProbe = Tee<WindowSampler, JsonlWriter<BufWriter<fs::File>>>;

/// The shared body of [`trace_simulation`] and [`trace_replay`]:
/// `drive` runs the actual simulation with the probe attached; this
/// function owns artifact creation, reconciliation, and the manifest.
fn trace_driver(
    workload_name: &str,
    scale: Scale,
    config: &CacheConfig,
    experiment: &str,
    options: &TraceOptions,
    dir: &Path,
    drive: impl FnOnce(TraceProbe) -> (SimOutcome, TraceProbe),
) -> io::Result<TracedRun> {
    fs::create_dir_all(dir)?;
    let events_file = BufWriter::new(fs::File::create(dir.join("events.jsonl"))?);
    let sampler = WindowSampler::new(options.window, u64::from(config.lines()));
    let writer = JsonlWriter::new(events_file, options.max_events);
    let probe = Tee::new(sampler, writer);

    let started = Instant::now();
    let (outcome, probe) = drive(probe);
    let wall_ms = started.elapsed().as_millis() as u64;

    let Tee {
        a: mut sampler,
        b: writer,
    } = probe;
    sampler.finish();

    let mismatches = reconcile(&sampler.totals(), &outcome.stats, &outcome.traffic_total);
    for (counter, window_sum, total) in &mismatches {
        obs_warn!(
            "{}/{}: window sums for {counter} give {window_sum}, run total is {total}",
            experiment,
            workload_name
        );
    }

    let events_written = writer.written();
    let events_dropped = writer.dropped();
    writer.finish()?.flush()?;

    fs::write(dir.join("windows.csv"), sampler.to_csv())?;

    let manifest = RunManifest {
        experiment: experiment.to_string(),
        workload: workload_name.to_string(),
        scale: scale.to_string(),
        config: config.to_string(),
        seed: config.fault_seed(),
        git_rev: cwp_obs::git_revision(dir),
        wall_ms,
        window: options.window,
        windows: sampler.rows().len() as u64,
        events_written,
        events_dropped,
        totals: manifest_totals(&outcome.stats, &outcome.traffic_total),
        reconciled: mismatches.is_empty(),
        outcome: Some("ok".to_string()),
    };
    let mut text = manifest.to_json().to_string();
    text.push('\n');
    // Write-then-rename: the manifest is the last artifact written, so a
    // run directory either has a complete manifest or none at all — a
    // SIGKILL mid-run leaves a partial dir that `validate_trace` skips
    // (and a resumed run re-traces) instead of a corrupt manifest.
    let tmp = dir.join("manifest.json.tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, dir.join("manifest.json"))?;

    Ok(TracedRun {
        outcome,
        manifest,
        dir: dir.to_path_buf(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwp_cache::{WriteHitPolicy, WriteMissPolicy};
    use cwp_obs::schema::validate_run_dir;
    use cwp_trace::workloads;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cwp-obs-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn traced_run_reconciles_and_validates() {
        let root = tmp_dir("reconcile");
        let options = TraceOptions::new(&root);
        let run = trace_simulation(
            workloads::ccom().as_ref(),
            Scale::Test,
            &CacheConfig::default(),
            "unit",
            &options,
            &root.join("unit/ccom"),
        )
        .unwrap();
        assert!(run.manifest.reconciled, "window sums must match totals");
        assert_eq!(run.manifest.events_dropped, 0);
        let report = validate_run_dir(&run.dir).unwrap();
        assert_eq!(report.total_refs, run.outcome.stats.accesses());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn traced_outcome_matches_untraced_simulation() {
        let root = tmp_dir("match");
        let config = CacheConfig::builder()
            .write_hit(WriteHitPolicy::WriteThrough)
            .write_miss(WriteMissPolicy::WriteAround)
            .build()
            .unwrap();
        let plain = crate::sim::simulate(workloads::yacc().as_ref(), Scale::Test, &config);
        let traced = trace_simulation(
            workloads::yacc().as_ref(),
            Scale::Test,
            &config,
            "unit",
            &TraceOptions::new(&root),
            &root.join("unit/yacc"),
        )
        .unwrap();
        assert_eq!(
            traced.outcome.stats, plain.stats,
            "probing must not perturb"
        );
        assert_eq!(traced.outcome.traffic_total, plain.traffic_total);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn traced_replay_matches_traced_live_run() {
        let root = tmp_dir("replay");
        let config = CacheConfig::default();
        let w = workloads::met();
        let live = trace_simulation(
            w.as_ref(),
            Scale::Test,
            &config,
            "unit",
            &TraceOptions::new(&root),
            &root.join("live/met"),
        )
        .unwrap();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let replayed = trace_replay(
            w.name(),
            &trace,
            Scale::Test,
            &config,
            "unit",
            &TraceOptions::new(&root),
            &root.join("replay/met"),
        )
        .unwrap();
        assert!(replayed.manifest.reconciled);
        assert_eq!(replayed.outcome.stats, live.outcome.stats);
        assert_eq!(replayed.outcome.traffic_total, live.outcome.traffic_total);
        assert_eq!(replayed.manifest.workload, live.manifest.workload);
        assert_eq!(replayed.manifest.totals, live.manifest.totals);
        assert_eq!(replayed.manifest.windows, live.manifest.windows);
        validate_run_dir(&replayed.dir).unwrap();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn event_cap_drops_but_still_reconciles() {
        let root = tmp_dir("cap");
        let mut options = TraceOptions::new(&root);
        options.max_events = Some(100);
        let run = trace_simulation(
            workloads::liver().as_ref(),
            Scale::Test,
            &CacheConfig::default(),
            "unit",
            &options,
            &root.join("unit/liver"),
        )
        .unwrap();
        assert_eq!(run.manifest.events_written, 100);
        assert!(run.manifest.events_dropped > 0);
        assert!(
            run.manifest.reconciled,
            "the sampler sees every event regardless of the JSONL cap"
        );
        fs::remove_dir_all(&root).unwrap();
    }
}
