//! The [`Lab`]: memoized simulation runs shared across experiments.
//!
//! Every run is driven from a [`Source`]: the shared
//! [`TraceStore`]'s recording when the workload fits its budget, a live
//! generator run otherwise. A sweep's missing configurations go through
//! one [`sweep`] call, which picks the sharded or streamed plan from the
//! source. A single outcome runs through [`simulate_probed`],
//! [`simulate_audited`] or the trace exporters, which all take the plane
//! the configuration needs: data only when it injects faults.
//!
//! Outcomes and write streams live in a [`RunMemo`]. A lab made with
//! [`Lab::new`] keeps a private one; the supervised runner gives every
//! worker lab of a run, panic rebuilds included, one shared memo, so
//! the pool simulates each (workload, configuration) once per run.

use std::sync::Arc;

use cwp_cache::{CacheConfig, NullProbe};
use cwp_obs::{obs_debug, obs_error};
use cwp_trace::{workloads, MemRef, RecordedTrace, Scale, TraceSink, TraceSummary, Workload};

use crate::memo::RunMemo;
use crate::obs::{trace_replay, trace_simulation, TraceOptions};
use crate::shard::ShardReport;
use crate::sim::{
    simulate_audited, simulate_many_audited, simulate_probed, sweep, SimOutcome, Source,
};
use crate::store::TraceStore;

/// One store extracted from a trace, with its arrival time in instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEvent {
    /// Dynamic instruction count at which the store issues.
    pub cycle: u64,
    /// Byte address.
    pub addr: u64,
    /// Store width (4 or 8).
    pub size: u8,
}

/// A workload's store stream: the input to write buffers and write caches.
#[derive(Debug, Clone, Default)]
pub struct WriteStream {
    /// The stores, in program order.
    pub events: Vec<WriteEvent>,
    /// Total dynamic instructions in the run.
    pub instructions: u64,
}

impl TraceSink for WriteStream {
    fn record(&mut self, r: MemRef) {
        self.instructions += u64::from(r.before_insts);
        if r.is_write() {
            self.events.push(WriteEvent {
                cycle: self.instructions,
                addr: r.addr,
                size: r.size,
            });
        }
    }
}

/// The six benchmark names in Table 1 order.
pub const WORKLOAD_NAMES: [&str; 6] = ["ccom", "grr", "yacc", "met", "linpack", "liver"];

/// Tracing state carried by a [`Lab`] when [`Lab::enable_trace`] is on.
#[derive(Debug)]
struct TraceState {
    options: TraceOptions,
    /// Current experiment id; becomes a subdirectory of the trace root.
    context: String,
    /// Per-context run counter, used to order run directories.
    seq: u64,
    /// When set, only this workload's runs are traced.
    only: Option<String>,
}

/// Runs simulations on demand and memoizes the outcomes.
///
/// Figures share most of their underlying runs (e.g. Figures 10, 13, 14,
/// and 18 all need fetch-on-write sweeps over cache sizes), so the lab
/// keys results by `(workload, configuration)` and simulates each pair at
/// most once per scale — once across every lab sharing its memo. With
/// [`Lab::enable_trace`], every actual run also exports its event stream,
/// windowed time series, and manifest to disk.
///
/// # Examples
///
/// ```
/// use cwp_cache::CacheConfig;
/// use cwp_core::Lab;
/// use cwp_trace::Scale;
///
/// let mut lab = Lab::new(Scale::Test);
/// let a = lab.outcome("yacc", &CacheConfig::default());
/// let b = lab.outcome("yacc", &CacheConfig::default());
/// assert_eq!(a.stats.accesses(), b.stats.accesses());
/// assert_eq!(lab.runs(), 1, "second call was memoized");
/// ```
pub struct Lab {
    scale: Scale,
    workloads: Vec<Box<dyn Workload>>,
    memo: Arc<RunMemo>,
    runs: u64,
    trace: Option<TraceState>,
    store: Arc<TraceStore>,
    audit: bool,
    threads: usize,
    shard_report: ShardReport,
}

impl Lab {
    /// Creates a lab over the six paper workloads at `scale`.
    pub fn new(scale: Scale) -> Self {
        Self::with_workloads(scale, workloads::suite())
    }

    /// Creates a lab over a custom workload set — e.g. `cwp-cpu` assembly
    /// programs, or a subset of the paper suite for faster sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or contains duplicate names.
    pub fn with_workloads(scale: Scale, workloads: Vec<Box<dyn Workload>>) -> Self {
        assert!(!workloads.is_empty(), "a lab needs at least one workload");
        let mut names = std::collections::HashSet::new();
        for w in &workloads {
            assert!(
                names.insert(w.name()),
                "duplicate workload name '{}'",
                w.name()
            );
        }
        Lab {
            scale,
            workloads,
            memo: Arc::default(),
            runs: 0,
            trace: None,
            store: Arc::new(TraceStore::new(scale)),
            audit: false,
            threads: 1,
            shard_report: ShardReport::default(),
        }
    }

    /// Sets the worker-thread budget for sweep fan-out: with more than
    /// one thread, [`Lab::outcomes_sweep`] spreads its [`sweep`] over
    /// that many workers (work-stealing shards over a recording, or
    /// per-chunk bank splits over a live stream).
    /// Outcomes are identical at every thread count — parallelism only
    /// changes wall clock. Defaults to 1 (fully serial).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The sweep worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative shard-scheduler accounting across every sharded sweep
    /// this lab has run: executed/stolen counts and per-shard wall
    /// micros, ready to feed an observability registry. Streamed sweeps
    /// run no shards and leave it untouched.
    pub fn shard_report(&self) -> &ShardReport {
        &self.shard_report
    }

    /// Turns on the runtime invariant audit: every untraced simulation
    /// runs with an [`cwp_verify::InvariantAuditor`] probe plus
    /// per-reference sub-block mask checks, and sweep banking is
    /// cross-checked against audited single replays. Outcomes are
    /// identical to unaudited runs — the audit observes, it never
    /// steers — so figures come out byte-for-byte the same.
    ///
    /// A violated invariant panics with the typed error's message;
    /// under the supervised runner that panic is isolated per job and
    /// turns into a failed-run exit status rather than a crash.
    pub fn enable_audit(&mut self) {
        self.audit = true;
    }

    /// Replaces the lab's private [`TraceStore`] with a shared one, so
    /// several labs (e.g. the runner's worker pool) record each
    /// workload once between them.
    ///
    /// # Panics
    ///
    /// Panics if `store` was built for a different scale.
    pub fn set_store(&mut self, store: Arc<TraceStore>) {
        assert!(
            store.scale() == self.scale,
            "trace store scale {} does not match lab scale {}",
            store.scale(),
            self.scale
        );
        self.store = store;
    }

    /// The trace store backing this lab's simulations.
    pub fn store(&self) -> &Arc<TraceStore> {
        &self.store
    }

    /// Replaces the lab's private memo with `memo`, shared by every lab
    /// of one run: each (workload, configuration) is then simulated by
    /// exactly one of them. All sharers must run at one scale.
    pub(crate) fn set_memo(&mut self, memo: Arc<RunMemo>) {
        self.memo = memo;
    }

    /// The memo this lab publishes into.
    #[cfg(test)]
    pub(crate) fn memo(&self) -> &Arc<RunMemo> {
        &self.memo
    }

    /// Turns on tracing: every non-memoized simulation also writes
    /// `events.jsonl` + `windows.csv` + `manifest.json` into
    /// `options.dir/<context>/<NN>-<workload>/`. Use
    /// [`Lab::set_trace_context`] to group runs by experiment id.
    pub fn enable_trace(&mut self, options: TraceOptions) {
        self.trace = Some(TraceState {
            options,
            context: "untagged".to_string(),
            seq: 0,
            only: None,
        });
    }

    /// Restricts tracing to a single workload; other workloads still
    /// simulate normally, just without artifacts. No-op when tracing is
    /// disabled.
    pub fn set_trace_filter(&mut self, workload: Option<&str>) {
        if let Some(trace) = &mut self.trace {
            trace.only = workload.map(str::to_string);
        }
    }

    /// Names the experiment that subsequent runs belong to (the
    /// subdirectory and the manifest's `experiment` field). Resets the
    /// per-context run counter. No-op when tracing is disabled.
    pub fn set_trace_context(&mut self, context: &str) {
        if let Some(trace) = &mut self.trace {
            trace.context = context.to_string();
            trace.seq = 0;
        }
    }

    /// The scale every simulation runs at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Number of actual (non-memoized) simulations this lab performed
    /// and published to its memo.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The workloads in Table 1 order.
    pub fn workload_names(&self) -> Vec<&'static str> {
        self.workloads.iter().map(|w| w.name()).collect()
    }

    /// Looks up a workload by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the six benchmarks.
    pub fn workload(&self, name: &str) -> &dyn Workload {
        self.workloads[self.index(name)].as_ref()
    }

    fn index(&self, name: &str) -> usize {
        self.workloads
            .iter()
            .position(|w| w.name() == name)
            .unwrap_or_else(|| panic!("unknown workload {name}"))
    }

    /// Drives `workload`'s reference stream into `sink` and returns the
    /// run's totals: a replay of the store's recording, or a live
    /// generator run when none fits. Both yield the identical stream.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is not one of the six benchmarks.
    pub fn drive(&self, workload: &str, sink: &mut dyn TraceSink) -> TraceSummary {
        let w = self.workload(workload);
        let recording = self.store.get_or_record(w);
        Source::stored(recording.as_deref(), w, self.scale).drive(sink)
    }

    /// The simulation outcome for (`workload`, `config`), running it if
    /// not already memoized.
    ///
    /// The recording is looked up before the memo, once per call, so the
    /// store's hit count follows the lab's requests rather than which lab
    /// of a pool happened to simulate a key first.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is not one of the six benchmarks.
    pub fn outcome(&mut self, workload: &str, config: &CacheConfig) -> Arc<SimOutcome> {
        let idx = self.index(workload);
        let recording = self.store.get_or_record(self.workloads[idx].as_ref());
        self.resolve(idx, recording.as_deref(), config)
    }

    /// The memoized outcome, or one simulated here and published. Waits
    /// while another lab holds the key's claim; the caller holds none.
    fn resolve(
        &mut self,
        idx: usize,
        recording: Option<&RecordedTrace>,
        config: &CacheConfig,
    ) -> Arc<SimOutcome> {
        let memo = Arc::clone(&self.memo);
        let outcome = match memo
            .outcomes
            .get_or_claim(&(self.workloads[idx].name(), *config))
        {
            Ok(hit) => hit,
            Err(claim) => {
                let outcome = self.run_one(idx, recording, config);
                self.runs += 1;
                claim.publish(outcome)
            }
        };
        outcome
    }

    /// One actual simulation, traced when tracing is on and the workload
    /// passes the filter. A trace I/O failure is reported and the run
    /// falls back to the untraced path — figures still come out. The run
    /// replays `recording` when there is one, and drives the generator
    /// live otherwise (store disabled or over budget).
    ///
    /// Untraced runs are audited when auditing is on. Traced, audited
    /// and plain runs all take the plane the configuration needs (see
    /// `sim::carries_data`), so all three observe one engine.
    fn run_one(
        &mut self,
        idx: usize,
        recording: Option<&RecordedTrace>,
        config: &CacheConfig,
    ) -> SimOutcome {
        let w = self.workloads[idx].as_ref();
        let source = Source::stored(recording, w, self.scale);
        let audit = self.audit;
        let untraced = || {
            if audit {
                simulate_audited(source, config).unwrap_or_else(|e| {
                    panic!("invariant audit failed for {}/{config}: {e}", w.name())
                })
            } else {
                simulate_probed(source, config, NullProbe).0
            }
        };
        let Some(trace) = &mut self.trace else {
            return untraced();
        };
        if trace.only.as_deref().is_some_and(|only| only != w.name()) {
            return untraced();
        }
        let dir =
            trace
                .options
                .dir
                .join(&trace.context)
                .join(format!("{:03}-{}", trace.seq, w.name()));
        trace.seq += 1;
        let context = trace.context.clone();
        let options = trace.options.clone();
        obs_debug!("tracing {context}: {} @ {config}", w.name());
        let traced = match recording {
            Some(rec) => trace_replay(w.name(), rec, self.scale, config, &context, &options, &dir),
            None => trace_simulation(w, self.scale, config, &context, &options, &dir),
        };
        match traced {
            Ok(run) => run.outcome,
            Err(e) => {
                obs_error!(
                    "trace of {context}/{} failed: {e}; rerunning untraced",
                    w.name()
                );
                untraced()
            }
        }
    }

    /// Outcomes for all six workloads under one configuration, in Table 1
    /// order.
    pub fn outcomes_all(&mut self, config: &CacheConfig) -> Vec<(&'static str, Arc<SimOutcome>)> {
        WORKLOAD_NAMES
            .iter()
            .map(|name| (*name, self.outcome(name, config)))
            .collect()
    }

    /// The workload's store stream (memoized): input for write buffers and
    /// write caches, which sit behind a write-through cache and therefore
    /// see every store. Derived through [`Lab::drive`] — a replay of the
    /// trace store's recording, not a second generator run, whenever one
    /// is available.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is not one of the six benchmarks.
    pub fn write_stream(&self, workload: &str) -> Arc<WriteStream> {
        match self
            .memo
            .streams
            .get_or_claim(&self.workload(workload).name())
        {
            Ok(hit) => hit,
            Err(claim) => {
                let mut stream = WriteStream::default();
                self.drive(workload, &mut stream);
                claim.publish(stream)
            }
        }
    }

    /// Outcomes for one workload across a whole configuration sweep,
    /// in `configs` order.
    ///
    /// Equivalent to calling [`Lab::outcome`] per configuration — same
    /// outcomes, same memoization, same run accounting — but the lab
    /// first claims every configuration missing from the memo, and when
    /// it claimed several they are simulated as one [`sweep`] on
    /// [`Lab::set_threads`] workers: a sharded replay of the store's
    /// recording, or — when no recording fits the store budget — one
    /// streamed generator run feeding the whole bank. Audited labs
    /// cross-check the sweep against audited single runs
    /// ([`simulate_many_audited`]); with no recording that costs one
    /// streamed generator pass on top of the per-configuration audited
    /// live runs, so the streamed plan is audited too. Traced runs keep
    /// the per-configuration path so every run directory still appears.
    ///
    /// Configurations another lab is simulating are waited for only
    /// after this lab has published its own claims, so no lab ever
    /// waits while holding a claim.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is not one of the six benchmarks.
    pub fn outcomes_sweep(
        &mut self,
        workload: &str,
        configs: &[CacheConfig],
    ) -> Vec<Arc<SimOutcome>> {
        let idx = self.index(workload);
        let name = self.workloads[idx].name();
        let recording = self.store.get_or_record(self.workloads[idx].as_ref());
        let memo = Arc::clone(&self.memo);
        // A repeated configuration finds its own earlier claim busy.
        let mut claims = Vec::new();
        for config in configs {
            if let Some(claim) = memo.outcomes.try_claim(&(name, *config)) {
                claims.push((*config, claim));
            }
        }
        let tracing_this = self
            .trace
            .as_ref()
            .is_some_and(|trace| trace.only.as_deref().is_none_or(|only| only == workload));
        if claims.len() > 1 && !tracing_this {
            let missing: Vec<CacheConfig> = claims.iter().map(|(config, _)| *config).collect();
            let source = Source::stored(
                recording.as_deref(),
                self.workloads[idx].as_ref(),
                self.scale,
            );
            let (outcomes, report) = if self.audit {
                let outcomes = simulate_many_audited(source, &missing)
                    .unwrap_or_else(|e| panic!("invariant audit failed for {workload} sweep: {e}"));
                (outcomes, ShardReport::default())
            } else {
                let (outcomes, report) = sweep(source, &missing, self.threads, None);
                (
                    outcomes.expect("an uncancellable sweep always completes"),
                    report,
                )
            };
            // A streamed sweep runs no shards and leaves `threads` alone.
            if report.executed > 0 {
                self.shard_report.threads = report.threads;
            }
            self.shard_report.executed += report.executed;
            self.shard_report.stolen += report.stolen;
            self.shard_report.shard_us.extend(report.shard_us);
            for ((_, claim), outcome) in claims.into_iter().zip(outcomes) {
                self.runs += 1;
                claim.publish(outcome);
            }
        } else {
            for (config, claim) in claims {
                let outcome = self.run_one(idx, recording.as_deref(), &config);
                self.runs += 1;
                claim.publish(outcome);
            }
        }
        configs
            .iter()
            .map(|config| self.resolve(idx, recording.as_deref(), config))
            .collect()
    }
}

impl std::fmt::Debug for Lab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lab")
            .field("scale", &self.scale)
            .field("memoized", &self.memo.outcomes.len())
            .field("runs", &self.runs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labs_move_across_threads() {
        // The supervised runner gives each worker thread its own Lab;
        // this assertion pins the Send bound that design relies on.
        fn assert_send<T: Send>() {}
        assert_send::<Lab>();
    }

    #[test]
    fn memoization_avoids_rework() {
        let mut lab = Lab::new(Scale::Test);
        let cfg = CacheConfig::default();
        lab.outcome("ccom", &cfg);
        lab.outcome("ccom", &cfg);
        let other = CacheConfig::builder().size_bytes(4096).build().unwrap();
        lab.outcome("ccom", &other);
        assert_eq!(lab.runs(), 2);
    }

    #[test]
    fn outcomes_all_covers_the_suite_in_order() {
        let mut lab = Lab::new(Scale::Test);
        let all = lab.outcomes_all(&CacheConfig::default());
        let names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, WORKLOAD_NAMES);
        assert_eq!(lab.runs(), 6);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let mut lab = Lab::new(Scale::Test);
        lab.outcome("cobol", &CacheConfig::default());
    }

    #[test]
    fn custom_workload_sets_are_supported() {
        let mut lab = Lab::with_workloads(Scale::Test, vec![workloads::yacc(), workloads::liver()]);
        assert_eq!(lab.workload_names(), ["yacc", "liver"]);
        let out = lab.outcome("yacc", &CacheConfig::default());
        assert!(out.stats.accesses() > 0);
    }

    #[test]
    #[should_panic(expected = "duplicate workload name")]
    fn duplicate_workloads_are_rejected() {
        let _ = Lab::with_workloads(Scale::Test, vec![workloads::yacc(), workloads::yacc()]);
    }

    #[test]
    fn threaded_sweeps_match_serial_sweeps_exactly() {
        let configs: Vec<CacheConfig> = (0..6)
            .map(|i| CacheConfig::builder().size_bytes(256 << i).build().unwrap())
            .collect();
        let mut serial = Lab::new(Scale::Test);
        let want = serial.outcomes_sweep("met", &configs);
        for threads in [2, 8] {
            let mut parallel = Lab::new(Scale::Test);
            parallel.set_threads(threads);
            let got = parallel.outcomes_sweep("met", &configs);
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.stats, g.stats, "{threads} threads");
                assert_eq!(
                    w.traffic_execution, g.traffic_execution,
                    "{threads} threads"
                );
                assert_eq!(w.traffic_total, g.traffic_total, "{threads} threads");
            }
            assert_eq!(parallel.runs(), serial.runs(), "{threads} threads");
            let report = parallel.shard_report();
            assert!(report.executed > 0, "{threads} threads");
            assert_eq!(report.shard_us.len() as u64, report.executed);
        }
    }

    #[test]
    fn a_budgetless_store_streams_the_sweep_in_one_generator_pass() {
        // With no recording available the sweep must not fall back to
        // one generator run per configuration: the streamed bank pays a
        // single pass and still matches the replay-backed outcomes.
        let configs = [
            CacheConfig::default(),
            CacheConfig::builder().size_bytes(1024).build().unwrap(),
            CacheConfig::builder().size_bytes(4096).build().unwrap(),
        ];
        let mut recorded = Lab::new(Scale::Test);
        let want = recorded.outcomes_sweep("yacc", &configs);
        let mut streamed = Lab::new(Scale::Test);
        streamed.set_store(Arc::new(TraceStore::disabled(Scale::Test)));
        let got = streamed.outcomes_sweep("yacc", &configs);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.stats, g.stats);
            assert_eq!(w.traffic_total, g.traffic_total);
        }
        assert_eq!(streamed.runs(), configs.len() as u64);
    }

    #[test]
    fn audited_lab_reproduces_unaudited_outcomes() {
        let cfg_a = CacheConfig::default();
        let cfg_b = CacheConfig::builder().size_bytes(1024).build().unwrap();
        let mut plain = Lab::new(Scale::Test);
        let mut audited = Lab::new(Scale::Test);
        audited.enable_audit();
        // Sweep path (banked, cross-checked) and single-outcome path.
        let want = plain.outcomes_sweep("grr", &[cfg_a, cfg_b]);
        let got = audited.outcomes_sweep("grr", &[cfg_a, cfg_b]);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.stats, g.stats);
            assert_eq!(w.traffic_total, g.traffic_total);
        }
        assert_eq!(
            plain.outcome("yacc", &cfg_a).stats,
            audited.outcome("yacc", &cfg_a).stats
        );
    }

    #[test]
    fn traced_lab_writes_validating_run_dirs() {
        let root = std::env::temp_dir().join(format!("cwp-lab-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut lab = Lab::new(Scale::Test);
        lab.enable_trace(TraceOptions::new(&root));
        lab.set_trace_context("fig99");
        lab.outcome("ccom", &CacheConfig::default());
        lab.outcome("ccom", &CacheConfig::default()); // memoized: no second dir
        let reports = cwp_obs::schema::validate_trace_dir(&root).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].dir.ends_with("fig99/000-ccom"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn trace_filter_skips_other_workloads() {
        let root = std::env::temp_dir().join(format!("cwp-lab-filter-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut lab = Lab::new(Scale::Test);
        lab.enable_trace(TraceOptions::new(&root));
        lab.set_trace_filter(Some("yacc"));
        lab.set_trace_context("fig98");
        lab.outcome("ccom", &CacheConfig::default());
        lab.outcome("yacc", &CacheConfig::default());
        let reports = cwp_obs::schema::validate_trace_dir(&root).unwrap();
        assert_eq!(reports.len(), 1, "only yacc is traced");
        assert!(reports[0].dir.ends_with("fig98/000-yacc"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn write_streams_are_memoized_and_monotonic() {
        let lab = Lab::new(Scale::Test);
        let s1 = lab.write_stream("liver");
        let s2 = lab.write_stream("liver");
        assert!(Arc::ptr_eq(&s1, &s2));
        assert!(!s1.events.is_empty());
        assert!(s1.events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(s1.instructions >= s1.events.len() as u64);
    }

    #[test]
    fn derived_write_stream_matches_a_generator_fed_one() {
        for name in WORKLOAD_NAMES {
            // Replay-derived (store enabled, the default)...
            let lab = Lab::new(Scale::Test);
            let derived = lab.write_stream(name);
            assert_eq!(lab.store().recordings(), 1, "{name} derived from replay");
            // ...versus generator-fed (store disabled).
            let mut direct = WriteStream::default();
            workloads::by_name(name)
                .unwrap()
                .run(Scale::Test, &mut direct);
            assert_eq!(derived.events, direct.events, "{name} events differ");
            assert_eq!(
                derived.instructions, direct.instructions,
                "{name} instruction count differs"
            );
        }
    }

    #[test]
    fn disabled_store_falls_back_to_live_generation() {
        let mut lab = Lab::new(Scale::Test);
        lab.set_store(Arc::new(TraceStore::disabled(Scale::Test)));
        let out = lab.outcome("grr", &CacheConfig::default());
        assert!(out.stats.accesses() > 0);
        let stream = lab.write_stream("grr");
        assert!(!stream.events.is_empty());
        assert_eq!(lab.store().recordings(), 0);
    }

    #[test]
    fn replaying_labs_match_regenerating_labs() {
        let cfg = CacheConfig::default();
        let mut replaying = Lab::new(Scale::Test);
        let mut regenerating = Lab::new(Scale::Test);
        regenerating.set_store(Arc::new(TraceStore::disabled(Scale::Test)));
        let a = replaying.outcome("met", &cfg);
        let b = regenerating.outcome("met", &cfg);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.traffic_total, b.traffic_total);
    }

    #[test]
    fn sweeps_match_individual_outcomes_with_identical_accounting() {
        let configs: Vec<CacheConfig> = [1024u32, 4096, 16384]
            .iter()
            .map(|&s| CacheConfig::builder().size_bytes(s).build().unwrap())
            .collect();
        let mut swept = Lab::new(Scale::Test);
        let fanned = swept.outcomes_sweep("yacc", &configs);
        let mut individual = Lab::new(Scale::Test);
        for (config, outcome) in configs.iter().zip(&fanned) {
            let solo = individual.outcome("yacc", config);
            assert_eq!(outcome.stats, solo.stats);
            assert_eq!(outcome.traffic_total, solo.traffic_total);
        }
        assert_eq!(swept.runs(), individual.runs(), "run accounting preserved");
        // Repeating the sweep is fully memoized.
        swept.outcomes_sweep("yacc", &configs);
        assert_eq!(swept.runs(), configs.len() as u64);
    }

    #[test]
    fn a_shared_store_records_once_across_labs() {
        let store = Arc::new(TraceStore::new(Scale::Test));
        let cfg = CacheConfig::default();
        let mut lab1 = Lab::new(Scale::Test);
        lab1.set_store(Arc::clone(&store));
        let mut lab2 = Lab::new(Scale::Test);
        lab2.set_store(Arc::clone(&store));
        let a = lab1.outcome("linpack", &cfg);
        let b = lab2.outcome("linpack", &cfg);
        assert_eq!(a.stats, b.stats);
        assert_eq!(store.recordings(), 1, "second lab reused the recording");
    }

    #[test]
    #[should_panic(expected = "does not match lab scale")]
    fn scale_mismatched_stores_are_rejected() {
        let mut lab = Lab::new(Scale::Test);
        lab.set_store(Arc::new(TraceStore::new(Scale::Quick)));
    }
}
