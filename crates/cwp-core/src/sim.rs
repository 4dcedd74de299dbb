//! Driving a workload trace through a cache configuration.
//!
//! A [`Source`] names where the reference stream comes from: a
//! [`RecordedTrace`] replay or a live [`Workload`] run. Single runs go
//! through [`simulate_probed`] and [`simulate_audited`] (with the
//! [`simulate`] and [`replay`] shorthands), and every configuration
//! sweep goes through one driver, [`sweep`], which picks its plan from
//! the source:
//!
//! * a recording is replayed as work-stealing shards, each a bank of
//!   sinks fed by one decode of the trace ([`simulate_many_sharded`]);
//! * a live workload runs its generator once, streaming bounded chunks
//!   of references through the whole bank.
//!
//! Both plans first group the bank into engine units with one plan
//! builder: a write-through fetch-on-write or write-validate
//! configuration rides on its write-back twin's engine, and its outcome
//! is derived when that engine settles. Both poll an optional
//! [`CancelToken`] and produce outcomes identical to per-configuration
//! [`simulate`] calls at every thread count. [`simulate_many_sharded`] stays public because it is the
//! recorded plan itself: the `perfbench` harness and the serve
//! equivalence checks call it on a bare recording to time the plan and
//! to compute the result a server must reproduce.

use cwp_cache::{
    Cache, CacheConfig, CacheStats, NullProbe, Probe, SoaCache, WriteHitPolicy, WriteMissPolicy,
};
use cwp_mem::{CwpError, MainMemory, Traffic, TrafficClass, TrafficRecorder};
use cwp_trace::{AccessKind, MemRef, RecordedTrace, Scale, TraceSink, TraceSummary, Workload};
use cwp_verify::InvariantAuditor;

use crate::shard::{run_shards, ShardReport};
use crate::supervise::CancelToken;

/// How many references a recorded-plan shard replays between polls of
/// its [`CancelToken`]. Small enough to bound cancellation latency to
/// well under a millisecond, large enough that the poll is free.
const CANCEL_POLL_REFS: usize = 4096;

/// Everything one (workload, configuration) simulation produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// The trace's instruction/read/write totals.
    pub summary: TraceSummary,
    /// Cache event counters, including flush ("flush stop") statistics.
    pub stats: CacheStats,
    /// Back-side traffic during execution only (cold stop).
    pub traffic_execution: Traffic,
    /// Back-side traffic including the final flush of dirty lines
    /// (flush stop) — the accounting Section 5 argues for.
    pub traffic_total: Traffic,
}

impl SimOutcome {
    /// Back-side transactions per instruction (Figure 18/19's y-axis),
    /// flush included.
    pub fn transactions_per_instruction(&self) -> f64 {
        self.traffic_total.total_transactions() as f64 / self.summary.instructions as f64
    }

    /// Back-side bytes per instruction, flush included.
    pub fn bytes_per_instruction(&self) -> f64 {
        self.traffic_total.total_bytes() as f64 / self.summary.instructions as f64
    }
}

/// Where a simulation's reference stream comes from.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// Replay of a pre-recorded trace.
    Recorded(&'a RecordedTrace),
    /// A live generator run of the workload at the given scale.
    Live(&'a dyn Workload, Scale),
}

impl<'a> Source<'a> {
    /// The recording when a [`TraceStore`](crate::store::TraceStore)
    /// lookup produced one, else a live run of `workload` at `scale`.
    pub fn stored(
        recording: Option<&'a RecordedTrace>,
        workload: &'a dyn Workload,
        scale: Scale,
    ) -> Self {
        match recording {
            Some(trace) => Source::Recorded(trace),
            None => Source::Live(workload, scale),
        }
    }

    /// Pushes the source's reference stream into `sink` and returns the
    /// run's totals. Both sources yield the identical stream and
    /// summary for the same workload and scale.
    pub fn drive(&self, sink: &mut dyn TraceSink) -> TraceSummary {
        match *self {
            Source::Recorded(trace) => trace.replay(sink),
            Source::Live(workload, scale) => workload.run(scale, sink),
        }
    }
}

/// A [`TraceSink`] adapter that feeds references into the golden
/// data-carrying cache, backed by [`MainMemory`].
///
/// Store data is fabricated (the byte pattern is irrelevant to every
/// statistic; functional correctness is covered by the transparency
/// property tests in `cwp-cache`).
#[derive(Debug)]
pub struct CacheSink<P = NullProbe> {
    cache: Cache<TrafficRecorder<MainMemory>, P>,
    scratch: [u8; 8],
}

impl CacheSink {
    /// Wraps a fresh cache built from `config`.
    pub fn new(config: CacheConfig) -> Self {
        CacheSink::with_probe(config, NullProbe)
    }
}

impl<P: Probe> CacheSink<P> {
    /// Wraps a fresh cache built from `config` with `probe` observing
    /// every cache event.
    pub fn with_probe(config: CacheConfig, probe: P) -> Self {
        CacheSink {
            cache: Cache::with_memory_probed(config, probe),
            scratch: [0u8; 8],
        }
    }

    /// The cache being driven.
    pub fn cache(&self) -> &Cache<TrafficRecorder<MainMemory>, P> {
        &self.cache
    }

    /// Mutable access to the cache being driven.
    pub fn cache_mut(&mut self) -> &mut Cache<TrafficRecorder<MainMemory>, P> {
        &mut self.cache
    }

    /// Consumes the sink, returning the cache.
    pub fn into_cache(self) -> Cache<TrafficRecorder<MainMemory>, P> {
        self.cache
    }
}

impl<P: Probe> TraceSink for CacheSink<P> {
    #[inline]
    fn record(&mut self, r: MemRef) {
        let len = r.size as usize;
        match r.kind {
            AccessKind::Read => {
                let mut buf = self.scratch;
                self.cache.read(r.addr, &mut buf[..len]);
            }
            AccessKind::Write => {
                let buf = self.scratch;
                self.cache.write(r.addr, &buf[..len]);
            }
        }
    }
}

/// A [`TraceSink`] over the struct-of-arrays data-free engine
/// ([`SoaCache`]): flat tag/valid/dirty/LRU word arrays, no data image,
/// traffic tallied in place. Every fault-free member of a [`sweep`] bank
/// runs on it, and so does every untraced, unaudited, fault-free
/// [`Lab`](crate::Lab) outcome: the data-carrying [`CacheSink`] runs
/// only fault-injecting, traced and audited runs. [`CacheStats`] and
/// [`Traffic`] are functions of the address stream and the
/// configuration alone, so it settles to
/// outcomes bit-identical to [`CacheSink`]'s (the policy/geometry matrix
/// test below pins it against the golden engine), at a fraction of the
/// per-reference cost and ~32 bytes of state per line.
///
/// In a [`sweep`], one write-back fetch-on-write or write-validate sink
/// also answers its write-through twin: the write-hit policy never
/// changes residency, valid bytes or LRU order under those miss
/// policies, so the twin's outcome is derived from this one's when it
/// settles (see [`simulate_many_sharded`]).
#[derive(Debug, Clone)]
pub struct DataFreeSink {
    cache: SoaCache,
}

impl DataFreeSink {
    /// Wraps a fresh SoA cache built from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` enables fault injection: corrupted data
    /// changes recovery accounting, so faults need the data-carrying
    /// [`CacheSink`].
    pub fn new(config: CacheConfig) -> Self {
        DataFreeSink {
            cache: SoaCache::new(config),
        }
    }

    /// The SoA cache being driven.
    pub fn cache(&self) -> &SoaCache {
        &self.cache
    }

    /// Final-flush epilogue: flush (flush stop), split traffic into
    /// execution-only vs total, as the data-carrying engine does.
    pub fn settle(mut self, summary: TraceSummary) -> SimOutcome {
        let traffic_execution = self.cache.traffic();
        self.cache.flush();
        SimOutcome {
            summary,
            stats: *self.cache.stats(),
            traffic_execution,
            traffic_total: self.cache.traffic(),
        }
    }
}

impl TraceSink for DataFreeSink {
    #[inline]
    fn record(&mut self, r: MemRef) {
        match r.kind {
            AccessKind::Read => self.cache.read(r.addr, r.size as usize),
            AccessKind::Write => self.cache.write(r.addr, r.size as usize),
        }
    }
}

/// The write-through twin's outcome, derived from the outcome of a
/// write-back fetch-on-write or write-validate engine whose stores wrote
/// `bytes_written` bytes.
///
/// The twin holds the same lines with the same valid bytes in the same
/// LRU order, so it hits, misses, fetches and evicts exactly as the
/// write-back engine does. It differs only in what a store leaves
/// behind: no line is ever dirty, so nothing is written back, and every
/// store piece goes through to the next level.
fn write_through_twin(write_back: &SimOutcome, bytes_written: u64) -> SimOutcome {
    let mut stats = write_back.stats;
    stats.writes_to_dirty = 0;
    for victims in [&mut stats.victims, &mut stats.flush] {
        victims.dirty = 0;
        victims.dirty_bytes = 0;
    }
    let through = |traffic: Traffic| Traffic {
        write_back: TrafficClass::default(),
        write_through: TrafficClass {
            transactions: stats.writes,
            bytes: bytes_written,
        },
        ..traffic
    };
    SimOutcome {
        summary: write_back.summary,
        stats,
        traffic_execution: through(write_back.traffic_execution),
        traffic_total: through(write_back.traffic_total),
    }
}

/// One engine of a sweep plan and every bank index it answers. Built by
/// [`plan_units`], the one plan builder both [`sweep`] plans use.
struct Unit {
    /// The configuration the engine runs.
    config: CacheConfig,
    /// Bank indices answered with the engine's own outcome.
    direct: Vec<usize>,
    /// Bank indices of write-through configurations answered with the
    /// outcome derived from this write-back engine's.
    write_through: Vec<usize>,
}

impl Unit {
    /// Answers every member from the engine's settled `outcome`;
    /// `bytes_written` is what the engine's stores wrote.
    fn answer(&self, outcome: SimOutcome, bytes_written: u64) -> Vec<(usize, SimOutcome)> {
        let mut answers = Vec::with_capacity(self.direct.len() + self.write_through.len());
        if !self.write_through.is_empty() {
            let twin = write_through_twin(&outcome, bytes_written);
            answers.extend(self.write_through.iter().map(|&i| (i, twin.clone())));
        }
        answers.extend(self.direct.iter().map(|&i| (i, outcome.clone())));
        answers
    }

    /// Settles this unit's data-free engine and answers every member.
    fn settle_free(&self, sink: DataFreeSink, summary: TraceSummary) -> Vec<(usize, SimOutcome)> {
        let bytes_written = sink.cache().bytes_written();
        self.answer(sink.settle(summary), bytes_written)
    }
}

/// Groups a sweep bank into engine units, in order of first appearance.
///
/// Each fault-injecting configuration is a unit of its own. Fault-free
/// configurations share one engine per distinct engine configuration,
/// and a write-through fetch-on-write or write-validate configuration's
/// engine is its write-back twin: the same configuration with
/// `write_hit = WriteBack`, every other field (`partial_writeback` and
/// `protection` included) equal. That is exact because under those miss
/// policies the write-hit policy decides only whether a written line
/// turns dirty and whether the store goes through, never which lines are
/// resident, their valid bytes or their LRU order.
fn plan_units(configs: &[CacheConfig]) -> Vec<Unit> {
    let mut units: Vec<Unit> = Vec::new();
    for (i, &config) in configs.iter().enumerate() {
        let fault_free = config.fault_rate_ppm() == 0;
        let derived = fault_free
            && config.write_hit() == WriteHitPolicy::WriteThrough
            && matches!(
                config.write_miss(),
                WriteMissPolicy::FetchOnWrite | WriteMissPolicy::WriteValidate
            );
        let engine = if derived {
            config
                .to_builder()
                .write_hit(WriteHitPolicy::WriteBack)
                .build_unchecked()
        } else {
            config
        };
        let unit = match units.iter().position(|u| fault_free && u.config == engine) {
            Some(u) => &mut units[u],
            None => {
                units.push(Unit {
                    config: engine,
                    direct: Vec::new(),
                    write_through: Vec::new(),
                });
                units.last_mut().expect("just pushed")
            }
        };
        if derived {
            unit.write_through.push(i);
        } else {
            unit.direct.push(i);
        }
    }
    units
}

/// Runs `workload` at `scale` through a cache built from `config`,
/// flushing at the end (flush stop).
///
/// # Examples
///
/// ```
/// use cwp_cache::CacheConfig;
/// use cwp_core::sim::simulate;
/// use cwp_trace::{workloads, Scale};
///
/// let outcome = simulate(
///     workloads::yacc().as_ref(),
///     Scale::Test,
///     &CacheConfig::default(),
/// );
/// assert!(outcome.stats.accesses() > 0);
/// ```
pub fn simulate(workload: &dyn Workload, scale: Scale, config: &CacheConfig) -> SimOutcome {
    simulate_probed(Source::Live(workload, scale), config, NullProbe).0
}

/// As [`simulate`], but driven by a pre-recorded trace instead of a
/// live generator run. Produces an outcome identical to simulating the
/// workload the trace was recorded from.
///
/// # Examples
///
/// ```
/// use cwp_cache::CacheConfig;
/// use cwp_core::sim::{replay, simulate};
/// use cwp_trace::{workloads, RecordedTrace, Scale};
///
/// let w = workloads::met();
/// let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
/// let live = simulate(w.as_ref(), Scale::Test, &CacheConfig::default());
/// let replayed = replay(&trace, &CacheConfig::default());
/// assert_eq!(live.stats, replayed.stats);
/// ```
pub fn replay(trace: &RecordedTrace, config: &CacheConfig) -> SimOutcome {
    simulate_probed(Source::Recorded(trace), config, NullProbe).0
}

/// Drives `source` through a cache built from `config` with `probe`
/// attached for the whole run (execution and final flush). Returns the
/// probe alongside the outcome so callers can inspect what it
/// collected.
pub fn simulate_probed<P: Probe>(
    source: Source<'_>,
    config: &CacheConfig,
    probe: P,
) -> (SimOutcome, P) {
    let mut sink = CacheSink::with_probe(*config, probe);
    let summary = source.drive(&mut sink);
    settle(sink, summary)
}

/// Final-flush epilogue of the data-carrying engine: flush the cache
/// (flush stop), split traffic into execution-only vs total, and hand
/// the probe back.
fn settle<P: Probe>(sink: CacheSink<P>, summary: TraceSummary) -> (SimOutcome, P) {
    let mut cache = sink.into_cache();
    let traffic_execution = cache.traffic();
    cache.flush();
    let stats = *cache.stats();
    let traffic_total = cache.traffic();
    let (_, probe) = cache.into_parts();
    (
        SimOutcome {
            summary,
            stats,
            traffic_execution,
            traffic_total,
        },
        probe,
    )
}

// ---------------------------------------------------------------------
// The sweep driver and its two plans
// ---------------------------------------------------------------------

/// Simulates every configuration in `configs` over one `source`,
/// returning outcomes in `configs` order — identical to per-
/// configuration [`simulate_probed`] runs, at every `threads` value.
///
/// The plan follows from the source: a [`Source::Recorded`] trace runs
/// the sharded plan ([`simulate_many_sharded`]) on up to `threads`
/// work-stealing workers; a [`Source::Live`] workload runs its
/// generator once and streams bounded chunks of references through the
/// whole bank, split over `threads` workers per chunk, so no recording
/// is ever held. The streamed plan runs no shards: its [`ShardReport`]
/// is empty.
///
/// Returns `(None, report)` if `cancel` trips before the sweep
/// finishes; the partial bank is discarded, never settled. A recorded
/// sweep stops mid-replay; a live generator cannot be stopped, so it
/// runs to the end with the bank no longer fed.
///
/// # Examples
///
/// ```
/// use cwp_cache::CacheConfig;
/// use cwp_core::sim::{simulate, sweep, Source};
/// use cwp_trace::{workloads, RecordedTrace, Scale};
///
/// let w = workloads::grr();
/// let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
/// let configs = [CacheConfig::default()];
/// let live = simulate(w.as_ref(), Scale::Test, &configs[0]);
/// for source in [Source::Recorded(&trace), Source::Live(w.as_ref(), Scale::Test)] {
///     let (outcomes, _) = sweep(source, &configs, 2, None);
///     assert_eq!(outcomes.unwrap()[0], live);
/// }
/// ```
pub fn sweep(
    source: Source<'_>,
    configs: &[CacheConfig],
    threads: usize,
    cancel: Option<&CancelToken>,
) -> (Option<Vec<SimOutcome>>, ShardReport) {
    match source {
        Source::Recorded(trace) => simulate_many_sharded(trace, configs, threads, cancel),
        Source::Live(workload, scale) => {
            let units = plan_units(configs);
            let mut bank: Vec<BankSink> = units.iter().map(|u| BankSink::new(u.config)).collect();
            let outcomes =
                run_streamed(workload, scale, &mut bank, threads, cancel).map(|summary| {
                    let answers = units
                        .iter()
                        .zip(bank)
                        .map(|(u, sink)| sink.settle(u, summary));
                    reassemble(configs.len(), answers)
                });
            (outcomes, ShardReport::default())
        }
    }
}

/// Puts every answer at its configuration index: the outcome vector
/// does not depend on how the plan grouped or ordered its engines.
fn reassemble(
    len: usize,
    answers: impl IntoIterator<Item = Vec<(usize, SimOutcome)>>,
) -> Vec<SimOutcome> {
    let mut outcomes: Vec<Option<SimOutcome>> = vec![None; len];
    for (i, outcome) in answers.into_iter().flatten() {
        outcomes[i] = Some(outcome);
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every configuration has a unit"))
        .collect()
}

/// One engine of a streamed sweep's bank: the data-free SoA engine
/// where the statistics allow it, the data-carrying engine for
/// fault-injecting configurations, whose statistics depend on the
/// bytes. A recorded shard's bank is one engine throughout, so it holds
/// the engines directly (see [`replay_polled`]).
enum BankSink {
    Free(Box<DataFreeSink>),
    Full(Box<CacheSink>),
    /// Test-only instrumented sink: counts the chunks it was fed and
    /// optionally stalls on each one, modelling a slow consumer.
    #[cfg(test)]
    Probe {
        fed: std::sync::Arc<std::sync::atomic::AtomicU64>,
        stall: std::time::Duration,
        inner: Box<DataFreeSink>,
    },
}

impl BankSink {
    fn new(config: CacheConfig) -> Self {
        if config.fault_rate_ppm() == 0 {
            BankSink::Free(Box::new(DataFreeSink::new(config)))
        } else {
            BankSink::Full(Box::new(CacheSink::new(config)))
        }
    }

    fn feed(&mut self, chunk: &[MemRef]) {
        match self {
            BankSink::Free(sink) => chunk.iter().for_each(|&r| sink.record(r)),
            BankSink::Full(sink) => chunk.iter().for_each(|&r| sink.record(r)),
            #[cfg(test)]
            BankSink::Probe { fed, stall, inner } => {
                if !stall.is_zero() {
                    std::thread::sleep(*stall);
                }
                fed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                chunk.iter().for_each(|&r| inner.record(r));
            }
        }
    }

    /// Settles the engine and answers every member of its `unit`.
    fn settle(self, unit: &Unit, summary: TraceSummary) -> Vec<(usize, SimOutcome)> {
        match self {
            BankSink::Free(sink) => unit.settle_free(*sink, summary),
            // A fault-injecting unit answers only its own configuration.
            BankSink::Full(sink) => unit.answer(settle(*sink, summary).0, 0),
            #[cfg(test)]
            BankSink::Probe { inner, .. } => unit.settle_free(*inner, summary),
        }
    }
}

/// The recorded plan of [`sweep`], executed as stealable shards on up
/// to `threads` workers via [`run_shards`]. The bank is first grouped
/// into engine units by the plan builder the streamed plan uses too:
/// fault-free configurations run on data-free engines, one per distinct
/// engine configuration, and a write-through fetch-on-write or
/// write-validate configuration shares its write-back twin's engine,
/// whose settled outcome its own is derived from (exact, because under
/// those miss policies the write-hit policy never changes residency,
/// valid bytes or LRU order). Contiguous groups of the fault-free units
/// make shards (each shard decodes the trace once for its group), and
/// each fault-injecting configuration becomes a one-member shard on the
/// data-carrying engine. Every shard replays the trace once through its
/// whole bank, polling `cancel` every 4096 references. Results are
/// reassembled by configuration index, so the outcome vector is
/// identical at every thread count and steal order; `threads <= 1`
/// runs the whole plan inline.
///
/// Returns `(None, report)` if `cancel` trips mid-sweep; pass no token
/// for an uncancellable sweep.
pub fn simulate_many_sharded(
    trace: &RecordedTrace,
    configs: &[CacheConfig],
    threads: usize,
    cancel: Option<&CancelToken>,
) -> (Option<Vec<SimOutcome>>, ShardReport) {
    let threads = threads.max(1);
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let units = plan_units(configs);
    let (free, faulty): (Vec<&Unit>, Vec<&Unit>) =
        units.iter().partition(|u| u.config.fault_rate_ppm() == 0);
    // Shard plan: contiguous groups of the fault-free units (several per
    // worker, so stealing can balance uneven groups), then one shard
    // per fault-injecting configuration.
    let mut shards: Vec<Vec<&Unit>> = Vec::new();
    if !free.is_empty() {
        let group = free.len().div_ceil(threads * 4);
        shards.extend(free.chunks(group).map(<[&Unit]>::to_vec));
    }
    shards.extend(faulty.into_iter().map(|u| vec![u]));

    let summary = trace.summary();
    let run_shard = |s: usize| -> Option<Vec<(usize, SimOutcome)>> {
        match shards[s][..] {
            [unit] if unit.config.fault_rate_ppm() != 0 => {
                let mut bank = [CacheSink::new(unit.config)];
                replay_polled(trace, &mut bank, cancel)?;
                let [sink] = bank;
                Some(unit.answer(settle(sink, summary).0, 0))
            }
            ref members => {
                let mut bank: Vec<DataFreeSink> = members
                    .iter()
                    .map(|u| DataFreeSink::new(u.config))
                    .collect();
                replay_polled(trace, &mut bank, cancel)?;
                let answers = members.iter().zip(bank);
                Some(
                    answers
                        .flat_map(|(u, sink)| u.settle_free(sink, summary))
                        .collect(),
                )
            }
        }
    };

    let (shard_results, report) = run_shards(shards.len(), threads, run_shard);
    let Some(answers) = shard_results.into_iter().collect::<Option<Vec<_>>>() else {
        return (None, report);
    };
    if cancelled() {
        return (None, report);
    }
    (Some(reassemble(configs.len(), answers)), report)
}

/// Replays `trace` once through every sink of a one-engine `bank`,
/// polling `cancel` every [`CANCEL_POLL_REFS`] references; `None` once
/// it trips. The bank is homogeneous so the per-reference feed
/// dispatches statically.
fn replay_polled<S: TraceSink>(
    trace: &RecordedTrace,
    bank: &mut [S],
    cancel: Option<&CancelToken>,
) -> Option<()> {
    for (n, r) in trace.iter().enumerate() {
        if n % CANCEL_POLL_REFS == 0 && cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        for sink in bank.iter_mut() {
            sink.record(r);
        }
    }
    Some(())
}

/// How many references the streamed plan buffers before fanning a
/// chunk out to its bank: bounds live memory to one chunk
/// (~[`STREAM_CHUNK_REFS`] × 16 B) however long the workload runs.
const STREAM_CHUNK_REFS: usize = cwp_trace::CHUNK_REFS;

/// The tee driven by the live generator: buffers one chunk of
/// references, then broadcasts it to every sink — on `threads` workers
/// when asked — and recycles the buffer.
struct ChunkedTee<'a> {
    buffer: Vec<MemRef>,
    sinks: &'a mut [BankSink],
    threads: usize,
    /// Checked at every chunk boundary; cancellation latency is thus
    /// bounded by one chunk plus one (possibly stalled) feed.
    cancel: Option<&'a CancelToken>,
    /// Latched on the first cancelled flush: later chunks are dropped
    /// without feeding, so a stalled sink is paid for at most once.
    cancelled: bool,
}

impl ChunkedTee<'_> {
    fn flush(&mut self) {
        if self.cancelled || self.cancel.is_some_and(CancelToken::is_cancelled) {
            // The generator cannot be aborted mid-run; a cancelled
            // sweep instead stops consuming — the remaining chunks are
            // dropped at buffer-clear speed and the sinks (one of
            // which may be stalled) are never fed again.
            self.cancelled = true;
            self.buffer.clear();
            return;
        }
        if self.buffer.is_empty() {
            return;
        }
        let chunk: &[MemRef] = &self.buffer;
        let threads = self.threads.max(1).min(self.sinks.len().max(1));
        if threads <= 1 {
            for sink in self.sinks.iter_mut() {
                sink.feed(chunk);
            }
        } else {
            // Split the sink bank across workers; every worker feeds the
            // same chunk to its slice. The scope is the per-chunk
            // barrier.
            let per = self.sinks.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for slice in self.sinks.chunks_mut(per) {
                    scope.spawn(move || {
                        for sink in slice {
                            sink.feed(chunk);
                        }
                    });
                }
            });
        }
        self.buffer.clear();
    }
}

impl TraceSink for ChunkedTee<'_> {
    #[inline]
    fn record(&mut self, r: MemRef) {
        self.buffer.push(r);
        if self.buffer.len() >= STREAM_CHUNK_REFS {
            self.flush();
        }
    }
}

/// The streamed plan of [`sweep`]: runs `workload` once through a
/// [`ChunkedTee`] over `bank` (one engine per [`Unit`]) and returns the
/// run's summary for the caller to settle the bank with. A paper-scale
/// workload streams through one ~16 MiB chunk buffer instead of a
/// multi-GiB resident recording, and still pays one generator pass for
/// the whole sweep.
///
/// The tee polls `cancel` at every chunk boundary; once it fires, the
/// bank is never fed again and the run returns `None`.
fn run_streamed(
    workload: &dyn Workload,
    scale: Scale,
    bank: &mut [BankSink],
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Option<TraceSummary> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return None;
    }
    let mut tee = ChunkedTee {
        buffer: Vec::new(),
        sinks: bank,
        threads,
        cancel,
        cancelled: false,
    };
    let summary = workload.run(scale, &mut tee);
    tee.flush();
    (!tee.cancelled).then_some(summary)
}

// ---------------------------------------------------------------------
// Audited drivers (`figures --audit`, `cwp-fuzz`)
// ---------------------------------------------------------------------

/// A [`TraceSink`] adapter that forwards every reference to an audited
/// [`CacheSink`] and re-checks the engine's sub-block mask laws on the
/// touched set(s) after each one. Violations are remembered (first one
/// wins) rather than panicking, so the trace drive completes and the
/// caller can surface a typed error.
struct AuditingSink {
    inner: CacheSink<InvariantAuditor>,
    first_violation: Option<String>,
}

impl TraceSink for AuditingSink {
    fn record(&mut self, r: MemRef) {
        self.inner.record(r);
        if self.first_violation.is_none() {
            if let Err(e) = self.inner.cache().audit_masks_at(r.addr, r.size as usize) {
                self.first_violation = Some(e);
            }
        }
    }
}

/// As [`simulate_probed`], but with the full invariant audit enabled:
/// an [`InvariantAuditor`] probe re-derives every counter and traffic
/// class from the event stream and checks conservation laws, and the
/// engine's sub-block mask laws are re-verified after every reference.
///
/// The outcome is identical to [`simulate_probed`]'s — auditing
/// observes, it never steers — so `figures --audit` output is
/// byte-identical to an unaudited run.
///
/// # Errors
///
/// [`CwpError::InvariantViolation`] describing the first broken law.
pub fn simulate_audited(source: Source<'_>, config: &CacheConfig) -> Result<SimOutcome, CwpError> {
    let mut audit = AuditingSink {
        inner: CacheSink::with_probe(*config, InvariantAuditor::new(config)),
        first_violation: None,
    };
    let summary = source.drive(&mut audit);
    if let Some(detail) = audit.first_violation {
        return Err(CwpError::InvariantViolation { detail });
    }
    let (outcome, auditor) = settle(audit.inner, summary);
    auditor.check()?;
    auditor.reconcile(&outcome.stats, &outcome.traffic_total)?;
    Ok(outcome)
}

/// As [`sweep`], but audited: besides running the banked sweep, every
/// configuration is *also* driven singly under a full audit and the two
/// outcomes are required to match exactly — the "stats deltas sum
/// across a banked pass exactly as they do run singly" conservation
/// law. Roughly doubles the cost; only the `--audit` paths use it.
///
/// # Errors
///
/// [`CwpError::InvariantViolation`] if any audited single run breaks a
/// law, or if a banked outcome differs from its single-run twin.
pub fn simulate_many_audited(
    source: Source<'_>,
    configs: &[CacheConfig],
) -> Result<Vec<SimOutcome>, CwpError> {
    let banked = sweep(source, configs, 1, None)
        .0
        .expect("an uncancellable sweep always completes");
    for (outcome, config) in banked.iter().zip(configs) {
        if simulate_audited(source, config)? != *outcome {
            return Err(CwpError::InvariantViolation {
                detail: format!(
                    "banked sweep outcome diverges from its audited single run for {config}"
                ),
            });
        }
    }
    Ok(banked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwp_cache::{WriteHitPolicy, WriteMissPolicy};
    use cwp_trace::workloads;

    const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

    /// A fault-injecting configuration: runs on the data-carrying
    /// engine inside every bank.
    fn faulty(seed: u64) -> CacheConfig {
        CacheConfig::builder()
            .size_bytes(1024)
            .fault_rate_ppm(5_000)
            .fault_seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn simulate_accounts_for_every_reference() {
        let out = simulate(
            workloads::grr().as_ref(),
            Scale::Test,
            &CacheConfig::default(),
        );
        // Word-sized refs never split with 16B lines.
        assert_eq!(out.stats.reads, out.summary.reads);
        assert_eq!(out.stats.writes, out.summary.writes);
        assert_eq!(out.stats.read_hits + out.stats.read_misses, out.stats.reads);
        assert_eq!(
            out.stats.write_hits + out.stats.write_misses,
            out.stats.writes
        );
    }

    #[test]
    fn flush_traffic_is_additional() {
        let out = simulate(
            workloads::yacc().as_ref(),
            Scale::Test,
            &CacheConfig::default(),
        );
        assert!(
            out.traffic_total.write_back.transactions
                >= out.traffic_execution.write_back.transactions
        );
        assert_eq!(
            out.traffic_total.fetch, out.traffic_execution.fetch,
            "flush never fetches"
        );
    }

    #[test]
    fn write_through_cache_generates_store_traffic() {
        let config = CacheConfig::builder()
            .write_hit(WriteHitPolicy::WriteThrough)
            .write_miss(WriteMissPolicy::WriteAround)
            .build()
            .unwrap();
        let out = simulate(workloads::liver().as_ref(), Scale::Test, &config);
        assert_eq!(
            out.traffic_total.write_through.transactions,
            out.stats.writes
        );
        assert_eq!(out.traffic_total.write_back.transactions, 0);
    }

    #[test]
    fn replay_matches_a_live_generator_run() {
        let w = workloads::yacc();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let config = CacheConfig::default();
        assert_eq!(
            simulate(w.as_ref(), Scale::Test, &config),
            replay(&trace, &config)
        );
    }

    #[test]
    fn sweep_matches_per_config_replay_for_every_source_thread_count_and_token() {
        let w = workloads::liver();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let configs = [
            CacheConfig::default(),
            CacheConfig::builder()
                .write_hit(WriteHitPolicy::WriteThrough)
                .write_miss(WriteMissPolicy::WriteAround)
                .build()
                .unwrap(),
            CacheConfig::builder().size_bytes(1024).build().unwrap(),
            faulty(3),
        ];
        let golden: Vec<SimOutcome> = configs.iter().map(|c| replay(&trace, c)).collect();
        let quiet = CancelToken::new();
        for source in [
            Source::Recorded(&trace),
            Source::Live(w.as_ref(), Scale::Test),
        ] {
            for threads in THREAD_COUNTS {
                for cancel in [None, Some(&quiet)] {
                    let (fanned, _) = sweep(source, &configs, threads, cancel);
                    let fanned = fanned.expect("an untripped sweep completes");
                    assert_eq!(fanned, golden, "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn soa_bank_matches_the_golden_engine_across_every_policy() {
        // The data-free fast path must be indistinguishable from the
        // data-carrying engine wherever a sweep may use it: every
        // write-hit x write-miss combination, plus set-associative and
        // narrow/wide-line geometries that stress victim selection and
        // sub-block masks.
        let w = workloads::ccom();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let mut configs = Vec::new();
        for hit in WriteHitPolicy::ALL {
            for miss in WriteMissPolicy::ALL {
                // Skip combinations the builder rejects (write-back +
                // write-invalidate conflict).
                if let Ok(config) = CacheConfig::builder()
                    .size_bytes(1024)
                    .line_bytes(16)
                    .write_hit(hit)
                    .write_miss(miss)
                    .build()
                {
                    configs.push(config);
                }
            }
        }
        assert_eq!(configs.len(), 6, "4 write-through + 2 write-back combos");
        for (line, ways) in [(4u32, 1u32), (32, 2), (16, 4)] {
            configs.push(
                CacheConfig::builder()
                    .size_bytes(2048)
                    .line_bytes(line)
                    .associativity(ways)
                    .write_hit(WriteHitPolicy::WriteBack)
                    .write_miss(WriteMissPolicy::WriteValidate)
                    .build()
                    .unwrap(),
            );
        }
        let fanned = sweep(Source::Recorded(&trace), &configs, 1, None)
            .0
            .unwrap();
        for (outcome, config) in fanned.iter().zip(&configs) {
            assert_eq!(*outcome, replay(&trace, config), "{config:?}");
        }
    }

    /// A seeded SplitMix64 reference stream over a 4 KB region: aligned
    /// 4 B and 8 B reads and writes, so 8 B stores straddle 4 B lines.
    struct RandomStream {
        seed: u64,
        refs: usize,
    }

    impl Workload for RandomStream {
        fn name(&self) -> &'static str {
            "random-stream"
        }

        fn description(&self) -> &'static str {
            "seeded SplitMix64 reads and writes over 4 KB"
        }

        fn run(&self, _scale: Scale, sink: &mut dyn TraceSink) -> TraceSummary {
            let mut rng = cwp_mem::SplitMix64::seed_from_u64(self.seed);
            let mut summary = TraceSummary::default();
            for _ in 0..self.refs {
                let size = if rng.gen_bool() { 8 } else { 4 };
                let addr = rng.below(4096) & !(u64::from(size) - 1);
                let r = if rng.gen_bool() {
                    summary.writes += 1;
                    MemRef::write(addr, size)
                } else {
                    summary.reads += 1;
                    MemRef::read(addr, size)
                };
                summary.instructions += u64::from(r.before_insts);
                sink.record(r);
            }
            summary
        }
    }

    #[test]
    fn derived_write_through_twins_match_the_data_carrying_engine() {
        // Every bank shape the twin plan must get right, at every
        // geometry that changes how stores split, evict and write back:
        // sweep must equal per-config replay on the data-carrying engine.
        let mut seeds = cwp_mem::SplitMix64::seed_from_u64(0x7717);
        for line in [4u32, 16, 64] {
            for ways in [1u32, 2, 8] {
                for partial in [false, true] {
                    let w = RandomStream {
                        seed: seeds.next_u64(),
                        refs: 3_000,
                    };
                    let trace = RecordedTrace::record(&w, Scale::Test);
                    let base = CacheConfig::builder()
                        .size_bytes(1024)
                        .line_bytes(line)
                        .associativity(ways)
                        .partial_writeback(partial);
                    let with = |hit, miss| base.clone().write_hit(hit).write_miss(miss).build();
                    let wa = with(WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteAround);
                    let wi = with(
                        WriteHitPolicy::WriteThrough,
                        WriteMissPolicy::WriteInvalidate,
                    );
                    for miss in [
                        WriteMissPolicy::FetchOnWrite,
                        WriteMissPolicy::WriteValidate,
                    ] {
                        let wb = with(WriteHitPolicy::WriteBack, miss).unwrap();
                        let wt = with(WriteHitPolicy::WriteThrough, miss).unwrap();
                        let faulty_wt = wt.to_builder().fault_rate_ppm(5_000).build().unwrap();
                        let banks: [&[CacheConfig]; 5] = [
                            &[wb, wt],
                            &[wt],
                            &[wt, wb, wt],
                            &[wt, wt],
                            &[wa.unwrap(), wt, faulty_wt, wb, wi.unwrap()],
                        ];
                        for bank in banks {
                            let golden: Vec<SimOutcome> =
                                bank.iter().map(|c| replay(&trace, c)).collect();
                            for source in [Source::Recorded(&trace), Source::Live(&w, Scale::Test)]
                            {
                                for threads in [1, 2] {
                                    let (swept, _) = sweep(source, bank, threads, None);
                                    let swept = swept.expect("an uncancellable sweep completes");
                                    for ((got, want), config) in swept.iter().zip(&golden).zip(bank)
                                    {
                                        assert_eq!(
                                            got, want,
                                            "{config:?} in {bank:?}, {threads} threads"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn twin_units_group_only_exact_write_back_twins() {
        let wb = CacheConfig::default();
        let wt = wb
            .to_builder()
            .write_hit(WriteHitPolicy::WriteThrough)
            .build()
            .unwrap();
        let wt_partial = wt.to_builder().partial_writeback(true).build().unwrap();
        let wa = wt
            .to_builder()
            .write_miss(WriteMissPolicy::WriteAround)
            .build()
            .unwrap();
        let faulty_wt = wt.to_builder().fault_rate_ppm(1).build().unwrap();
        let units = plan_units(&[wt, wa, wb, wt_partial, faulty_wt, faulty_wt]);
        let shape: Vec<_> = units
            .iter()
            .map(|u| (u.config, u.direct.clone(), u.write_through.clone()))
            .collect();
        let wb_partial = wb.to_builder().partial_writeback(true).build().unwrap();
        assert_eq!(
            shape,
            [
                (wb, vec![2], vec![0]),
                (wa, vec![1], vec![]),
                (wb_partial, vec![], vec![3]),
                (faulty_wt, vec![4], vec![]),
                (faulty_wt, vec![5], vec![]),
            ]
        );
    }

    #[test]
    fn fault_injecting_configs_fall_back_to_the_full_engine() {
        let w = workloads::grr();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let clean = CacheConfig::builder().size_bytes(1024).build().unwrap();
        let golden = replay(&trace, &faulty(7));
        assert!(
            golden.stats.faults.injected > 0,
            "the faulty config must actually inject"
        );
        for source in [
            Source::Recorded(&trace),
            Source::Live(w.as_ref(), Scale::Test),
        ] {
            let fanned = sweep(source, &[faulty(7), clean], 2, None).0.unwrap();
            assert_eq!(fanned[0], golden);
            assert_eq!(fanned[1], replay(&trace, &clean));
        }
    }

    #[test]
    #[should_panic(expected = "cannot model fault injection")]
    fn free_sink_rejects_fault_injection() {
        let _ = DataFreeSink::new(faulty(1));
    }

    #[test]
    fn a_tripped_token_aborts_the_drive() {
        let w = workloads::met();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let token = CancelToken::new();
        token.cancel();
        for source in [
            Source::Recorded(&trace),
            Source::Live(w.as_ref(), Scale::Test),
        ] {
            for threads in THREAD_COUNTS {
                for configs in [&[CacheConfig::default()][..], &[faulty(3)]] {
                    let (outcomes, _) = sweep(source, configs, threads, Some(&token));
                    assert!(outcomes.is_none(), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn sharded_sweep_is_identical_at_every_thread_count() {
        let w = workloads::liver();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let mut configs = vec![
            CacheConfig::default(),
            CacheConfig::builder()
                .write_hit(WriteHitPolicy::WriteThrough)
                .write_miss(WriteMissPolicy::WriteAround)
                .build()
                .unwrap(),
            faulty(11),
        ];
        for shift in 0..5 {
            configs.push(
                CacheConfig::builder()
                    .size_bytes(512 << shift)
                    .build()
                    .unwrap(),
            );
        }
        let serial: Vec<SimOutcome> = configs.iter().map(|c| replay(&trace, c)).collect();
        for threads in THREAD_COUNTS {
            let (outcomes, report) = simulate_many_sharded(&trace, &configs, threads, None);
            let outcomes = outcomes.expect("no token, no cancellation");
            assert_eq!(outcomes, serial, "{threads} threads");
            assert!(report.executed > 0);
            assert_eq!(report.shard_us.len() as u64, report.executed);
        }
    }

    #[test]
    fn sharded_sweep_honours_cancellation() {
        let w = workloads::met();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let token = CancelToken::new();
        token.cancel();
        let (outcomes, _) =
            simulate_many_sharded(&trace, &[CacheConfig::default()], 2, Some(&token));
        assert!(outcomes.is_none());
    }

    #[test]
    fn streamed_sweep_matches_per_config_live_runs() {
        // The streamed plan never materializes a recording, yet must
        // produce exactly what per-config live simulation produces —
        // including for fault-injecting configs on the full engine —
        // and runs no shards.
        let configs = [
            CacheConfig::default(),
            CacheConfig::builder()
                .write_hit(WriteHitPolicy::WriteThrough)
                .write_miss(WriteMissPolicy::WriteValidate)
                .build()
                .unwrap(),
            faulty(9),
        ];
        let w = workloads::grr();
        let live: Vec<SimOutcome> = configs
            .iter()
            .map(|c| simulate(w.as_ref(), Scale::Test, c))
            .collect();
        let quiet = CancelToken::new();
        for threads in THREAD_COUNTS {
            for cancel in [None, Some(&quiet)] {
                let (streamed, report) = sweep(
                    Source::Live(w.as_ref(), Scale::Test),
                    &configs,
                    threads,
                    cancel,
                );
                assert_eq!(streamed.unwrap(), live, "{threads} threads");
                assert_eq!((report.executed, report.stolen), (0, 0));
                assert!(report.shard_us.is_empty());
            }
        }
    }

    /// Test generator that cancels its own sweep's token partway
    /// through the reference stream, then keeps emitting — modelling a
    /// cancellation racing a still-running generator.
    struct CancelMidway {
        token: CancelToken,
        refs: usize,
        cancel_at: usize,
    }

    impl Workload for CancelMidway {
        fn name(&self) -> &'static str {
            "cancel-midway"
        }

        fn description(&self) -> &'static str {
            "emits refs and cancels its own token mid-stream"
        }

        fn run(&self, _scale: Scale, sink: &mut dyn TraceSink) -> TraceSummary {
            for i in 0..self.refs {
                if i == self.cancel_at {
                    self.token.cancel();
                }
                sink.record(MemRef {
                    before_insts: 1,
                    kind: AccessKind::Read,
                    addr: (i as u64) * 8 % (1 << 20),
                    size: 8,
                });
            }
            TraceSummary {
                instructions: self.refs as u64,
                reads: self.refs as u64,
                writes: 0,
            }
        }
    }

    #[test]
    fn streamed_sweep_cancelled_mid_stream_returns_none() {
        let token = CancelToken::new();
        let w = CancelMidway {
            token: token.clone(),
            refs: STREAM_CHUNK_REFS * 4,
            cancel_at: STREAM_CHUNK_REFS + STREAM_CHUNK_REFS / 2,
        };
        let source = Source::Live(&w, Scale::Test);
        let (outcome, _) = sweep(source, &[CacheConfig::default()], 1, Some(&token));
        assert!(outcome.is_none(), "a cancelled sweep must not settle");
    }

    #[test]
    fn cancellation_stops_feeding_a_stalled_consumer() {
        // A stalled sink (slow consumer) must not hold the generator
        // hostage: once the token fires, the tee drops every later
        // chunk instead of feeding it, so backpressure from the stall
        // is bounded to the chunk already in flight — never a deadlock.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let fed = Arc::new(AtomicU64::new(0));
        let mut bank = vec![BankSink::Probe {
            fed: Arc::clone(&fed),
            stall: std::time::Duration::from_millis(5),
            inner: Box::new(DataFreeSink::new(CacheConfig::default())),
        }];
        let token = CancelToken::new();
        let w = CancelMidway {
            token: token.clone(),
            refs: STREAM_CHUNK_REFS * 5,
            // Fire just after the first chunk flushes.
            cancel_at: STREAM_CHUNK_REFS + 1,
        };
        let outcomes = run_streamed(&w, Scale::Test, &mut bank, 1, Some(&token));
        assert!(outcomes.is_none(), "cancelled run must report cancellation");
        assert_eq!(
            fed.load(Ordering::SeqCst),
            1,
            "only the pre-cancellation chunk may reach a stalled sink"
        );
    }

    #[test]
    fn per_instruction_rates_are_finite_and_positive() {
        let out = simulate(
            workloads::ccom().as_ref(),
            Scale::Test,
            &CacheConfig::default(),
        );
        assert!(out.transactions_per_instruction() > 0.0);
        assert!(out.bytes_per_instruction() > out.transactions_per_instruction());
    }

    #[test]
    fn audited_runs_pass_and_match_unaudited_outcomes() {
        // The auditor observes, it never steers: an audited run must
        // produce the exact outcome of an unaudited one, across every
        // valid policy combination.
        let w = workloads::yacc();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        for hit in WriteHitPolicy::ALL {
            for miss in WriteMissPolicy::ALL {
                let Ok(config) = CacheConfig::builder()
                    .size_bytes(1024)
                    .write_hit(hit)
                    .write_miss(miss)
                    .build()
                else {
                    continue;
                };
                let audited = simulate_audited(Source::Recorded(&trace), &config)
                    .unwrap_or_else(|e| panic!("audit failed for {config}: {e}"));
                assert_eq!(replay(&trace, &config), audited);
            }
        }
    }

    #[test]
    fn audited_live_and_recorded_sources_agree() {
        let w = workloads::grr();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let config = CacheConfig::default();
        let live = simulate_audited(Source::Live(w.as_ref(), Scale::Test), &config).unwrap();
        let replayed = simulate_audited(Source::Recorded(&trace), &config).unwrap();
        assert_eq!(live, replayed);
    }

    #[test]
    fn simulate_many_audited_upholds_the_banked_equals_singly_law() {
        let w = workloads::liver();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let configs = [
            CacheConfig::default(),
            CacheConfig::builder()
                .size_bytes(1024)
                .write_hit(WriteHitPolicy::WriteThrough)
                .write_miss(WriteMissPolicy::WriteValidate)
                .build()
                .unwrap(),
        ];
        for source in [
            Source::Recorded(&trace),
            Source::Live(w.as_ref(), Scale::Test),
        ] {
            let banked = simulate_many_audited(source, &configs).unwrap();
            let unaudited = sweep(source, &configs, 1, None).0.unwrap();
            assert_eq!(banked, unaudited);
        }
    }
}
