//! The serving engine: admission, scheduling, workers, and settlement.
//!
//! The engine owes exactly one response per admitted request, no matter
//! what happens in between — a worker panic, a deadline expiry, a
//! client disconnect, or a coalesced batch abort. The invariant is
//! enforced with the [`Supervisor`]'s register/complete handshake: a
//! request is registered before it is admitted, and whichever side
//! settles it first (worker result or deadline watchdog) wins the
//! `complete` race; the loser sees `None` and stays silent.
//!
//! Workers pull from the [`AdmissionQueue`] highest-priority-first and
//! coalesce compatible waiting requests (same workload, fault-free
//! config) into one banked [`sweep`] over the workload's [`Source`],
//! spread over [`EngineConfig::sim_threads`] threads (results are
//! identical at every thread count). Results are memoized in the
//! crash-safe [`MemoStore`] keyed by
//! `(trace content hash, canonical config JSON)`.
//!
//! Graceful degradation: when the [`TraceStore`] cannot hold a
//! workload's trace even after LRU eviction, the source is a live
//! generator run, so the sweep streams one generator pass through the
//! whole batch and the responses are flagged `degraded` — slower, but
//! still correct (replay is byte-identical to live generation by
//! construction). Either way the sweep polls a token that trips once
//! every request in the pass has passed its deadline: a recorded sweep
//! then stops mid-replay; a live generator cannot be stopped, so it
//! runs to the end but feeds the bank nothing more.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cwp_chaos::{ChaosIo, IoHandle, NetFaultPlan};
use cwp_core::sim::{sweep, Source};
use cwp_core::store::TraceStore;
use cwp_core::supervise::{backoff_delay, CancelToken, Supervisor};
use cwp_mem::SplitMix64;
use cwp_obs::event::{Event, Probe};
use cwp_obs::json::Json;
use cwp_obs::jsonl::JsonlWriter;
use cwp_obs::metrics::{Counter, Gauge, Histogram, Registry, Span};
use cwp_trace::{workloads, Scale};

use crate::memo::MemoStore;
use crate::protocol::{config_key, Incoming, Reject, Response, ResultSummary, Timing};
use crate::queue::{AdmissionQueue, Entry, PRIORITY_LEVELS};

/// Tuning knobs for an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Workload scale served by this engine.
    pub scale: Scale,
    /// Worker thread count.
    pub workers: usize,
    /// Threads each worker's banked [`sweep`] may use; responses are
    /// identical at every value.
    pub sim_threads: usize,
    /// Admission queue capacity; pushes past this are shed.
    pub queue_capacity: usize,
    /// Per-client in-flight cap.
    pub per_client_inflight: usize,
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Base delay for the exponential retry backoff.
    pub backoff_base: Duration,
    /// Seed for backoff jitter and fault injection.
    pub seed: u64,
    /// Advisory byte budget for the trace store (LRU-evicted).
    pub trace_budget_bytes: u64,
    /// Maximum requests coalesced into one banked pass.
    pub max_batch: usize,
    /// When nonzero, deterministically panic the first attempt of
    /// roughly one in this many requests (chaos testing).
    pub fault_one_in: u64,
    /// Directory for the crash-safe memo journal (`None` = in-memory).
    pub memo_dir: Option<std::path::PathBuf>,
    /// Request-lifecycle event log (`None` = no log).
    pub events_path: Option<std::path::PathBuf>,
    /// Periodic atomic metrics snapshot file (`None` = no snapshots).
    pub metrics_path: Option<std::path::PathBuf>,
    /// How often the snapshot file is rewritten.
    pub metrics_period: Duration,
    /// Storage backend for every durable artifact (memo journal,
    /// metrics snapshot). The default is the real filesystem; chaos
    /// tests substitute a fault-injecting backend.
    pub io: IoHandle,
    /// Capacity of the `req_key` dedup window (settled entries are
    /// evicted FIFO past this). 0 disables idempotent retries.
    pub dedup_window: usize,
    /// Slow-client deadline: once a connection has held a *partial*
    /// request line for this long, the connection is shed with a typed
    /// `slow_client` rejection instead of pinning its reader. Idle
    /// connections (no partial line) are never shed. 0 disables.
    pub slow_line_ms: u64,
    /// Kernel-level write deadline per connection: a peer that stops
    /// reading long enough to stall our writer this long errors the
    /// connection out instead of pinning the writer thread.
    pub conn_write_timeout: Duration,
    /// When set, every accepted TCP connection is wrapped in a
    /// [`cwp_chaos::ChaosStream`] seeded per-connection from this
    /// plan — the server-side half of the hostile wire.
    pub net_plan: Option<NetFaultPlan>,
}

impl EngineConfig {
    /// A sensible default configuration at the given scale.
    pub fn new(scale: Scale) -> Self {
        EngineConfig {
            scale,
            workers: 4,
            sim_threads: 1,
            queue_capacity: 256,
            per_client_inflight: 64,
            max_attempts: 3,
            backoff_base: Duration::from_millis(5),
            seed: 0x5e12_c0de,
            trace_budget_bytes: 512 * 1024 * 1024,
            max_batch: 32,
            fault_one_in: 0,
            memo_dir: None,
            events_path: None,
            metrics_path: None,
            metrics_period: Duration::from_secs(1),
            io: IoHandle::real(),
            dedup_window: 4096,
            slow_line_ms: 5000,
            conn_write_timeout: Duration::from_secs(30),
            net_plan: None,
        }
    }
}

/// A monotonic snapshot of the engine's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests shed with a typed `overloaded` rejection.
    pub shed: u64,
    /// Requests answered with a result.
    pub served: u64,
    /// Served requests answered from the memo store.
    pub memo_hits: u64,
    /// Served requests that rode a coalesced banked pass.
    pub coalesced: u64,
    /// Served requests computed via degraded live generation.
    pub degraded: u64,
    /// Requests answered `deadline_exceeded`.
    pub deadline_expired: u64,
    /// Worker panics caught (injected or real).
    pub panics: u64,
    /// Attempts re-queued after a backoff.
    pub retries: u64,
    /// Requests answered `failed` after exhausting attempts.
    pub failed: u64,
    /// `req_key` retries settled from the dedup window (replayed or
    /// joined) instead of being simulated again.
    pub dedup_hits: u64,
    /// Connections that ended abnormally: a transport error, or a
    /// close with requests still in flight.
    pub conn_reset: u64,
    /// Connections shed by the slow-client watchdog.
    pub conn_slow_shed: u64,
}

/// The engine's instrument set, registered by name in a
/// [`Registry`] so one `registry.snapshot()` renders them all. The
/// typed fields keep the hot paths free of name lookups.
struct ServeMetrics {
    registry: Registry,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    served: Arc<Counter>,
    memo_hits: Arc<Counter>,
    memo_misses: Arc<Counter>,
    coalesced: Arc<Counter>,
    degraded: Arc<Counter>,
    deadline_expired: Arc<Counter>,
    panics: Arc<Counter>,
    retries: Arc<Counter>,
    failed: Arc<Counter>,
    memo_corrupt_lines: Arc<Counter>,
    shards_executed: Arc<Counter>,
    shards_stolen: Arc<Counter>,
    dedup_hits: Arc<Counter>,
    conn_opened: Arc<Counter>,
    conn_closed: Arc<Counter>,
    conn_reset: Arc<Counter>,
    conn_slow_shed: Arc<Counter>,
    inflight: Arc<Gauge>,
    stall_us: Arc<Histogram>,
    queue_us: Arc<Histogram>,
    prep_us: Arc<Histogram>,
    sim_us: Arc<Histogram>,
    memo_us: Arc<Histogram>,
    shard_us: Arc<Histogram>,
    total_us: Arc<Histogram>,
}

impl ServeMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        ServeMetrics {
            admitted: registry.counter("admitted"),
            shed: registry.counter("shed"),
            served: registry.counter("served"),
            memo_hits: registry.counter("memo_hits"),
            memo_misses: registry.counter("memo_misses"),
            coalesced: registry.counter("coalesced"),
            degraded: registry.counter("degraded"),
            deadline_expired: registry.counter("deadline_expired"),
            panics: registry.counter("panics"),
            retries: registry.counter("retries"),
            failed: registry.counter("failed"),
            memo_corrupt_lines: registry.counter("memo_corrupt_lines"),
            shards_executed: registry.counter("shards_executed"),
            shards_stolen: registry.counter("shards_stolen"),
            dedup_hits: registry.counter("dedup_hits"),
            conn_opened: registry.counter("conn_opened"),
            conn_closed: registry.counter("conn_closed"),
            conn_reset: registry.counter("conn_reset"),
            conn_slow_shed: registry.counter("conn_slow_shed"),
            inflight: registry.gauge("inflight"),
            stall_us: registry.histogram("stall_us"),
            queue_us: registry.histogram("queue_us"),
            prep_us: registry.histogram("prep_us"),
            sim_us: registry.histogram("sim_us"),
            memo_us: registry.histogram("memo_us"),
            shard_us: registry.histogram("shard_us"),
            total_us: registry.histogram("total_us"),
            registry,
        }
    }
}

/// Supervisor payload: a deadline armed for an admitted request, a
/// retry entry waiting out its backoff, or a connection holding a
/// partial line against the slow-client deadline.
#[derive(Clone)]
enum SupMsg {
    Deadline {
        client: u64,
        id: u64,
        deadline_ms: u64,
        cancel: CancelToken,
        req_key: Option<String>,
    },
    Retry(Box<Entry>),
    /// A connection started a request line and has not finished it.
    /// If the deadline fires, the connection is a slow-loris: it is
    /// answered with a typed rejection and its read half is shut down.
    Conn {
        client: u64,
        stalled_ms: u64,
        kill: Arc<dyn Fn() + Send + Sync>,
    },
}

/// Terminal state of a `req_key` while it sits in the dedup window.
enum DedupState {
    /// The primary request is admitted but not settled; retries of the
    /// same key queue up here and are answered at settlement.
    InFlight { joiners: Vec<(u64, u64)> },
    /// The primary settled successfully; retries replay this result.
    Settled {
        result: ResultSummary,
        degraded: bool,
        trace: u64,
    },
}

/// The bounded idempotency window: `req_key` → settlement state.
/// Settled entries are evicted FIFO past `capacity`; in-flight entries
/// are never evicted (they are bounded by the admission queue).
struct DedupWindow {
    capacity: usize,
    entries: HashMap<String, DedupState>,
    settled_order: VecDeque<String>,
}

impl DedupWindow {
    fn new(capacity: usize) -> Self {
        DedupWindow {
            capacity,
            entries: HashMap::new(),
            settled_order: VecDeque::new(),
        }
    }
}

struct Shared {
    config: EngineConfig,
    queue: AdmissionQueue,
    store: TraceStore,
    memo: MemoStore,
    /// Workload name -> trace content hash, learned on first recording.
    hashes: Mutex<HashMap<String, u64>>,
    clients: Mutex<HashMap<u64, Sender<Response>>>,
    dedup: Mutex<DedupWindow>,
    supervisor: OnceLock<Arc<Supervisor<SupMsg>>>,
    metrics: ServeMetrics,
    seq: AtomicU64,
    client_seq: AtomicU64,
    events: Option<Mutex<JsonlWriter<std::fs::File>>>,
    /// Set on shutdown; stops the snapshot thread.
    stopping: AtomicBool,
    /// Set when a graceful drain begins: new simulation requests are
    /// shed with a retry hint instead of admitted, and caught panics
    /// fail immediately instead of scheduling a backoff retry.
    draining: AtomicBool,
    /// Set by a `shutdown` control request; the process's supervision
    /// loop polls it and runs the drain.
    drain_requested: AtomicBool,
}

/// What a graceful [`Engine::drain`] did: how deep the queue was when
/// the drain began, how many waiting requests were shed with retry
/// hints, and how many in-flight requests completed during the drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Queue depth when the drain began.
    pub queued: u32,
    /// Waiting requests shed with `overloaded` + retry hint.
    pub shed: u32,
    /// Requests served to completion during the drain.
    pub completed: u32,
}

/// The serving engine. See the module docs for the design.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    snapshotter: Mutex<Option<JoinHandle<()>>>,
}

impl Engine {
    /// Builds the engine and starts its worker pool and watchdog.
    pub fn start(config: EngineConfig) -> std::io::Result<Engine> {
        let memo = match &config.memo_dir {
            Some(dir) => MemoStore::open_with_io(dir, config.io.arc())?,
            None => MemoStore::ephemeral(),
        };
        let events = match &config.events_path {
            Some(path) => {
                let file = std::fs::File::create(path)?;
                Some(Mutex::new(JsonlWriter::new(file, None)))
            }
            None => None,
        };
        let metrics = ServeMetrics::new();
        metrics.memo_corrupt_lines.add(memo.corrupt_lines());
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_capacity, config.per_client_inflight),
            store: TraceStore::with_budget(config.scale, config.trace_budget_bytes),
            memo,
            hashes: Mutex::new(HashMap::new()),
            clients: Mutex::new(HashMap::new()),
            dedup: Mutex::new(DedupWindow::new(config.dedup_window)),
            supervisor: OnceLock::new(),
            metrics,
            seq: AtomicU64::new(1),
            client_seq: AtomicU64::new(1),
            events,
            stopping: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            config,
        });
        let expired = Arc::downgrade(&shared);
        let due = Arc::downgrade(&shared);
        let supervisor = Arc::new(Supervisor::spawn(
            "cwp-serve-watchdog",
            move |seq, msg| {
                if let Some(shared) = Weak::upgrade(&expired) {
                    shared.on_deadline(seq, msg);
                }
            },
            move |msg| {
                if let Some(shared) = Weak::upgrade(&due) {
                    shared.on_release(msg);
                }
            },
        ));
        shared
            .supervisor
            .set(supervisor)
            .map_err(|_| ())
            .expect("supervisor set once");
        let workers = (0..shared.config.workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cwp-serve-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let snapshotter = shared.config.metrics_path.clone().map(|path| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cwp-serve-metrics".to_string())
                .spawn(move || snapshot_loop(&shared, &path))
                .expect("spawn snapshotter")
        });
        Ok(Engine {
            shared,
            workers: Mutex::new(workers),
            snapshotter: Mutex::new(snapshotter),
        })
    }

    /// Registers a new client; responses for it arrive on the returned
    /// channel. The id namespaces the client's request ids and its
    /// in-flight cap.
    pub fn attach_client(&self) -> (u64, Receiver<Response>) {
        let client = self.shared.client_seq.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        self.shared
            .clients
            .lock()
            .expect("clients lock")
            .insert(client, tx);
        (client, rx)
    }

    /// Unregisters a client. Responses still in flight for it are
    /// dropped (the connection is gone); its queue debt is still paid
    /// so the in-flight accounting stays balanced.
    pub fn detach_client(&self, client: u64) {
        self.shared
            .clients
            .lock()
            .expect("clients lock")
            .remove(&client);
    }

    /// Submits one raw request line on behalf of `client`. Every
    /// outcome — parse failure, shed, or admission — is reported
    /// through the client's response channel; this method never panics
    /// on malformed input.
    pub fn submit(&self, client: u64, line: &str) {
        self.shared.submit(client, line);
    }

    /// A snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        self.shared.stats()
    }

    /// Current admission queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// One coherent JSON snapshot of the live telemetry: registry
    /// counters/gauges/histograms plus queue, memo, and trace-store
    /// state read at snapshot time. This is the object served to
    /// `metrics` requests and written to the periodic snapshot file.
    pub fn metrics_snapshot(&self) -> Json {
        self.shared.metrics_snapshot()
    }

    /// The server-side wire chaos plan, if one was configured.
    pub fn net_plan(&self) -> Option<NetFaultPlan> {
        self.shared.config.net_plan
    }

    /// The kernel write deadline the listener applies per connection.
    pub fn conn_write_timeout(&self) -> Duration {
        self.shared.config.conn_write_timeout
    }

    /// The slow-client deadline in ms (0 = disabled).
    pub fn slow_line_ms(&self) -> u64 {
        self.shared.config.slow_line_ms
    }

    /// Allocates a supervisor key for one connection's slow-client
    /// guard. Keys share the request sequence namespace, so they can
    /// never collide with an armed request deadline.
    pub fn conn_token(&self) -> u64 {
        self.shared.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Arms (or re-arms) the slow-client guard: if the connection is
    /// still holding a partial line when the deadline fires, `kill` is
    /// invoked to shut its read half down and the client is answered
    /// with a typed `slow_client` rejection. No-op when
    /// [`EngineConfig::slow_line_ms`] is 0.
    pub fn conn_arm(&self, token: u64, client: u64, kill: Arc<dyn Fn() + Send + Sync>) {
        let stalled_ms = self.shared.config.slow_line_ms;
        if stalled_ms == 0 {
            return;
        }
        self.shared.sup().register(
            token,
            Some(Instant::now() + Duration::from_millis(stalled_ms)),
            SupMsg::Conn {
                client,
                stalled_ms,
                kill,
            },
        );
    }

    /// Disarms the slow-client guard (the partial line completed).
    /// Returns `false` if the guard already fired.
    pub fn conn_disarm(&self, token: u64) -> bool {
        self.shared.sup().complete(token).is_some()
    }

    /// Counts a newly accepted connection.
    pub fn note_conn_opened(&self) {
        self.shared.metrics.conn_opened.inc();
    }

    /// Counts a finished connection. `reset` marks an abnormal end: a
    /// transport error, or a close that abandoned in-flight requests.
    pub fn note_conn_closed(&self, reset: bool) {
        self.shared.metrics.conn_closed.inc();
        if reset {
            self.shared.metrics.conn_reset.inc();
        }
    }

    /// Records how long a connection sat mid-line before the line
    /// completed (the per-connection `stall_us` histogram).
    pub fn note_line_stall(&self, stall: Duration) {
        self.shared.metrics.stall_us.record_duration(stall);
    }

    /// In-flight requests currently owed to `client`.
    pub fn client_inflight(&self, client: u64) -> usize {
        self.shared.queue.client_inflight(client)
    }

    /// Sends a typed rejection to `client` without going through line
    /// parsing — the reader uses this for faults it detects at the
    /// framing layer (an over-cap line consumed and discarded).
    pub fn reject(&self, client: u64, id: Option<u64>, reject: Reject) {
        self.shared.respond(client, Response::Error { id, reject });
    }

    /// `true` once a wire `shutdown` request has asked for a graceful
    /// drain. The process's supervision loop polls this and calls
    /// [`Engine::drain`].
    pub fn drain_requested(&self) -> bool {
        self.shared.drain_requested.load(Ordering::SeqCst)
    }

    /// Gracefully drains the engine: stops admitting (new requests are
    /// shed with a retry hint), sheds every queued-but-unstarted
    /// request the same way, lets in-flight work complete, flushes the
    /// memo journal, writes the final metrics snapshot, and joins all
    /// threads. Idempotent; concurrent callers race on one flag and
    /// the loser returns immediately (the winner's join still
    /// completes the drain).
    ///
    /// Every response acknowledged before the drain stays durable: the
    /// memo flush rewrites the journal from the settled in-memory
    /// state, retrying around injected transient faults.
    pub fn drain(&self) -> DrainStats {
        let shared = &self.shared;
        if shared.draining.swap(true, Ordering::SeqCst) {
            return DrainStats::default();
        }
        let queued = shared.queue.depth();
        let served_before = shared.metrics.served.value();
        shared.emit(Event::DrainBegin {
            queued: queued.min(u32::MAX as usize) as u32,
        });

        // Shed everything still waiting in the queue. Entries whose
        // deadline already fired were answered by the watchdog; the
        // `complete` race keeps us silent for those.
        let waiting = shared.queue.drain_matching(usize::MAX, |_| true);
        let mut shed = 0u32;
        for entry in waiting {
            if shared.sup().complete(entry.seq).is_none() {
                continue;
            }
            shed += 1;
            let retry_after_ms = shared.queue.shed_hint();
            let reject = Reject::Overloaded { retry_after_ms };
            shared.dedup_drop(&entry.request.req_key, &reject);
            shared.metrics.shed.inc();
            shared.metrics.inflight.sub(1);
            shared.emit(Event::RequestShed {
                request: entry.seq,
                retry_after_ms,
            });
            shared.respond(
                entry.client,
                Response::Error {
                    id: Some(entry.request.id),
                    reject,
                },
            );
            shared.queue.done(entry.client);
        }

        // In-flight work: close the queue so workers exit after their
        // current batch, then wait for them.
        shared.queue.close();
        let workers: Vec<_> = self
            .workers
            .lock()
            .expect("workers lock")
            .drain(..)
            .collect();
        for worker in workers {
            let _ = worker.join();
        }

        // A backoff retry scheduled just before the drain began may
        // re-enter the queue after the workers exited; settle those now
        // rather than leaving their clients waiting forever.
        for entry in shared.queue.drain_matching(usize::MAX, |_| true) {
            shared.settle_failed(
                &entry,
                "server drained before a scheduled retry could run".to_string(),
            );
        }

        // Flush durable state. The journal is already consistent (every
        // put rewrote it atomically); the flush re-commits it and is
        // retried so a transient injected fault mid-drain cannot lose
        // acknowledged results.
        let mut flushed = Ok(());
        for _ in 0..3 {
            flushed = shared.memo.flush();
            if flushed.is_ok() {
                break;
            }
        }
        if let Err(e) = flushed {
            cwp_obs::obs_warn!("memo flush on drain failed: {e}");
        }

        let completed = shared
            .metrics
            .served
            .value()
            .saturating_sub(served_before)
            .min(u64::from(u32::MAX)) as u32;
        shared.emit(Event::DrainDone { shed, completed });

        // Final metrics snapshot (the snapshot thread writes one on
        // its way out), then the watchdog.
        shared.stopping.store(true, Ordering::Relaxed);
        if let Some(snapshotter) = self.snapshotter.lock().expect("snapshotter lock").take() {
            let _ = snapshotter.join();
        }
        if let Some(sup) = shared.supervisor.get() {
            sup.shutdown();
        }
        DrainStats {
            queued: queued.min(u32::MAX as usize) as u32,
            shed,
            completed,
        }
    }

    /// Stops accepting work, drains the queue, and joins the workers.
    pub fn shutdown(&self) {
        self.shared.stopping.store(true, Ordering::Relaxed);
        if let Some(snapshotter) = self.snapshotter.lock().expect("snapshotter lock").take() {
            let _ = snapshotter.join();
        }
        self.shared.queue.close();
        let workers: Vec<_> = self
            .workers
            .lock()
            .expect("workers lock")
            .drain(..)
            .collect();
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(sup) = self.shared.supervisor.get() {
            sup.shutdown();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    fn sup(&self) -> &Arc<Supervisor<SupMsg>> {
        self.supervisor.get().expect("supervisor initialized")
    }

    fn emit(&self, event: Event) {
        if let Some(writer) = &self.events {
            writer.lock().expect("events lock").on_event(&event);
        }
    }

    fn respond(&self, client: u64, response: Response) {
        let sender = self
            .clients
            .lock()
            .expect("clients lock")
            .get(&client)
            .cloned();
        if let Some(sender) = sender {
            // A send error means the client detached between lookup and
            // send; the response is dropped on the floor by design.
            let _ = sender.send(response);
        }
    }

    /// The response replayed to a dedup hit: the settled result with
    /// the `dedup` flag raised and the primary's causal trace id, so a
    /// retry is visibly a replay, not a second service.
    fn dedup_response(id: u64, result: ResultSummary, degraded: bool, trace: u64) -> Response {
        Response::Ok {
            id,
            result,
            memo_hit: false,
            degraded,
            coalesced: false,
            dedup: true,
            wall_ms: 0,
            timing: Timing {
                trace,
                stages: Vec::new(),
            },
        }
    }

    /// Consults the dedup window for a keyed submission. Returns
    /// `true` when the request was settled here (replayed or joined)
    /// and must NOT be admitted; `false` when the key is fresh and the
    /// caller owns it (an `InFlight` entry has been recorded).
    fn dedup_admit_or_settle(&self, key: &str, client: u64, id: u64) -> bool {
        let mut window = self.dedup.lock().unwrap_or_else(|e| e.into_inner());
        if window.capacity == 0 {
            return false;
        }
        match window.entries.get_mut(key) {
            Some(DedupState::InFlight { joiners }) => {
                joiners.push((client, id));
                drop(window);
                self.metrics.dedup_hits.inc();
                true
            }
            Some(DedupState::Settled {
                result,
                degraded,
                trace,
            }) => {
                let response = Shared::dedup_response(id, result.clone(), *degraded, *trace);
                drop(window);
                self.metrics.dedup_hits.inc();
                self.respond(client, response);
                true
            }
            None => {
                window.entries.insert(
                    key.to_string(),
                    DedupState::InFlight {
                        joiners: Vec::new(),
                    },
                );
                false
            }
        }
    }

    /// Marks a keyed request settled-ok: joiners are answered with the
    /// replayed result, the key transitions to `Settled`, and old
    /// settled keys past the window capacity are evicted FIFO.
    fn dedup_settle_ok(
        &self,
        req_key: &Option<String>,
        result: &ResultSummary,
        degraded: bool,
        trace: u64,
    ) {
        let Some(key) = req_key else { return };
        let mut window = self.dedup.lock().unwrap_or_else(|e| e.into_inner());
        if window.capacity == 0 {
            return;
        }
        let joiners = match window.entries.insert(
            key.clone(),
            DedupState::Settled {
                result: result.clone(),
                degraded,
                trace,
            },
        ) {
            Some(DedupState::InFlight { joiners }) => joiners,
            // A settled key being re-settled cannot happen (one primary
            // per key), but stay safe if it ever does.
            _ => Vec::new(),
        };
        window.settled_order.push_back(key.clone());
        while window.entries.len() > window.capacity {
            match window.settled_order.pop_front() {
                Some(old) => {
                    if matches!(window.entries.get(&old), Some(DedupState::Settled { .. })) {
                        window.entries.remove(&old);
                    }
                }
                None => break, // only in-flight entries left; never evict those
            }
        }
        drop(window);
        for (client, id) in joiners {
            self.respond(
                client,
                Shared::dedup_response(id, result.clone(), degraded, trace),
            );
        }
    }

    /// Drops a keyed request from the window without settling it —
    /// the shed / failed / deadline paths, where a retry SHOULD run
    /// again — and relays the same rejection to any joiners.
    fn dedup_drop(&self, req_key: &Option<String>, reject: &Reject) {
        let Some(key) = req_key else { return };
        let mut window = self.dedup.lock().unwrap_or_else(|e| e.into_inner());
        let joiners = match window.entries.remove(key) {
            Some(DedupState::InFlight { joiners }) => joiners,
            Some(settled) => {
                // Never drop a settled result; put it back.
                window.entries.insert(key.clone(), settled);
                Vec::new()
            }
            None => Vec::new(),
        };
        drop(window);
        for (client, id) in joiners {
            self.respond(
                client,
                Response::Error {
                    id: Some(id),
                    reject: reject.clone(),
                },
            );
        }
    }

    fn submit(&self, client: u64, line: &str) {
        let request = match Incoming::from_line(line) {
            Err((id, reject)) => {
                self.respond(client, Response::Error { id, reject });
                return;
            }
            // Metrics requests are read-only and answered inline,
            // bypassing admission: telemetry must stay reachable
            // precisely when the queue is full.
            Ok(Incoming::Metrics { id }) => {
                self.respond(
                    client,
                    Response::Metrics {
                        id,
                        snapshot: self.metrics_snapshot(),
                    },
                );
                return;
            }
            // A shutdown request is acked immediately; the process's
            // supervision loop observes the flag and runs the drain.
            Ok(Incoming::Shutdown { id }) => {
                self.drain_requested.store(true, Ordering::SeqCst);
                self.respond(client, Response::Draining { id });
                return;
            }
            Ok(Incoming::Sim(request)) => request,
        };
        // A draining engine admits nothing: every new simulation
        // request is shed with a retry hint so clients fail over.
        if self.draining.load(Ordering::SeqCst) {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let retry_after_ms = self.queue.shed_hint();
            self.metrics.shed.inc();
            self.emit(Event::RequestShed {
                request: seq,
                retry_after_ms,
            });
            self.respond(
                client,
                Response::Error {
                    id: Some(request.id),
                    reject: Reject::Overloaded { retry_after_ms },
                },
            );
            return;
        }
        if workloads::by_name(&request.workload).is_none() {
            let detail = format!("unknown workload {:?}", request.workload);
            self.respond(
                client,
                Response::Error {
                    id: Some(request.id),
                    reject: Reject::BadRequest { detail },
                },
            );
            return;
        }
        // Idempotency: a keyed retry whose primary is in the dedup
        // window is settled from the window — joined if in flight,
        // replayed if settled — and never admitted (or simulated)
        // twice.
        if let Some(key) = request.req_key.clone() {
            if self.dedup_admit_or_settle(&key, client, request.id) {
                return;
            }
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        let deadline_ms = request.deadline_ms.unwrap_or(0);
        let deadline = request
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let id = request.id;
        let req_key = request.req_key.clone();
        let entry = Entry {
            seq,
            client,
            request,
            attempt: 1,
            span: Span::begin(seq),
            cancel: cancel.clone(),
        };
        // Register before admitting so a fast worker can never complete
        // an unregistered request (which would eat its response).
        self.sup().register(
            seq,
            deadline,
            SupMsg::Deadline {
                client,
                id,
                deadline_ms,
                cancel,
                req_key: req_key.clone(),
            },
        );
        match self.queue.admit(entry) {
            Ok(depth) => {
                self.metrics.admitted.inc();
                self.metrics.inflight.add(1);
                self.emit(Event::RequestAdmitted {
                    request: seq,
                    depth: depth.min(u32::MAX as usize) as u32,
                });
            }
            Err(shed) => {
                self.sup().complete(seq); // roll back the registration
                let retry_after_ms = shed.retry_after_ms();
                // A shed request never ran: clear its dedup claim so
                // the client's retry is admitted fresh.
                self.dedup_drop(&req_key, &Reject::Overloaded { retry_after_ms });
                self.metrics.shed.inc();
                self.emit(Event::RequestShed {
                    request: seq,
                    retry_after_ms,
                });
                self.respond(
                    client,
                    Response::Error {
                        id: Some(id),
                        reject: Reject::Overloaded { retry_after_ms },
                    },
                );
            }
        }
    }

    /// Deadline watchdog callback: first settle wins. If the worker
    /// already completed the request this never fires (the supervisor
    /// dropped the registration); if it fires, the worker's eventual
    /// `complete` returns `None` and the worker stays silent.
    fn on_deadline(&self, seq: u64, msg: SupMsg) {
        let (client, id, deadline_ms, cancel, req_key) = match msg {
            SupMsg::Deadline {
                client,
                id,
                deadline_ms,
                cancel,
                req_key,
            } => (client, id, deadline_ms, cancel, req_key),
            // A connection held a partial line past the slow-client
            // deadline: shed it with a typed rejection and shut its
            // read half down so the reader thread is freed. No queue
            // debt — nothing was admitted.
            SupMsg::Conn {
                client,
                stalled_ms,
                kill,
            } => {
                self.metrics.conn_slow_shed.inc();
                // The shed stall is a (terminal) sample of the same
                // distribution the recovered stalls feed.
                self.metrics
                    .stall_us
                    .record_duration(Duration::from_millis(stalled_ms));
                self.respond(
                    client,
                    Response::Error {
                        id: None,
                        reject: Reject::SlowClient { stalled_ms },
                    },
                );
                kill();
                return;
            }
            SupMsg::Retry(_) => return, // retries are never registered with a deadline
        };
        cancel.cancel();
        let reject = Reject::DeadlineExceeded { deadline_ms };
        // The primary expired, so its retry should be allowed to run
        // afresh — drop the dedup claim and relay to any joiners.
        self.dedup_drop(&req_key, &reject);
        self.metrics.deadline_expired.inc();
        self.metrics.inflight.sub(1);
        self.emit(Event::RequestDeadline {
            request: seq,
            deadline_ms,
        });
        self.respond(
            client,
            Response::Error {
                id: Some(id),
                reject,
            },
        );
        self.queue.done(client);
    }

    /// Backoff-release callback: the retry waited out its delay.
    fn on_release(&self, msg: SupMsg) {
        if let SupMsg::Retry(entry) = msg {
            self.queue.requeue(*entry);
        }
    }

    /// Settles an entry with a successful result. Returns silently if
    /// the deadline watchdog got there first. `coalesced_batch` is the
    /// size of the banked pass that actually served the entry (0 or 1
    /// = served alone); the `req_coalesced` event is emitted here, at
    /// settlement, so the event stream and the `coalesced` counter
    /// agree exactly even when batch members peel off to memo hits or
    /// retries.
    fn settle_ok(
        &self,
        entry: &Entry,
        result: ResultSummary,
        memo_hit: bool,
        degraded: bool,
        coalesced_batch: usize,
    ) {
        if self.sup().complete(entry.seq).is_none() {
            return; // deadline already answered
        }
        let coalesced = coalesced_batch > 1;
        self.metrics.served.inc();
        self.metrics.inflight.sub(1);
        if memo_hit {
            self.metrics.memo_hits.inc();
        }
        if degraded {
            self.metrics.degraded.inc();
            self.emit(Event::RequestDegraded { request: entry.seq });
        }
        if coalesced {
            self.metrics.coalesced.inc();
            self.emit(Event::RequestCoalesced {
                request: entry.seq,
                batch: coalesced_batch.min(u32::MAX as usize) as u32,
            });
        }
        let total = entry.span.total();
        self.metrics.total_us.record_duration(total);
        let wall_ms = total.as_millis().min(u128::from(u64::MAX)) as u64;
        // Settle the dedup window before responding: a retry that
        // races the response must find `Settled`, not a vanished key.
        self.dedup_settle_ok(&entry.request.req_key, &result, degraded, entry.seq);
        self.respond(
            entry.client,
            Response::Ok {
                id: entry.request.id,
                result,
                memo_hit,
                degraded,
                coalesced,
                dedup: false,
                wall_ms,
                timing: Timing {
                    trace: entry.seq,
                    stages: entry.span.breakdown_us(),
                },
            },
        );
        self.queue.done(entry.client);
    }

    /// Settles an entry with a terminal failure.
    fn settle_failed(&self, entry: &Entry, detail: String) {
        if self.sup().complete(entry.seq).is_none() {
            return;
        }
        let reject = Reject::Failed { detail };
        // A failed request leaves the window so a retry runs afresh.
        self.dedup_drop(&entry.request.req_key, &reject);
        self.metrics.failed.inc();
        self.metrics.inflight.sub(1);
        self.respond(
            entry.client,
            Response::Error {
                id: Some(entry.request.id),
                reject,
            },
        );
        self.queue.done(entry.client);
    }

    /// True when this attempt should panic by fault injection.
    fn injected_fault(&self, entry: &Entry) -> bool {
        self.config.fault_one_in > 0
            && entry.attempt == 1
            && SplitMix64::seed_from_u64(self.config.seed ^ entry.seq)
                .below(self.config.fault_one_in)
                == 0
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            admitted: self.metrics.admitted.value(),
            shed: self.metrics.shed.value(),
            served: self.metrics.served.value(),
            memo_hits: self.metrics.memo_hits.value(),
            coalesced: self.metrics.coalesced.value(),
            degraded: self.metrics.degraded.value(),
            deadline_expired: self.metrics.deadline_expired.value(),
            panics: self.metrics.panics.value(),
            retries: self.metrics.retries.value(),
            failed: self.metrics.failed.value(),
            dedup_hits: self.metrics.dedup_hits.value(),
            conn_reset: self.metrics.conn_reset.value(),
            conn_slow_shed: self.metrics.conn_slow_shed.value(),
        }
    }

    /// Renders the registry snapshot plus live queue / memo /
    /// trace-store state as one JSON object.
    fn metrics_snapshot(&self) -> Json {
        let mut snapshot = self.metrics.registry.snapshot();
        let depths = self.queue.depths();
        let (inflight_clients, inflight_total) = self.queue.inflight();
        let queue = {
            let mut pairs: Vec<(String, Json)> = (0..PRIORITY_LEVELS)
                .map(|level| (format!("depth_p{level}"), Json::UInt(depths[level] as u64)))
                .collect();
            pairs.push(("depth".to_string(), Json::UInt(self.queue.depth() as u64)));
            pairs.push((
                "inflight_clients".to_string(),
                Json::UInt(inflight_clients as u64),
            ));
            pairs.push((
                "inflight_total".to_string(),
                Json::UInt(inflight_total as u64),
            ));
            Json::Obj(pairs)
        };
        let memo = Json::obj([("entries", Json::UInt(self.memo.len() as u64))]);
        let store = Json::obj([
            ("bytes", Json::UInt(self.store.used_bytes())),
            ("recordings", Json::UInt(self.store.recordings())),
            ("evictions", Json::UInt(self.store.evictions())),
            ("hits", Json::UInt(self.store.hits())),
            ("misses", Json::UInt(self.store.misses())),
        ]);
        if let Json::Obj(pairs) = &mut snapshot {
            pairs.push(("queue".to_string(), queue));
            pairs.push(("memo".to_string(), memo));
            pairs.push(("store".to_string(), store));
        }
        snapshot
    }
}

/// Rewrites the snapshot file every `metrics_period` with a
/// write-then-rename so readers never observe a torn snapshot. A final
/// snapshot is written on shutdown.
fn snapshot_loop(shared: &Shared, path: &std::path::Path) {
    let tick = Duration::from_millis(25);
    let io = &shared.config.io;
    loop {
        let mut waited = Duration::ZERO;
        while waited < shared.config.metrics_period {
            if shared.stopping.load(Ordering::Relaxed) {
                // The final snapshot must survive injected faults: it
                // is what harnesses reconcile against, so retry a few
                // times before giving up.
                let mut wrote = Ok(());
                for _ in 0..3 {
                    wrote = write_snapshot_atomic(io, path, &shared.metrics_snapshot());
                    if wrote.is_ok() {
                        break;
                    }
                }
                if let Err(e) = wrote {
                    cwp_obs::obs_warn!("final metrics snapshot write failed: {e}");
                }
                return;
            }
            std::thread::sleep(tick);
            waited += tick;
        }
        if let Err(e) = write_snapshot_atomic(io, path, &shared.metrics_snapshot()) {
            cwp_obs::obs_warn!("metrics snapshot write failed: {e}");
        }
    }
}

/// Atomically replaces `path` with the rendered snapshot via the
/// write-then-rename helper, so readers (and crashes) never observe a
/// torn snapshot.
fn write_snapshot_atomic(
    io: &dyn ChaosIo,
    path: &std::path::Path,
    snapshot: &Json,
) -> std::io::Result<()> {
    let mut line = String::new();
    snapshot.write(&mut line);
    line.push('\n');
    cwp_chaos::write_atomic(io, path, line.as_bytes())
}

fn worker_loop(shared: &Shared) {
    while let Some(mut leader) = shared.queue.pop() {
        let waited = leader.span.mark("queue");
        shared.metrics.queue_us.record_duration(waited);
        if leader.cancel.is_cancelled() {
            // Deadline fired while queued; the watchdog already
            // responded and paid the queue debt.
            shared.sup().complete(leader.seq);
            continue;
        }
        serve_batch(shared, leader);
    }
}

/// Serves one popped entry, coalescing compatible queued requests into
/// the same banked pass when possible.
fn serve_batch(shared: &Shared, leader: Entry) {
    let name = leader.request.workload.clone();
    let mut batch = vec![leader];
    let fault_free = batch[0].request.config.fault_rate_ppm() == 0;
    if fault_free && shared.config.max_batch > 1 {
        let followers = shared
            .queue
            .drain_matching(shared.config.max_batch - 1, |e| {
                e.request.workload == name
                    && e.request.config.fault_rate_ppm() == 0
                    && !e.cancel.is_cancelled()
            });
        for mut follower in followers {
            let waited = follower.span.mark("queue");
            shared.metrics.queue_us.record_duration(waited);
            batch.push(follower);
        }
    }
    let workload = workloads::by_name(&name).expect("validated at submit");
    let trace = shared.store.get_or_record(workload.as_ref());
    let degraded = trace.is_none();
    let trace_hash = match &trace {
        Some(trace) => {
            let hash = trace.content_hash();
            shared
                .hashes
                .lock()
                .expect("hashes lock")
                .insert(name.clone(), hash);
            Some(hash)
        }
        // The trace alone exceeds the store budget: fall back to live
        // generation. The hash is still known if some earlier, roomier
        // moment recorded this workload; otherwise memoization is
        // skipped for these requests.
        None => shared
            .hashes
            .lock()
            .expect("hashes lock")
            .get(&name)
            .copied(),
    };

    // Memo pass: answer hits immediately, collect misses for the sim.
    // The trace fetch above is billed to every batch member as `prep`
    // (on a cold store it records the whole trace).
    let mut misses: Vec<(Entry, String)> = Vec::new();
    for mut entry in batch {
        let prep = entry.span.mark("prep");
        shared.metrics.prep_us.record_duration(prep);
        let key = config_key(&entry.request.config);
        let hit = trace_hash.and_then(|hash| shared.memo.get(hash, &key));
        match hit {
            Some(result) => {
                let looked_up = entry.span.mark("memo");
                shared.metrics.memo_us.record_duration(looked_up);
                // A memo hit is served alone even when it arrived in a
                // coalesced drain: it never rode the banked pass.
                shared.settle_ok(&entry, result, true, false, 1);
            }
            None => {
                shared.metrics.memo_misses.inc();
                misses.push((entry, key));
            }
        }
    }
    if misses.is_empty() {
        return;
    }

    // Deduplicate identical (workload, config) requests within the
    // batch: one simulation answers all of them.
    let mut unique_keys: Vec<String> = Vec::new();
    let mut configs = Vec::new();
    for (entry, key) in &misses {
        if !unique_keys.contains(key) {
            unique_keys.push(key.clone());
            configs.push(entry.request.config);
        }
    }

    let fault_pending = misses.iter().any(|(entry, _)| shared.injected_fault(entry));
    // The pass is abandoned only once no request in it still wants the
    // result: a follower with time left is served from this pass even
    // if the leader's deadline fires mid-run.
    let cancel = CancelToken::all_of(misses.iter().map(|(entry, _)| entry.cancel.clone()));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if fault_pending {
            panic!("injected fault (seed {})", shared.config.seed);
        }
        let source = Source::stored(trace.as_deref(), workload.as_ref(), shared.config.scale);
        let (outcomes, report) = sweep(source, &configs, shared.config.sim_threads, Some(&cancel));
        shared.metrics.shards_executed.add(report.executed);
        shared.metrics.shards_stolen.add(report.stolen);
        for us in &report.shard_us {
            shared.metrics.shard_us.record(*us);
        }
        outcomes
    }));

    match outcome {
        Err(_) => {
            shared.metrics.panics.inc();
            for (entry, _) in misses {
                retry_or_fail(shared, entry);
            }
        }
        Ok(None) => {
            // The batch token trips only once every miss's deadline has
            // fired, and the watchdog has answered each of them.
            for (entry, _) in misses {
                debug_assert!(entry.cancel.is_cancelled());
                shared.sup().complete(entry.seq);
            }
        }
        Ok(Some(outcomes)) => {
            let results: Vec<ResultSummary> =
                outcomes.iter().map(ResultSummary::from_outcome).collect();
            // Entries that reached the simulation together form the
            // coalesced set; memo hits peeled off above don't count.
            let pass_size = misses.len();
            for (mut entry, key) in misses {
                let simmed = entry.span.mark("sim");
                shared.metrics.sim_us.record_duration(simmed);
                let index = unique_keys
                    .iter()
                    .position(|k| k == &key)
                    .expect("key collected above");
                let result = results[index].clone();
                if let Some(hash) = trace_hash {
                    if let Err(e) = shared.memo.put(hash, key, result.clone()) {
                        cwp_obs::obs_warn!("memo journal write failed: {e}");
                    }
                }
                let journaled = entry.span.mark("memo");
                shared.metrics.memo_us.record_duration(journaled);
                shared.settle_ok(&entry, result, false, degraded, pass_size);
            }
        }
    }
}

/// After a caught panic: re-queue the attempt with exponential backoff,
/// or fail the request once its attempt budget is spent.
fn retry_or_fail(shared: &Shared, entry: Entry) {
    if entry.cancel.is_cancelled() {
        shared.sup().complete(entry.seq);
        return;
    }
    if entry.attempt >= shared.config.max_attempts {
        let detail = format!(
            "worker panicked on all {} attempts",
            shared.config.max_attempts
        );
        shared.settle_failed(&entry, detail);
        return;
    }
    // A draining engine has no future in which a backoff retry could
    // run: settle now so the client is never left waiting.
    if shared.draining.load(Ordering::SeqCst) {
        shared.settle_failed(
            &entry,
            "worker panicked while the server was draining".to_string(),
        );
        return;
    }
    let delay = backoff_delay(
        shared.config.backoff_base,
        shared.config.seed,
        entry.seq,
        entry.attempt,
    );
    shared.metrics.retries.inc();
    let mut next = entry;
    next.attempt += 1;
    shared
        .sup()
        .release_after(Instant::now() + delay, SupMsg::Retry(Box::new(next)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use cwp_cache::CacheConfig;
    use cwp_core::sim::simulate;

    fn config_for(id: u64) -> CacheConfig {
        CacheConfig::builder()
            .size_bytes(1024 << id)
            .build()
            .unwrap()
    }

    fn request_line(id: u64, deadline_ms: Option<u64>) -> String {
        Request {
            id,
            workload: "grr".to_string(),
            config: config_for(id),
            deadline_ms,
            priority: 0,
            req_key: None,
        }
        .to_line()
    }

    #[test]
    fn an_expired_leader_does_not_abandon_a_live_follower() {
        // A disabled store makes the pass a degraded live sweep.
        let mut config = EngineConfig::new(Scale::Test);
        config.workers = 1;
        config.trace_budget_bytes = 0;
        let engine = Engine::start(config).unwrap();
        // Retire the worker so the batch is served by hand below: a
        // closed queue still admits, and the idle worker exits.
        engine.shared.queue.close();
        for worker in engine.workers.lock().unwrap().drain(..) {
            worker.join().unwrap();
        }
        let (client, responses) = engine.attach_client();
        engine.submit(client, &request_line(1, Some(1)));
        engine.submit(client, &request_line(2, None));
        // The leader's deadline fires while it is still queued, so its
        // token is tripped before the pass starts.
        match responses.recv_timeout(Duration::from_secs(10)).unwrap() {
            Response::Error {
                id: Some(1),
                reject: Reject::DeadlineExceeded { .. },
            } => {}
            other => panic!("expected the leader's deadline_exceeded, got {other:?}"),
        }
        let leader = engine
            .shared
            .queue
            .pop()
            .expect("the leader is still queued");
        assert_eq!(leader.request.id, 1);
        serve_batch(&engine.shared, leader);
        // The follower still had time: the one pass served it.
        let expected = ResultSummary::from_outcome(&simulate(
            workloads::grr().as_ref(),
            Scale::Test,
            &config_for(2),
        ));
        match responses.try_recv() {
            Ok(Response::Ok {
                id: 2,
                result,
                degraded: true,
                coalesced: true,
                ..
            }) => assert_eq!(result, expected),
            other => panic!("expected the follower served from the pass, got {other:?}"),
        }
        assert_eq!(engine.queue_depth(), 0, "nothing was requeued");
        assert_eq!(engine.stats().served, 1);
        engine.shutdown();
    }
}
