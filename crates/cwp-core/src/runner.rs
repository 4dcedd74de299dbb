//! Supervised experiment execution: panic isolation, deadlines, retry
//! with backoff, and checkpoint/resume.
//!
//! A full `figures all --scale paper` run is hours of simulation; one
//! panicking experiment or one hung sweep should not cost the whole
//! run. This module executes experiments as isolated *jobs* on a worker
//! pool:
//!
//! - each job runs under [`std::panic::catch_unwind`] on a worker
//!   thread with its own [`Lab`], so a panic settles that job and
//!   leaves every other job untouched. The labs of one run share a
//!   trace store and one outcome/write-stream memo, so the pool
//!   simulates each (workload, configuration) once; outcomes a
//!   panicked job published stay memoized for its retry;
//! - a watchdog thread enforces a per-job deadline (scaled by the
//!   experiment's declared [`cost`](crate::experiments::Experiment::cost));
//!   a job past its deadline is abandoned and its worker replaced;
//! - failed attempts retry a bounded number of times with
//!   deterministic, seeded exponential backoff (SplitMix64 jitter —
//!   the same seed always produces the same schedule);
//! - every settled job is appended to a crash-safe checkpoint journal
//!   (`checkpoint.jsonl`, rewritten atomically via write-then-rename),
//!   so a killed run resumes with `figures --resume DIR` and replays
//!   finished tables byte-for-byte instead of re-simulating them;
//! - jobs that fail for good degrade to an `n/a` placeholder table, so
//!   the run always completes with a per-job outcome summary.

use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cwp_chaos::{
    read_jsonl_tolerant_io, retry_interrupted, write_jsonl_atomic_io, ChaosIo, IoHandle,
};
use cwp_obs::metrics::Registry;
use cwp_obs::{obs_debug, obs_info, obs_warn, Event, Json, JsonlWriter, Probe};
use cwp_trace::Scale;

use crate::experiments::Experiment;
use crate::lab::Lab;
use crate::memo::RunMemo;
use crate::obs::TraceOptions;
use crate::report::{Cell, Table};
use crate::supervise::{self, Supervisor};

/// File name of the checkpoint journal inside the journal directory.
pub const JOURNAL_FILE: &str = "checkpoint.jsonl";

/// File name of the runner's own event stream (job lifecycle events).
pub const RUNNER_EVENTS_FILE: &str = "runner.jsonl";

// ---------------------------------------------------------------------
// Jobs and results
// ---------------------------------------------------------------------

/// The boxed work a [`Job`] carries: run in some worker's [`Lab`],
/// produce tables or a failure message.
type JobWork = Arc<dyn Fn(&mut Lab) -> Result<Vec<Table>, String> + Send + Sync>;

/// One unit of supervised work: an id, a display title, a relative cost
/// (deadline multiplier), and the work itself.
#[derive(Clone)]
pub struct Job {
    /// Stable id; the journal keys resume decisions on it.
    pub id: String,
    /// Human title, used for placeholder tables.
    pub title: String,
    /// Relative cost in coarse units; the per-unit deadline is
    /// multiplied by this.
    pub cost: u32,
    work: JobWork,
}

impl Job {
    /// Wraps an arbitrary closure as a job.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        cost: u32,
        work: impl Fn(&mut Lab) -> Result<Vec<Table>, String> + Send + Sync + 'static,
    ) -> Self {
        Job {
            id: id.into(),
            title: title.into(),
            cost,
            work: Arc::new(work),
        }
    }

    /// Wraps a registered experiment: runs it with its sanity check
    /// applied, so malformed tables fail the job instead of printing.
    pub fn from_experiment(e: &Experiment) -> Self {
        let exp = *e;
        Job::new(e.id, e.title, e.cost, move |lab| {
            exp.run_checked(lab).map_err(|err| err.to_string())
        })
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Job({}, cost {})", self.id, self.cost)
    }
}

/// How a job settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job produced its tables.
    Ok,
    /// Every attempt failed (panic or returned error).
    Failed,
    /// The job exceeded its deadline and was abandoned.
    TimedOut,
    /// A prior run's journal already had this job's tables; they were
    /// replayed instead of re-simulated.
    Skipped,
}

impl JobOutcome {
    /// The journal tag for this outcome.
    pub fn tag(&self) -> &'static str {
        match self {
            JobOutcome::Ok => "ok",
            JobOutcome::Failed => "failed",
            JobOutcome::TimedOut => "timed_out",
            JobOutcome::Skipped => "skipped",
        }
    }

    fn from_tag(tag: &str) -> Option<JobOutcome> {
        match tag {
            "ok" => Some(JobOutcome::Ok),
            "failed" => Some(JobOutcome::Failed),
            "timed_out" => Some(JobOutcome::TimedOut),
            "skipped" => Some(JobOutcome::Skipped),
            _ => None,
        }
    }
}

/// A table rendered to its final textual forms.
///
/// The journal stores rendered strings, not cell values, so a resumed
/// run replays exactly the bytes the uninterrupted run would have
/// printed — no re-rendering drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderedTable {
    /// The table's experiment id.
    pub id: String,
    /// The table's human title.
    pub title: String,
    /// Data rows the table held (0 flags an empty result).
    pub rows: u64,
    /// `Table::to_markdown()` output.
    pub markdown: String,
    /// `Table::to_csv()` output.
    pub csv: String,
}

impl RenderedTable {
    /// Renders a [`Table`] once, capturing both output forms.
    pub fn from_table(t: &Table) -> Self {
        RenderedTable {
            id: t.id().to_string(),
            title: t.title().to_string(),
            rows: t.len() as u64,
            markdown: t.to_markdown(),
            csv: t.to_csv(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("title", Json::Str(self.title.clone())),
            ("rows", Json::UInt(self.rows)),
            ("markdown", Json::Str(self.markdown.clone())),
            ("csv", Json::Str(self.csv.clone())),
        ])
    }

    fn from_json(json: &Json) -> Option<RenderedTable> {
        let str_of = |key: &str| json.get(key).and_then(Json::as_str).map(str::to_string);
        Some(RenderedTable {
            id: str_of("id")?,
            title: str_of("title")?,
            rows: json.get("rows").and_then(Json::as_u64)?,
            markdown: str_of("markdown")?,
            csv: str_of("csv")?,
        })
    }
}

/// The settled state of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The job id.
    pub id: String,
    /// The job title.
    pub title: String,
    /// How it settled.
    pub outcome: JobOutcome,
    /// Attempts consumed (1 = first try succeeded; 0 = replayed).
    pub attempts: u32,
    /// Wall-clock of the settling attempt, in milliseconds.
    pub wall_ms: u64,
    /// Time the settling attempt spent in the ready queue before a
    /// worker picked it up, in milliseconds (0 for timed-out jobs and
    /// for results replayed from journals written before wait
    /// tracking).
    pub wait_ms: u64,
    /// The failure or timeout detail, if any.
    pub error: Option<String>,
    /// The rendered tables (placeholders for failed/timed-out jobs).
    pub tables: Vec<RenderedTable>,
    /// `true` when the tables came from a prior run's journal.
    pub replayed: bool,
}

impl JobResult {
    /// `true` when the job settled without usable data rows.
    pub fn is_empty(&self) -> bool {
        !self.tables.iter().any(|t| t.rows > 0)
    }

    fn to_json(&self) -> Json {
        // Replayed results journal as "ok" so a resume-of-a-resume
        // still recognizes them as finished work.
        let tag = if self.replayed && self.outcome == JobOutcome::Skipped {
            "ok"
        } else {
            self.outcome.tag()
        };
        Json::obj([
            ("job", Json::Str(self.id.clone())),
            ("title", Json::Str(self.title.clone())),
            ("outcome", Json::Str(tag.to_string())),
            ("attempts", Json::UInt(u64::from(self.attempts))),
            ("wall_ms", Json::UInt(self.wall_ms)),
            ("wait_ms", Json::UInt(self.wait_ms)),
            (
                "error",
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
            (
                "tables",
                Json::Arr(self.tables.iter().map(RenderedTable::to_json).collect()),
            ),
        ])
    }

    fn from_json(json: &Json) -> Option<JobResult> {
        let str_of = |key: &str| json.get(key).and_then(Json::as_str).map(str::to_string);
        let tables = match json.get("tables")? {
            Json::Arr(items) => items
                .iter()
                .map(RenderedTable::from_json)
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(JobResult {
            id: str_of("job")?,
            title: str_of("title")?,
            outcome: JobOutcome::from_tag(json.get("outcome").and_then(Json::as_str)?)?,
            attempts: u32::try_from(json.get("attempts").and_then(Json::as_u64)?).ok()?,
            wall_ms: json.get("wall_ms").and_then(Json::as_u64)?,
            // Absent in journals written before queue-wait tracking.
            wait_ms: json.get("wait_ms").and_then(Json::as_u64).unwrap_or(0),
            error: str_of("error"),
            tables,
            replayed: false,
        })
    }
}

/// The whole run's outcome: per-job results in input order, plus the
/// total number of actual simulations performed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// One result per submitted job, in submission order.
    pub results: Vec<JobResult>,
    /// Actual (non-memoized) simulations across all workers.
    pub simulations: u64,
}

impl RunSummary {
    /// Jobs that settled with the given outcome.
    pub fn count(&self, outcome: JobOutcome) -> usize {
        self.results.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Jobs that needed more than one attempt (including final failures).
    pub fn retried(&self) -> usize {
        self.results.iter().filter(|r| r.attempts > 1).count()
    }

    /// Jobs that nominally succeeded but produced no data rows.
    pub fn empty(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Ok | JobOutcome::Skipped) && r.is_empty())
            .count()
    }

    /// Jobs that did not produce real tables: failures, timeouts, and
    /// empty successes. Nonzero means the run should exit nonzero.
    pub fn failures(&self) -> usize {
        self.count(JobOutcome::Failed) + self.count(JobOutcome::TimedOut) + self.empty()
    }

    /// One-line accounting, e.g. `"33 ok, 1 retried, 1 failed, ..."`.
    pub fn describe(&self) -> String {
        format!(
            "{} ok, {} retried, {} failed, {} timed out, {} skipped (resume), {} empty",
            self.count(JobOutcome::Ok),
            self.retried(),
            self.count(JobOutcome::Failed),
            self.count(JobOutcome::TimedOut),
            self.count(JobOutcome::Skipped),
            self.empty()
        )
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Supervision policy for a run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads (each owns a [`Lab`]; the labs of one run share
    /// one memo).
    pub workers: usize,
    /// Worker threads each lab's sweep fan-out may use (see
    /// [`Lab::set_threads`]); results are identical at every value.
    pub sim_threads: usize,
    /// Deadline per unit of job cost; `None` disables the watchdog's
    /// deadline enforcement.
    pub deadline_per_cost: Option<Duration>,
    /// Extra attempts after a failed first try.
    pub retries: u32,
    /// Base backoff delay; attempt `n` waits `base * 2^(n-1) * jitter`.
    pub backoff_base: Duration,
    /// Seed for the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Directory for `checkpoint.jsonl` and `runner.jsonl`; `None`
    /// disables journaling (and therefore resume).
    pub journal_dir: Option<PathBuf>,
    /// Replay jobs already journaled as `ok` instead of re-running.
    pub resume: bool,
    /// Scale each worker's lab simulates at.
    pub scale: Scale,
    /// Per-simulation tracing, passed to each worker's lab.
    pub trace: Option<TraceOptions>,
    /// Restrict tracing to one workload (see [`Lab::set_trace_filter`]).
    pub trace_filter: Option<String>,
    /// Trace store shared by every worker's lab (and kept across
    /// panic-rebuilds), so each workload is recorded once per run.
    /// `None` lets the runner create one; pass
    /// [`TraceStore::disabled`](crate::TraceStore::disabled) to force
    /// live regeneration everywhere.
    pub trace_store: Option<Arc<crate::TraceStore>>,
    /// Test hook: sleep this long at the start of every attempt, so
    /// integration tests can kill the process mid-grid deterministically
    /// (set via `CWP_JOB_DELAY_MS` in the `figures` binary).
    pub job_delay: Option<Duration>,
    /// Run every simulation under the invariant audit (see
    /// [`Lab::enable_audit`]). Outcomes are unchanged; a violated
    /// invariant panics inside the job and surfaces as a failed run.
    pub audit: bool,
    /// Storage backend every checkpoint write and reload goes through.
    /// The default is the real filesystem; tests and the chaos harness
    /// substitute a fault-injecting backend here.
    pub io: IoHandle,
    /// When set, the runner exports its `checkpoint_corrupt_lines`
    /// counter into this registry on resume reload.
    pub registry: Option<Arc<Registry>>,
}

impl RunnerConfig {
    /// A sequential, no-deadline, no-journal configuration at `scale`.
    pub fn new(scale: Scale) -> Self {
        RunnerConfig {
            workers: 1,
            sim_threads: 1,
            deadline_per_cost: None,
            retries: 2,
            backoff_base: Duration::from_millis(250),
            backoff_seed: 0x5ca1_ab1e,
            journal_dir: None,
            resume: false,
            scale,
            trace: None,
            trace_filter: None,
            trace_store: None,
            job_delay: None,
            audit: false,
            io: IoHandle::real(),
            registry: None,
        }
    }
}

// ---------------------------------------------------------------------
// Internal plumbing
// ---------------------------------------------------------------------

/// A dispatched attempt.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    job: usize,
    attempt: u32,
    /// When the ticket entered the ready queue; re-stamped by
    /// [`push_ready`] so retry backoff never counts as queue wait.
    dispatched: Instant,
}

/// The ready queue workers pull from.
#[derive(Default)]
struct QueueState {
    ready: std::collections::VecDeque<Ticket>,
    shutdown: bool,
}

type Queue = Arc<(Mutex<QueueState>, Condvar)>;

/// The watchdog over in-flight attempts and scheduled retries, keyed
/// by worker id (see [`crate::supervise`]).
type Watch = Arc<Supervisor<Ticket>>;

enum Msg {
    Done {
        ticket: Ticket,
        result: Result<Vec<Table>, String>,
        wall_ms: u64,
        wait_ms: u64,
        sims: u64,
    },
    TimedOut {
        worker: u64,
        ticket: Ticket,
    },
}

fn push_ready(queue: &Queue, mut ticket: Ticket) {
    ticket.dispatched = Instant::now();
    let (lock, cvar) = &**queue;
    lock.lock().expect("queue lock").ready.push_back(ticket);
    cvar.notify_one();
}

/// Renders the `n/a` placeholder a failed or timed-out job degrades to.
fn placeholder(job: &Job, outcome: JobOutcome, detail: &str) -> RenderedTable {
    let mut t = Table::new(&job.id, &job.title, "status");
    t.columns(["result"]);
    t.row(outcome.tag(), [Cell::Missing]);
    t.note(format!("experiment did not complete: {detail}"));
    let mut rendered = RenderedTable::from_table(&t);
    // The status row is a marker, not data: the job stays "empty".
    rendered.rows = 0;
    rendered
}

/// The worker thread body: pull tickets, run jobs under
/// `catch_unwind`, report results — unless the watchdog abandoned us.
fn worker_loop(
    worker_id: u64,
    jobs: Arc<Vec<Job>>,
    config: RunnerConfig,
    memo: Arc<RunMemo>,
    queue: Queue,
    watch: Watch,
    out: mpsc::Sender<Msg>,
) {
    let build_lab = |cfg: &RunnerConfig| {
        let mut lab = Lab::new(cfg.scale);
        lab.set_threads(cfg.sim_threads);
        // The run's memo survives panic-rebuilds too: what a panicked
        // job published is never simulated again.
        lab.set_memo(Arc::clone(&memo));
        // The shared store survives panic-rebuilds of this worker's lab
        // and is common to the whole pool: recordings are never lost to
        // a worker replacement.
        if let Some(store) = &cfg.trace_store {
            lab.set_store(Arc::clone(store));
        }
        if let Some(trace) = &cfg.trace {
            lab.enable_trace(trace.clone());
            lab.set_trace_filter(cfg.trace_filter.as_deref());
        }
        if cfg.audit {
            lab.enable_audit();
        }
        lab
    };
    let mut lab = build_lab(&config);
    let mut runs_before = 0u64;
    loop {
        let ticket = {
            let (lock, cvar) = &*queue;
            let mut state = lock.lock().expect("queue lock");
            loop {
                if let Some(t) = state.ready.pop_front() {
                    break t;
                }
                if state.shutdown {
                    return;
                }
                state = cvar.wait(state).expect("queue lock");
            }
        };
        let wait_ms = ticket.dispatched.elapsed().as_millis() as u64;
        let job = &jobs[ticket.job];
        // Register with the watchdog so it arms for this attempt's
        // deadline.
        let deadline = config
            .deadline_per_cost
            .map(|d| Instant::now() + d * job.cost.max(1));
        watch.register(worker_id, deadline, ticket);
        if let Some(delay) = config.job_delay {
            std::thread::sleep(delay);
        }
        let start = Instant::now();
        lab.set_trace_context(&job.id);
        let work = Arc::clone(&job.work);
        let outcome = catch_unwind(AssertUnwindSafe(|| work(&mut lab)));
        let wall_ms = start.elapsed().as_millis() as u64;
        // If the watchdog expired our deadline it removed our entry and
        // already settled the job; this worker is abandoned and a
        // replacement has taken its place — exit without reporting.
        if watch.complete(worker_id).is_none() {
            obs_debug!("worker {worker_id}: abandoned after deadline, exiting");
            return;
        }
        let sims = lab.runs() - runs_before;
        runs_before = lab.runs();
        let result = match outcome {
            Ok(r) => r,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic (non-string payload)".to_string());
                // The lab may hold partial state (trace context, shard
                // report) from the panicked experiment; rebuild it. The
                // panic released every claim the job still held.
                lab = build_lab(&config);
                runs_before = 0;
                Err(format!("panic: {msg}"))
            }
        };
        if out
            .send(Msg::Done {
                ticket,
                result,
                wall_ms,
                wait_ms,
                sims,
            })
            .is_err()
        {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

/// Executes jobs under supervision according to a [`RunnerConfig`].
#[derive(Debug, Clone)]
pub struct Runner {
    config: RunnerConfig,
}

impl Runner {
    /// Creates a runner with the given policy.
    pub fn new(config: RunnerConfig) -> Self {
        Runner { config }
    }

    /// The deterministic backoff before retry `attempt` of `job`:
    /// `base * 2^(attempt-1)`, jittered by a seeded multiplier in
    /// `[0.5, 1.5)`. Same seed, same job, same attempt — same delay.
    /// Delegates to [`supervise::backoff_delay`] with the job index as
    /// the jitter stream.
    pub fn backoff_delay(&self, job: usize, attempt: u32) -> Duration {
        supervise::backoff_delay(
            self.config.backoff_base,
            self.config.backoff_seed,
            job as u64,
            attempt,
        )
    }

    /// Runs `jobs` to completion (every job settles) and returns the
    /// per-job results in submission order.
    ///
    /// # Errors
    ///
    /// Fails only on journal I/O errors; job failures are *outcomes*,
    /// not errors.
    ///
    /// # Panics
    ///
    /// Panics if two jobs share an id (the journal could not tell them
    /// apart).
    pub fn run(&self, jobs: Vec<Job>) -> io::Result<RunSummary> {
        {
            let mut seen = std::collections::HashSet::new();
            for job in &jobs {
                assert!(seen.insert(job.id.as_str()), "duplicate job id {}", job.id);
            }
        }
        let mut results: Vec<Option<JobResult>> = vec![None; jobs.len()];

        // Resume: replay journaled successes instead of re-running them.
        let journal_path = self
            .config
            .journal_dir
            .as_ref()
            .map(|d| d.join(JOURNAL_FILE));
        if self.config.resume {
            if let Some(path) = &journal_path {
                let (replayed, corrupt_lines) = load_journal(&self.config.io, path)?;
                if let Some(registry) = &self.config.registry {
                    registry
                        .counter("checkpoint_corrupt_lines")
                        .add(corrupt_lines);
                }
                for (idx, job) in jobs.iter().enumerate() {
                    if let Some(mut prior) = replayed.get(&job.id).cloned() {
                        prior.outcome = JobOutcome::Skipped;
                        prior.attempts = 0;
                        prior.replayed = true;
                        results[idx] = Some(prior);
                    }
                }
                let skipped = results.iter().flatten().count();
                if skipped > 0 {
                    obs_info!("resume: {skipped} job(s) replayed from {}", path.display());
                }
            }
        }

        // The runner's own event stream (job lifecycle) goes next to the
        // journal; a probe write failure only loses observability.
        let mut probe: Option<JsonlWriter<std::fs::File>> = match &self.config.journal_dir {
            Some(dir) => {
                retry_interrupted(|| self.config.io.create_dir_all(dir))?;
                Some(JsonlWriter::new(
                    std::fs::File::create(dir.join(RUNNER_EVENTS_FILE))?,
                    None,
                ))
            }
            None => None,
        };
        let mut emit = move |event: Event| {
            if let Some(p) = &mut probe {
                p.on_event(&event);
            }
        };

        let jobs = Arc::new(jobs);
        let queue: Queue = Arc::new((Mutex::new(QueueState::default()), Condvar::new()));
        let (tx, rx) = mpsc::channel::<Msg>();
        // The watchdog: expired deadlines report a timeout, due retry
        // backoffs re-enter the ready queue.
        let watch: Watch = {
            let tx = tx.clone();
            let queue = Arc::clone(&queue);
            Arc::new(Supervisor::spawn(
                "cwp-watchdog",
                move |worker, ticket| {
                    let _ = tx.send(Msg::TimedOut { worker, ticket });
                },
                move |ticket| push_ready(&queue, ticket),
            ))
        };

        let workers = self.config.workers.max(1);
        let mut handles: HashMap<u64, std::thread::JoinHandle<()>> = HashMap::new();
        let mut next_worker_id = 0u64;
        let worker_tx = tx.clone();
        // Every worker (including replacements spawned after a timeout)
        // gets the same trace store and memo, so the pool records each
        // workload and simulates each (workload, configuration) exactly
        // once per run.
        let memo = Arc::new(RunMemo::default());
        let worker_config = {
            let mut cfg = self.config.clone();
            if cfg.trace_store.is_none() {
                cfg.trace_store = Some(Arc::new(crate::TraceStore::new(cfg.scale)));
            }
            cfg
        };
        let mut spawn_worker = |handles: &mut HashMap<u64, std::thread::JoinHandle<()>>| {
            let id = next_worker_id;
            next_worker_id += 1;
            let handle = {
                let jobs = Arc::clone(&jobs);
                let config = worker_config.clone();
                let memo = Arc::clone(&memo);
                let queue = Arc::clone(&queue);
                let watch = Arc::clone(&watch);
                let tx = worker_tx.clone();
                std::thread::Builder::new()
                    .name(format!("cwp-worker-{id}"))
                    .spawn(move || worker_loop(id, jobs, config, memo, queue, watch, tx))
                    .expect("spawn worker thread")
            };
            handles.insert(id, handle);
        };
        for _ in 0..workers {
            spawn_worker(&mut handles);
        }
        drop(tx);

        // Dispatch every job not already settled by resume replay.
        let mut attempts: Vec<u32> = vec![0; jobs.len()];
        let mut pending = 0usize;
        for (idx, _) in jobs.iter().enumerate() {
            if results[idx].is_none() {
                attempts[idx] = 1;
                emit(Event::JobStart {
                    job: idx as u32,
                    attempt: 1,
                });
                push_ready(
                    &queue,
                    Ticket {
                        job: idx,
                        attempt: 1,
                        dispatched: Instant::now(),
                    },
                );
                pending += 1;
            }
        }

        let mut simulations = 0u64;
        let mut settled = 0usize;
        let settle = |idx: usize,
                      result: JobResult,
                      results: &mut Vec<Option<JobResult>>,
                      emit: &mut dyn FnMut(Event)|
         -> io::Result<()> {
            emit(Event::JobEnd {
                job: idx as u32,
                attempt: result.attempts,
                ok: result.outcome == JobOutcome::Ok,
                wall_ms: result.wall_ms,
                wait_ms: result.wait_ms,
            });
            results[idx] = Some(result);
            if let Some(path) = &journal_path {
                let lines: Vec<Json> = results.iter().flatten().map(JobResult::to_json).collect();
                write_jsonl_atomic_io(&self.config.io, path, &lines)?;
            }
            Ok(())
        };

        while settled < pending {
            let msg = rx.recv().expect("workers alive while jobs pending");
            match msg {
                Msg::Done {
                    ticket,
                    result,
                    wall_ms,
                    wait_ms,
                    sims,
                } => {
                    simulations += sims;
                    if results[ticket.job].is_some() || ticket.attempt != attempts[ticket.job] {
                        continue; // stale report from a superseded attempt
                    }
                    let job = &jobs[ticket.job];
                    match result {
                        Ok(tables) => {
                            let rendered = tables.iter().map(RenderedTable::from_table).collect();
                            settle(
                                ticket.job,
                                JobResult {
                                    id: job.id.clone(),
                                    title: job.title.clone(),
                                    outcome: JobOutcome::Ok,
                                    attempts: ticket.attempt,
                                    wall_ms,
                                    wait_ms,
                                    error: None,
                                    tables: rendered,
                                    replayed: false,
                                },
                                &mut results,
                                &mut emit,
                            )?;
                            settled += 1;
                        }
                        Err(error) if ticket.attempt <= self.config.retries => {
                            let next = ticket.attempt + 1;
                            let delay = self.backoff_delay(ticket.job, ticket.attempt);
                            obs_warn!(
                                "{}: attempt {} failed ({error}); retrying in {:?}",
                                job.id,
                                ticket.attempt,
                                delay
                            );
                            emit(Event::JobRetry {
                                job: ticket.job as u32,
                                attempt: ticket.attempt,
                                delay_ms: delay.as_millis() as u64,
                            });
                            emit(Event::JobStart {
                                job: ticket.job as u32,
                                attempt: next,
                            });
                            attempts[ticket.job] = next;
                            watch.release_after(
                                Instant::now() + delay,
                                Ticket {
                                    job: ticket.job,
                                    attempt: next,
                                    // Re-stamped by push_ready when the
                                    // backoff timer releases the ticket.
                                    dispatched: Instant::now(),
                                },
                            );
                        }
                        Err(error) => {
                            obs_warn!(
                                "{}: failed for good after {} attempt(s): {error}",
                                job.id,
                                ticket.attempt
                            );
                            let table = placeholder(job, JobOutcome::Failed, &error);
                            settle(
                                ticket.job,
                                JobResult {
                                    id: job.id.clone(),
                                    title: job.title.clone(),
                                    outcome: JobOutcome::Failed,
                                    attempts: ticket.attempt,
                                    wall_ms,
                                    wait_ms,
                                    error: Some(error),
                                    tables: vec![table],
                                    replayed: false,
                                },
                                &mut results,
                                &mut emit,
                            )?;
                            settled += 1;
                        }
                    }
                }
                Msg::TimedOut { worker, ticket } => {
                    if results[ticket.job].is_some() || ticket.attempt != attempts[ticket.job] {
                        continue;
                    }
                    let job = &jobs[ticket.job];
                    let deadline = self
                        .config
                        .deadline_per_cost
                        .map(|d| d * job.cost.max(1))
                        .unwrap_or_default();
                    let detail = format!("exceeded its {deadline:?} deadline");
                    obs_warn!("{}: {detail}; abandoning worker {worker}", job.id);
                    // The stuck worker keeps running until it notices its
                    // abandonment; replace it so throughput is preserved.
                    handles.remove(&worker);
                    spawn_worker(&mut handles);
                    let table = placeholder(job, JobOutcome::TimedOut, &detail);
                    settle(
                        ticket.job,
                        JobResult {
                            id: job.id.clone(),
                            title: job.title.clone(),
                            outcome: JobOutcome::TimedOut,
                            attempts: ticket.attempt,
                            wall_ms: deadline.as_millis() as u64,
                            wait_ms: 0,
                            error: Some(detail),
                            tables: vec![table],
                            replayed: false,
                        },
                        &mut results,
                        &mut emit,
                    )?;
                    settled += 1;
                }
            }
        }

        // Shut everything down and join the workers we did not abandon.
        // The watchdog thread itself joins when the last `watch` clone
        // drops (see [`Supervisor`]'s `Drop`).
        {
            let (lock, cvar) = &*queue;
            lock.lock().expect("queue lock").shutdown = true;
            cvar.notify_all();
        }
        watch.shutdown();
        for (_, handle) in handles {
            let _ = handle.join();
        }

        Ok(RunSummary {
            results: results
                .into_iter()
                .map(|r| r.expect("all settled"))
                .collect(),
            simulations,
        })
    }
}

/// Reads the checkpoint journal tolerantly, returning finished (`ok`)
/// results keyed by job id plus the number of corrupt lines skipped. A
/// missing journal is an empty map; a torn final line is tolerated
/// (the crash the journal exists to survive); mid-journal lines that
/// parse as JSON but not as a [`JobResult`] are counted, warned about
/// once, and skipped rather than silently dropped.
fn load_journal(io: &dyn ChaosIo, path: &Path) -> io::Result<(HashMap<String, JobResult>, u64)> {
    if !io.exists(path) {
        return Ok((HashMap::new(), 0));
    }
    let doc = read_jsonl_tolerant_io(io, path)?;
    if doc.truncated {
        obs_warn!(
            "{}: journal ends in a partially-written line; ignoring it",
            path.display()
        );
    }
    let mut map = HashMap::new();
    let mut corrupt_lines = 0u64;
    for line in &doc.lines {
        match JobResult::from_json(line) {
            Some(result) => {
                if result.outcome == JobOutcome::Ok {
                    map.insert(result.id.clone(), result);
                }
            }
            None => corrupt_lines += 1,
        }
    }
    if corrupt_lines > 0 {
        obs_warn!(
            "{}: skipped {corrupt_lines} corrupt checkpoint line(s) on reload",
            path.display()
        );
    }
    Ok((map, corrupt_lines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn table_for(id: &str) -> Table {
        let mut t = Table::new(id, format!("{id} title"), "x");
        t.columns(["v"]);
        t.row("r", [Cell::Num(1.0)]);
        t
    }

    fn ok_job(id: &str) -> Job {
        let id_owned = id.to_string();
        Job::new(id, format!("{id} title"), 1, move |_lab| {
            Ok(vec![table_for(&id_owned)])
        })
    }

    fn config() -> RunnerConfig {
        let mut c = RunnerConfig::new(Scale::Test);
        c.backoff_base = Duration::from_millis(1);
        c
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cwp-runner-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let mut c = config();
        c.workers = 4;
        let jobs: Vec<Job> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|id| ok_job(id))
            .collect();
        let summary = Runner::new(c).run(jobs).unwrap();
        let ids: Vec<&str> = summary.results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["a", "b", "c", "d", "e"]);
        assert_eq!(summary.count(JobOutcome::Ok), 5);
        assert_eq!(summary.failures(), 0);
        assert!(summary.results.iter().all(|r| r.attempts == 1));
    }

    #[test]
    fn a_panicking_job_is_isolated_retried_and_degraded() {
        let mut c = config();
        c.workers = 2;
        c.retries = 1;
        let jobs = vec![
            ok_job("good"),
            Job::new(
                "bad",
                "always panics",
                1,
                |_lab| -> Result<Vec<Table>, String> { panic!("intentional test panic") },
            ),
        ];
        let summary = Runner::new(c).run(jobs).unwrap();
        assert_eq!(summary.results[0].outcome, JobOutcome::Ok);
        let bad = &summary.results[1];
        assert_eq!(bad.outcome, JobOutcome::Failed);
        assert_eq!(bad.attempts, 2, "one retry after the first panic");
        assert!(bad.error.as_deref().unwrap().contains("intentional"));
        assert!(bad.is_empty(), "failed jobs degrade to an n/a placeholder");
        assert!(bad.tables[0].markdown.contains("n/a"));
        assert_eq!(summary.retried(), 1);
        assert_eq!(summary.failures(), 1);
    }

    #[test]
    fn a_flaky_job_recovers_within_its_retry_budget() {
        let mut c = config();
        c.retries = 2;
        let tries = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&tries);
        let jobs = vec![Job::new("flaky", "third time lucky", 1, move |_lab| {
            if counter.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("transient".to_string())
            } else {
                Ok(vec![table_for("flaky")])
            }
        })];
        let summary = Runner::new(c).run(jobs).unwrap();
        let r = &summary.results[0];
        assert_eq!(r.outcome, JobOutcome::Ok);
        assert_eq!(r.attempts, 3);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn workers_share_one_trace_store_across_the_pool_and_panic_rebuilds() {
        let mut c = config();
        c.workers = 2;
        c.retries = 1;
        let store = Arc::new(crate::TraceStore::new(Scale::Test));
        c.trace_store = Some(Arc::clone(&store));
        let sim = cwp_cache::CacheConfig::default();
        let mut jobs: Vec<Job> = (0..4)
            .map(|i| {
                Job::new(format!("sim-{i}"), "simulates yacc", 1, move |lab| {
                    let out = lab.outcome("yacc", &sim);
                    assert!(out.stats.accesses() > 0);
                    Ok(vec![table_for("sim")])
                })
            })
            .collect();
        let panicked = Arc::new(AtomicU32::new(0));
        let flag = Arc::clone(&panicked);
        jobs.push(Job::new(
            "panics-once",
            "lab rebuild keeps the shared store",
            1,
            move |lab| {
                lab.outcome("yacc", &sim);
                if flag.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("intentional test panic");
                }
                Ok(vec![table_for("panics-once")])
            },
        ));
        let summary = Runner::new(c).run(jobs).unwrap();
        assert_eq!(summary.failures(), 0);
        assert_eq!(
            store.recordings(),
            1,
            "one yacc recording across workers and panic-rebuilt labs"
        );
    }

    #[test]
    fn one_and_four_workers_render_identically_from_one_shared_memo() {
        // Every distinct (workload, configuration) the registry asks for,
        // counted by one private lab running the experiments in order.
        let mut lab = Lab::new(Scale::Test);
        for e in crate::experiments::all() {
            e.run(&mut lab);
        }
        let distinct = lab.runs();
        let run = |workers: usize| {
            let mut c = config();
            c.workers = workers;
            let store = Arc::new(crate::TraceStore::new(Scale::Test));
            c.trace_store = Some(Arc::clone(&store));
            let jobs = crate::experiments::all()
                .iter()
                .map(Job::from_experiment)
                .collect();
            let summary = Runner::new(c).run(jobs).unwrap();
            assert_eq!(summary.failures(), 0, "{workers} worker(s)");
            let tables: Vec<String> = summary
                .results
                .iter()
                .flat_map(|r| r.tables.iter().map(|t| t.markdown.clone()))
                .collect();
            (tables, summary.simulations, store.hits(), store.misses())
        };
        let (serial, serial_sims, serial_hits, serial_misses) = run(1);
        let (pooled, pooled_sims, pooled_hits, pooled_misses) = run(4);
        assert_eq!(serial, pooled, "rendered tables differ");
        assert_eq!(serial_sims, distinct, "one simulation per distinct key");
        assert_eq!(pooled_sims, distinct, "one simulation per distinct key");
        assert_eq!(pooled_hits, serial_hits, "store hits follow the requests");
        assert_eq!(pooled_misses, serial_misses);
    }

    #[test]
    fn a_panicked_jobs_outcomes_stay_published_and_its_claims_are_released() {
        use cwp_cache::CacheConfig;

        let mut c = config();
        c.workers = 2;
        c.retries = 1;
        let kb = |k: u32| CacheConfig::builder().size_bytes(k << 10).build().unwrap();
        let published = [kb(1), kb(2)];
        let held = kb(4);
        let (held_tx, held_rx) = mpsc::channel::<()>();
        let held_rx = Mutex::new(held_rx);
        let tries = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&tries);
        let jobs = vec![
            Job::new("panics", "publishes, claims, panics", 1, move |lab| {
                lab.outcomes_sweep("yacc", &published);
                if counter.fetch_add(1, Ordering::SeqCst) == 0 {
                    let memo = Arc::clone(lab.memo());
                    let _claim = memo
                        .outcomes
                        .try_claim(&("yacc", held))
                        .expect("nobody else has asked for it yet");
                    held_tx.send(()).unwrap();
                    // Give the other job time to block on the claim.
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("intentional test panic");
                }
                Ok(vec![table_for("panics")])
            }),
            Job::new("waits", "waits on the held claim", 1, move |lab| {
                held_rx.lock().unwrap().recv().unwrap();
                assert!(lab.outcome("yacc", &held).stats.accesses() > 0);
                Ok(vec![table_for("waits")])
            }),
        ];
        let summary = Runner::new(c).run(jobs).unwrap();
        assert_eq!(summary.failures(), 0);
        assert_eq!(summary.results[0].attempts, 2);
        assert_eq!(tries.load(Ordering::SeqCst), 2);
        assert_eq!(
            summary.simulations, 3,
            "the retry re-simulates nothing; the waiter simulates the released key"
        );
    }

    #[test]
    fn a_hung_job_times_out_and_the_run_continues() {
        let mut c = config();
        c.workers = 1;
        c.retries = 0;
        c.deadline_per_cost = Some(Duration::from_millis(40));
        let jobs = vec![
            Job::new("hang", "sleeps past deadline", 1, |_lab| {
                std::thread::sleep(Duration::from_millis(400));
                Ok(vec![table_for("hang")])
            }),
            ok_job("after"),
        ];
        let summary = Runner::new(c).run(jobs).unwrap();
        assert_eq!(summary.results[0].outcome, JobOutcome::TimedOut);
        assert!(summary.results[0]
            .error
            .as_deref()
            .unwrap()
            .contains("deadline"));
        assert_eq!(
            summary.results[1].outcome,
            JobOutcome::Ok,
            "a replacement worker ran the remaining job"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let runner = Runner::new(config());
        let d1 = runner.backoff_delay(3, 1);
        let d2 = runner.backoff_delay(3, 2);
        assert_eq!(d1, runner.backoff_delay(3, 1), "same seed, same delay");
        assert!(d2 > d1, "attempt 2 backs off longer: {d1:?} vs {d2:?}");
        assert_ne!(
            runner.backoff_delay(4, 1),
            d1,
            "different jobs jitter differently"
        );
    }

    #[test]
    fn journal_round_trips_and_resume_replays_finished_jobs() {
        let dir = tmpdir("resume");
        let ran = Arc::new(AtomicU32::new(0));

        let mut c = config();
        c.journal_dir = Some(dir.clone());
        c.retries = 0;
        let counter = Arc::clone(&ran);
        let jobs = vec![
            ok_job("done"),
            Job::new("broken", "fails first run", 1, move |_lab| {
                counter.fetch_add(1, Ordering::SeqCst);
                Err("first run fails".to_string())
            }),
        ];
        let summary = Runner::new(c).run(jobs).unwrap();
        assert_eq!(summary.count(JobOutcome::Ok), 1);
        assert_eq!(summary.count(JobOutcome::Failed), 1);
        let first_markdown = summary.results[0].tables[0].markdown.clone();

        // Second run resumes: "done" replays without re-running, the
        // previously failed job runs again and now succeeds.
        let mut c = config();
        c.journal_dir = Some(dir.clone());
        c.resume = true;
        c.retries = 0;
        let jobs = vec![
            Job::new(
                "done",
                "must not re-run",
                1,
                |_lab| -> Result<Vec<Table>, String> {
                    panic!("resume must not re-run a journaled job")
                },
            ),
            ok_job("broken"),
        ];
        let summary = Runner::new(c).run(jobs).unwrap();
        let done = &summary.results[0];
        assert_eq!(done.outcome, JobOutcome::Skipped);
        assert!(done.replayed);
        assert_eq!(done.attempts, 0);
        assert_eq!(
            done.tables[0].markdown, first_markdown,
            "byte-identical replay"
        );
        assert_eq!(summary.results[1].outcome, JobOutcome::Ok);
        assert_eq!(ran.load(Ordering::SeqCst), 1, "failed job ran once per run");

        // The journal now records both as ok, so a third resume skips
        // everything (resume-of-a-resume).
        let (journal, corrupt) = load_journal(&cwp_chaos::RealIo, &dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(journal.len(), 2);
        assert_eq!(corrupt, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_journal_line_is_tolerated_on_resume() {
        let dir = tmpdir("torn");
        let path = dir.join(JOURNAL_FILE);
        let mut text = String::new();
        JobResult {
            id: "whole".to_string(),
            title: "t".to_string(),
            outcome: JobOutcome::Ok,
            attempts: 1,
            wall_ms: 1,
            wait_ms: 0,
            error: None,
            tables: vec![RenderedTable::from_table(&table_for("whole"))],
            replayed: false,
        }
        .to_json()
        .write(&mut text);
        text.push_str("\n{\"job\":\"torn\",\"outco");
        std::fs::write(&path, text).unwrap();
        let (journal, corrupt) = load_journal(&cwp_chaos::RealIo, &path).unwrap();
        assert_eq!(journal.len(), 1);
        assert!(journal.contains_key("whole"));
        assert_eq!(
            corrupt, 0,
            "a torn final line is truncation, not corruption"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_lines_are_counted_and_exported_on_resume() {
        let dir = tmpdir("corrupt");
        let path = dir.join(JOURNAL_FILE);
        let mut text = String::new();
        JobResult {
            id: "whole".to_string(),
            title: "t".to_string(),
            outcome: JobOutcome::Ok,
            attempts: 1,
            wall_ms: 1,
            wait_ms: 0,
            error: None,
            tables: vec![RenderedTable::from_table(&table_for("whole"))],
            replayed: false,
        }
        .to_json()
        .write(&mut text);
        // Valid JSON, but not a JobResult: the lenient reader used to
        // skip these silently; now they are counted.
        text.push_str(
            "\n{\"not\":\"a job result\"}\n{\"job\":\"half\",\"outcome\":\"nonsense\"}\n",
        );
        std::fs::write(&path, text).unwrap();

        let (journal, corrupt) = load_journal(&cwp_chaos::RealIo, &path).unwrap();
        assert_eq!(journal.len(), 1);
        assert_eq!(corrupt, 2);

        // A resumed run exports the count into the caller's registry.
        let registry = Arc::new(Registry::new());
        let mut c = config();
        c.journal_dir = Some(dir.clone());
        c.resume = true;
        c.registry = Some(Arc::clone(&registry));
        let summary = Runner::new(c)
            .run(vec![Job::new(
                "whole",
                "must not re-run",
                1,
                |_lab| -> Result<Vec<Table>, String> {
                    panic!("resume must not re-run a journaled job")
                },
            )])
            .unwrap();
        assert_eq!(summary.results[0].outcome, JobOutcome::Skipped);
        assert_eq!(registry.counter("checkpoint_corrupt_lines").value(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_checkpoint_journal_survives_a_fault_injecting_backend() {
        use cwp_chaos::{FaultPlan, FaultyIo};

        let dir = tmpdir("faulty-journal");
        // Transient-only faults: EINTR storms the retry loops absorb.
        let io = Arc::new(FaultyIo::new(FaultPlan::transient_only(200_000, 0xC4A0)));
        let mut c = config();
        c.journal_dir = Some(dir.clone());
        c.io = IoHandle::new(io);
        let jobs: Vec<Job> = ["a", "b", "c"].iter().map(|id| ok_job(id)).collect();
        let summary = Runner::new(c).run(jobs).unwrap();
        assert_eq!(summary.count(JobOutcome::Ok), 3);

        // The journal on disk is complete and replayable.
        let (journal, corrupt) = load_journal(&cwp_chaos::RealIo, &dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(journal.len(), 3);
        assert_eq!(corrupt, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_successes_count_as_failures() {
        let jobs = vec![Job::new("hollow", "no rows", 1, |_lab| {
            let mut t = Table::new("hollow", "no rows", "x");
            t.columns(["v"]);
            Ok(vec![t])
        })];
        let summary = Runner::new(config()).run(jobs).unwrap();
        assert_eq!(summary.results[0].outcome, JobOutcome::Ok);
        assert_eq!(summary.empty(), 1);
        assert_eq!(summary.failures(), 1);
        assert!(
            summary.describe().contains("1 empty"),
            "{}",
            summary.describe()
        );
    }

    #[test]
    fn from_experiment_runs_the_real_thing() {
        let e = crate::experiments::by_id("table2").unwrap();
        let job = Job::from_experiment(&e);
        assert_eq!(job.id, "table2");
        let summary = Runner::new(config()).run(vec![job]).unwrap();
        assert_eq!(summary.results[0].outcome, JobOutcome::Ok);
        assert!(!summary.results[0].is_empty());
    }
}
