//! The two batch workloads: `figures_quick` (every experiment through the
//! supervised runner) and `sweep_paper` (one wide banked sweep per
//! workload at paper scale).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cwp::cache::CacheConfig;
use cwp::core::experiments;
use cwp::core::lab::WORKLOAD_NAMES;
use cwp::core::runner::{Job, Runner, RunnerConfig};
use cwp::core::{Lab, TraceStore};
use cwp::trace::Scale;

use crate::spans::Tracer;
use crate::{
    cache_config, fnv, layers, median, nproc, peak_rss_mb, percentile, Args, Outcome, FNV_OFFSET,
};

/// FNV-1a of `figures --scale quick all`'s stdout (every rendered table
/// followed by a newline, in paper order).
const FIGURES_QUICK_DIGEST: u64 = 0x35ae_d455_1dc3_9abf;
/// FNV-1a over the `Debug` rendering of every `sweep_paper` outcome.
const SWEEP_PAPER_DIGEST: u64 = 0x255c_68da_5cc8_2902;

/// The `sweep_paper` bank: the six write-policy combinations over the
/// Figure 10/18 size range (1 KB to 128 KB) at 16 B lines.
pub fn sweep_bank() -> Vec<CacheConfig> {
    layers::POLICIES
        .iter()
        .flat_map(|(_, hit, miss)| {
            [1, 2, 4, 8, 16, 32, 64, 128].map(|kb| cache_config(kb, 16, 1, *hit, *miss))
        })
        .collect()
}

fn runner_config(store: Arc<TraceStore>) -> RunnerConfig {
    let mut config = RunnerConfig::new(Scale::Quick);
    config.workers = nproc();
    config.sim_threads = nproc();
    config.trace_store = Some(store);
    config
}

/// Builds a workload's set-up and drops it: what a fresh `figures` or
/// sweep process pays before its first simulation.
pub fn setup_only(workload: &str) -> Result<(), String> {
    match workload {
        "figures_quick" => {
            let store = Arc::new(TraceStore::new(Scale::Quick));
            let runner = Runner::new(runner_config(store));
            let jobs: Vec<Job> = experiments::all()
                .iter()
                .map(Job::from_experiment)
                .collect();
            std::hint::black_box((&runner, &jobs));
        }
        "sweep_paper" => {
            let mut lab = Lab::new(Scale::Paper);
            lab.set_threads(nproc());
            std::hint::black_box((&lab, sweep_bank()));
        }
        other => return Err(format!("no process set-up for {other}")),
    }
    Ok(())
}

/// The end-to-end metrics of a batch workload. Its unit of work is the
/// whole job (all experiments, or all six sweeps), so throughput is jobs
/// per second and the latency percentiles are over pass wall times.
/// Returns `wall_s`, the median pass.
fn put_batch_metrics(out: &mut Outcome, walls: &[f64], setup_s: f64) -> f64 {
    let wall_s = median(walls);
    out.put("wall_s", wall_s, "s");
    out.put("setup_s", setup_s, "s");
    out.put("peak_rss_mb", peak_rss_mb("self"), "MB");
    out.put(
        "throughput_rps",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    out.put("latency_p50_ms", wall_s * 1e3, "ms");
    out.put("latency_p99_ms", percentile(walls, 99.0) * 1e3, "ms");
    wall_s
}

/// Whole batch passes: at least one, and another only while it can be
/// expected to finish within `seconds` of the start.
fn passes<T>(seconds: u64, mut pass: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = vec![pass()?];
    while start.elapsed() * (out.len() as u32 + 1) / out.len() as u32 <= budget {
        out.push(pass()?);
    }
    Ok(out)
}

/// What one `figures_quick` pass produced.
struct FiguresPass {
    wall_s: f64,
    job_s: BTreeMap<String, f64>,
    digest: u64,
    sims: u64,
    jobs: u64,
    failed: u64,
    store: (u64, u64, u64),
}

fn figures_pass(tracer: &Arc<Tracer>) -> Result<FiguresPass, String> {
    let store = Arc::new(TraceStore::new(Scale::Quick));
    let runner = Runner::new(runner_config(Arc::clone(&store)));
    let job_s = Arc::new(Mutex::new(BTreeMap::new()));
    let start = Instant::now();
    let summary = tracer.span("runner", "Runner::run", None, |root| {
        let jobs: Vec<Job> = experiments::all()
            .into_iter()
            .map(|e| {
                let tracer = Arc::clone(tracer);
                let job_s = Arc::clone(&job_s);
                Job::new(e.id, e.title, e.cost, move |lab| {
                    let t = Instant::now();
                    let name = format!("Experiment::run {}", e.id);
                    let out = tracer.span("experiment", name, root, |_| {
                        e.run_checked(lab).map_err(|err| err.to_string())
                    });
                    job_s
                        .lock()
                        .expect("job timing lock")
                        .insert(e.id.to_string(), t.elapsed().as_secs_f64());
                    out
                })
            })
            .collect();
        runner.run(jobs)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let summary = summary.map_err(|e| format!("runner supervision failed: {e}"))?;
    let mut digest = FNV_OFFSET;
    for result in &summary.results {
        for table in &result.tables {
            digest = fnv(digest, table.markdown.as_bytes());
            digest = fnv(digest, b"\n");
        }
    }
    let job_s = Arc::try_unwrap(job_s)
        .map_err(|_| "job timings still shared".to_string())?
        .into_inner()
        .expect("job timing lock");
    Ok(FiguresPass {
        wall_s,
        job_s,
        digest,
        sims: summary.simulations,
        jobs: summary.results.len() as u64,
        failed: summary.failures() as u64,
        store: (store.hits(), store.misses(), store.used_bytes()),
    })
}

fn check_figures(out: &mut Outcome, pass: &FiguresPass) {
    out.check(pass.digest == FIGURES_QUICK_DIGEST, || {
        format!(
            "figures_quick table digest {:#018x} != pinned {FIGURES_QUICK_DIGEST:#018x}",
            pass.digest
        )
    });
    // One capture per workload. `runner.sims` and `store.hits` are not
    // checked: each runner worker memoizes in its own lab, so they depend
    // on which worker ran which job.
    let six = WORKLOAD_NAMES.len() as u64;
    out.check(pass.store.1 == six, || {
        format!("store misses {} != {six}", pass.store.1)
    });
    out.attempted += pass.jobs;
    out.failed += pass.failed;
}

pub fn figures_quick(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let untraced = Arc::new(Tracer::new(false));
    let setup_s = crate::setup_in_fresh_processes("figures_quick")?;
    let runs = passes(args.seconds, || figures_pass(&untraced))?;
    for pass in &runs {
        check_figures(&mut out, pass);
    }
    let wall_s = put_batch_metrics(
        &mut out,
        &runs.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        setup_s,
    );
    if !args.trace {
        return Ok(out);
    }

    let tracer = Arc::new(Tracer::new(true));
    let traced = figures_pass(&tracer)?;
    check_figures(&mut out, &traced);
    for (id, secs) in &traced.job_s {
        out.put(format!("runner.exp_s.{id}"), *secs, "s");
    }
    out.put("runner.sims", traced.sims as f64, "count");
    out.put("store.hits", traced.store.0 as f64, "count");
    out.put("store.misses", traced.store.1 as f64, "count");
    out.put(
        "store.used_mb",
        traced.store.2 as f64 / (1024.0 * 1024.0),
        "MB",
    );
    layers::finish_traced(&mut out, &tracer, args, wall_s, traced.wall_s)?;
    Ok(out)
}

/// What one `sweep_paper` pass produced.
struct SweepPass {
    wall_s: f64,
    /// Seconds spent in `Lab::outcomes_sweep`.
    sweep_s: f64,
    ref_configs: u64,
    digest: u64,
    runs: u64,
    shards: (u64, u64),
    store: (u64, u64, u64),
}

fn sweep_pass(tracer: &Tracer, bank: &[CacheConfig]) -> SweepPass {
    let mut lab = Lab::new(Scale::Paper);
    lab.set_threads(nproc());
    let mut sweep_s = 0.0;
    let mut ref_configs = 0u64;
    let mut digest = FNV_OFFSET;
    let start = Instant::now();
    tracer.span("sweep", "sweep_paper pass", None, |root| {
        for name in WORKLOAD_NAMES {
            let store = Arc::clone(lab.store());
            let trace = tracer.span(
                "store",
                format!("TraceStore::get_or_record {name}"),
                root,
                |_| store.get_or_record(lab.workload(name)),
            );
            let refs = trace.map_or(0, |t| t.len() as u64);
            let t = Instant::now();
            let outcomes = tracer.span("lab", format!("Lab::outcomes_sweep {name}"), root, |_| {
                lab.outcomes_sweep(name, bank)
            });
            sweep_s += t.elapsed().as_secs_f64();
            ref_configs += refs * bank.len() as u64;
            for o in &outcomes {
                digest = fnv(digest, format!("{o:?}").as_bytes());
            }
        }
    });
    let store = lab.store();
    SweepPass {
        wall_s: start.elapsed().as_secs_f64(),
        sweep_s,
        ref_configs,
        digest,
        runs: lab.runs(),
        shards: (lab.shard_report().executed, lab.shard_report().stolen),
        store: (store.hits(), store.misses(), store.used_bytes()),
    }
}

fn check_sweep(out: &mut Outcome, pass: &SweepPass, bank: usize) {
    out.check(pass.digest == SWEEP_PAPER_DIGEST, || {
        format!(
            "sweep_paper outcome digest {:#018x} != pinned {SWEEP_PAPER_DIGEST:#018x}",
            pass.digest
        )
    });
    let expected_runs = (WORKLOAD_NAMES.len() * bank) as u64;
    out.check(pass.runs == expected_runs, || {
        format!(
            "lab ran {} simulations, expected {expected_runs}",
            pass.runs
        )
    });
    // One capture and one replayed lookup per workload.
    let six = WORKLOAD_NAMES.len() as u64;
    out.check((pass.store.0, pass.store.1) == (six, six), || {
        format!(
            "store (hits, misses) {:?} != ({six}, {six})",
            (pass.store.0, pass.store.1)
        )
    });
    out.check(pass.ref_configs > 0, || {
        "sweep simulated no references".to_string()
    });
    out.attempted += WORKLOAD_NAMES.len() as u64;
}

pub fn sweep_paper(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let bank = sweep_bank();
    let untraced = Tracer::new(false);
    let setup_s = crate::setup_in_fresh_processes("sweep_paper")?;
    let runs = passes(args.seconds, || Ok(sweep_pass(&untraced, &bank)))?;
    for pass in &runs {
        check_sweep(&mut out, pass, bank.len());
    }
    let wall_s = put_batch_metrics(
        &mut out,
        &runs.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        setup_s,
    );
    if !args.trace {
        return Ok(out);
    }

    let tracer = Tracer::new(true);
    let traced = sweep_pass(&tracer, &bank);
    check_sweep(&mut out, &traced, bank.len());
    out.put(
        "sim.ref_configs_per_s",
        traced.ref_configs as f64 / traced.sweep_s,
        "1/s",
    );
    out.put("shard.executed", traced.shards.0 as f64, "count");
    out.put("shard.stolen", traced.shards.1 as f64, "count");
    out.put("store.hits", traced.store.0 as f64, "count");
    out.put("store.misses", traced.store.1 as f64, "count");
    out.put(
        "store.used_mb",
        traced.store.2 as f64 / (1024.0 * 1024.0),
        "MB",
    );
    layers::finish_traced(&mut out, &tracer, args, wall_s, traced.wall_s)?;
    Ok(out)
}
