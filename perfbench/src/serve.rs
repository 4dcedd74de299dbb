//! The two serve workloads: a real `cwp-serve --scale quick` process over
//! TCP, driven closed-loop from this process.
//!
//! - `serve_warm`: default coalescing, every timed request a memo hit
//!   (the whole grid is warmed during set-up over one connection with
//!   window 1, so the warm-up work does not depend on timing).
//! - `serve_cold`: `--max-batch 1`, every timed request a distinct grid
//!   point, so every request is a memo miss doing exactly one
//!   simulation.
//!
//! Every served result is checked against a direct
//! `simulate_many_sharded` over the same recorded trace.

use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use cwp::cache::{CacheConfig, WriteHitPolicy, WriteMissPolicy};
use cwp::core::lab::WORKLOAD_NAMES;
use cwp::core::sim::simulate_many_sharded;
use cwp::mem::SplitMix64;
use cwp::obs::Json;
use cwp::serve::{Client, Request, Response, ResultSummary};
use cwp::trace::{workloads, RecordedTrace, Scale};

use crate::layers::POLICIES;
use crate::spans::Tracer;
use crate::{cache_config, layers, median, nproc, peak_rss_mb, percentile, Args, Outcome};

/// Client connections (at most `nproc` on any host).
const CONNECTIONS: usize = 2;
/// Requests each `serve_warm` connection keeps in flight.
const WARM_WINDOW: usize = 8;
/// Timed requests per requested second. The request count is fixed by
/// `--seconds` so `wall_s` measures the time to serve a fixed load;
/// these rates make a run last about `--seconds` on a 2-core host.
const WARM_REQUESTS_PER_S: u64 = 430;
const COLD_REQUESTS_PER_S: u64 = 60;
/// Set-up rounds per run; `setup_s` is their median. A cold set-up is
/// a fraction of a second, a warm one a few seconds.
const WARM_SETUP_ROUNDS: usize = 3;
const COLD_SETUP_ROUNDS: usize = 5;

/// The `serve_warm` grid: 6 workloads x 2 sizes x 6 policies, 16 B lines.
pub fn warm_grid() -> Vec<(&'static str, CacheConfig)> {
    let mut grid = Vec::new();
    for w in WORKLOAD_NAMES {
        for kb in [8, 32] {
            for (_, hit, miss) in POLICIES {
                grid.push((w, cache_config(kb, 16, 1, hit, miss)));
            }
        }
    }
    grid
}

/// The `serve_cold` grid: 6 workloads x 9 sizes x 4 line sizes x 3
/// associativities x 6 policies = 3888 points, 108 per (workload,
/// policy) stratum.
fn cold_grid() -> Vec<(&'static str, CacheConfig)> {
    let mut grid = Vec::new();
    for w in WORKLOAD_NAMES {
        for kb in [1, 2, 4, 8, 16, 32, 64, 128, 256] {
            for line in [8, 16, 32, 64] {
                for ways in [1, 2, 4] {
                    for (_, hit, miss) in POLICIES {
                        grid.push((w, cache_config(kb, line, ways, hit, miss)));
                    }
                }
            }
        }
    }
    grid
}

/// The cold stratum of a grid point: its (workload, policy) pair.
fn stratum((workload, config): &(&'static str, CacheConfig)) -> usize {
    let w = WORKLOAD_NAMES
        .iter()
        .position(|n| n == workload)
        .expect("grid workload");
    let p = POLICIES
        .iter()
        .position(|(_, h, m)| (*h, *m) == (config.write_hit(), config.write_miss()))
        .expect("grid policy");
    w * POLICIES.len() + p
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle(items: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// A configuration in neither grid: set-up requests use it to record
/// each workload's trace without touching a timed point.
fn outside_config() -> CacheConfig {
    cache_config(
        512,
        16,
        1,
        WriteHitPolicy::WriteBack,
        WriteMissPolicy::FetchOnWrite,
    )
}

/// A running `cwp-serve` child process. Dropping it kills and reaps it.
struct Server {
    child: Child,
    addr: String,
    /// Held open so the server never writes to a closed pipe.
    _stdout: std::io::BufReader<ChildStdout>,
}

impl Server {
    fn start(bin: &str, cold: bool) -> Result<Server, String> {
        let threads = nproc().to_string();
        let mut cmd = Command::new(bin);
        cmd.args(["--scale", "quick", "--addr", "127.0.0.1:0"])
            .args(["--workers", &threads, "--threads", &threads]);
        if cold {
            cmd.args(["--max-batch", "1"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .env("CWP_LOG", "warn")
            .spawn()
            .map_err(|e| format!("spawn {bin}: {e}"))?;
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("LISTENING ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => String::new(),
        };
        let server = Server {
            child,
            addr,
            _stdout: stdout,
        };
        if server.addr.is_empty() {
            return Err(format!("{bin} did not report LISTENING (got {line:?})"));
        }
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Graceful drain, then reap; kills the process if it does not exit
    /// within 30 s.
    fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr).and_then(|mut c| c.request_shutdown(u64::MAX));
        let deadline = Instant::now() + Duration::from_secs(30);
        while asked.is_ok() && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("cwp-serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("wait for cwp-serve: {e}")),
            }
        }
        Err(format!("cwp-serve did not drain: {asked:?}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One settled request of a load phase.
struct Settled {
    id: u64,
    point: usize,
    sent: Instant,
    latency_s: f64,
    response: Option<Response>,
}

/// Drives `plans[c]` (grid indices) over connection `c`, keeping
/// `window` requests in flight per connection. A request lost to a
/// transport error settles with no response.
fn closed_loop(
    addr: &str,
    grid: &[(&'static str, CacheConfig)],
    plans: &[Vec<usize>],
    window: usize,
    first_id: u64,
) -> (Vec<Settled>, f64) {
    let start = Instant::now();
    let settled = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(conn, plan)| {
                scope.spawn(move || {
                    let base = first_id + ((conn as u64) << 32);
                    connection(addr, grid, plan, window, base)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load connection thread panicked"))
            .collect::<Vec<_>>()
    });
    (settled, start.elapsed().as_secs_f64())
}

fn connection(
    addr: &str,
    grid: &[(&'static str, CacheConfig)],
    plan: &[usize],
    window: usize,
    base: u64,
) -> Vec<Settled> {
    let lost = |from: usize, pending: &HashMap<u64, (usize, Instant)>| {
        let mut out: Vec<Settled> = pending
            .iter()
            .map(|(&id, &(point, sent))| Settled {
                id,
                point,
                sent,
                latency_s: 0.0,
                response: None,
            })
            .collect();
        out.extend(plan[from..].iter().enumerate().map(|(i, &point)| Settled {
            id: base + (from + i) as u64,
            point,
            sent: Instant::now(),
            latency_s: 0.0,
            response: None,
        }));
        out
    };
    let mut pending: HashMap<u64, (usize, Instant)> = HashMap::new();
    let Ok(mut client) = Client::connect(addr) else {
        return lost(0, &pending);
    };
    let _ = client.set_recv_timeout(Some(Duration::from_secs(60)));
    let mut settled = Vec::with_capacity(plan.len());
    let mut next = 0usize;
    while next < plan.len() || !pending.is_empty() {
        while next < plan.len() && pending.len() < window {
            let (workload, config) = grid[plan[next]];
            let id = base + next as u64;
            let request = Request {
                id,
                workload: workload.to_string(),
                config,
                deadline_ms: None,
                priority: 0,
                req_key: None,
            };
            let sent = Instant::now();
            if client.send(&request).is_err() {
                return settled.into_iter().chain(lost(next, &pending)).collect();
            }
            pending.insert(id, (plan[next], sent));
            next += 1;
        }
        let response = match client.recv() {
            Ok(r) => r,
            Err(_) => return settled.into_iter().chain(lost(next, &pending)).collect(),
        };
        let id = match &response {
            Response::Ok { id, .. } => Some(*id),
            Response::Error { id, .. } => *id,
            _ => None,
        };
        let Some((point, sent)) = id.and_then(|id| pending.remove(&id)) else {
            // An answer to nothing we sent: the wire is desynchronised.
            return settled.into_iter().chain(lost(next, &pending)).collect();
        };
        settled.push(Settled {
            id: id.expect("matched above"),
            point,
            sent,
            latency_s: sent.elapsed().as_secs_f64(),
            response: Some(response),
        });
    }
    settled
}

/// Server-reported stage microseconds of a response.
fn stages(response: &Response) -> Vec<(String, u64)> {
    match response {
        Response::Ok { timing, .. } => timing.stages.clone(),
        _ => Vec::new(),
    }
}

/// Results a direct `simulate_many_sharded` over in-process recordings
/// gives for `points`, keyed by grid index.
fn expected(
    grid: &[(&'static str, CacheConfig)],
    points: &[usize],
) -> HashMap<usize, ResultSummary> {
    let mut by_workload: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for &p in points {
        let list = by_workload.entry(grid[p].0).or_default();
        if !list.contains(&p) {
            list.push(p);
        }
    }
    let mut out = HashMap::new();
    for (name, list) in by_workload {
        let w = workloads::by_name(name).expect("grid workloads exist");
        let trace = RecordedTrace::record(w.as_ref(), Scale::Quick);
        let configs: Vec<CacheConfig> = list.iter().map(|&p| grid[p].1).collect();
        let (outcomes, _) = simulate_many_sharded(&trace, &configs, nproc(), None);
        for (p, o) in list.iter().zip(outcomes.expect("uncancellable sweep")) {
            out.insert(*p, ResultSummary::from_outcome(&o));
        }
    }
    out
}

/// Segments a timed phase is cut into for its medians.
const SEGMENTS: usize = 10;

/// `wall_s` and p50 latency (ms) of a phase's served requests, steady
/// under seconds-long interference from other tenants of a shared host:
/// the requests, in completion order, are cut into [`SEGMENTS`] equal
/// parts; `wall_s` is [`SEGMENTS`] times the median part's duration and
/// the p50 is the median of the parts' median latencies.
fn segmented(ok: &[&Settled]) -> (f64, f64) {
    let Some(start) = ok.iter().map(|s| s.sent).min() else {
        return (0.0, 0.0);
    };
    let mut done: Vec<(f64, f64)> = ok
        .iter()
        .map(|s| {
            let sent = s.sent.duration_since(start).as_secs_f64();
            (sent + s.latency_s, s.latency_s * 1e3)
        })
        .collect();
    done.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let (mut durations, mut p50s) = (Vec::new(), Vec::new());
    let mut from = 0.0;
    for k in 0..SEGMENTS {
        let part = &done[k * done.len() / SEGMENTS..(k + 1) * done.len() / SEGMENTS];
        let Some(last) = part.last() else { continue };
        durations.push(last.0 - from);
        from = last.0;
        p50s.push(median(&part.iter().map(|d| d.1).collect::<Vec<_>>()));
    }
    (SEGMENTS as f64 * median(&durations), median(&p50s))
}

/// What one timed phase measured.
struct Phase {
    settled: Vec<Settled>,
    wall_s: f64,
}

fn account(
    out: &mut Outcome,
    phase: &Phase,
    cold: bool,
    want: &HashMap<usize, ResultSummary>,
    grid: &[(&'static str, CacheConfig)],
) {
    let mut by_tag: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &phase.settled {
        out.attempted += 1;
        match &s.response {
            Some(Response::Ok {
                result,
                memo_hit,
                coalesced,
                ..
            }) => {
                let (w, c) = grid[s.point];
                out.check(want.get(&s.point) == Some(result), || {
                    format!(
                        "request {} ({w}/{c}) served a result that differs from direct simulation",
                        s.id
                    )
                });
                out.check(*memo_hit != cold, || {
                    format!(
                        "request {} ({w}/{c}) memo_hit={memo_hit} on the {} path",
                        s.id,
                        if cold { "cold" } else { "warm" }
                    )
                });
                out.check(!(cold && *coalesced), || {
                    format!("request {} was coalesced", s.id)
                });
            }
            Some(Response::Error { reject, .. }) => {
                out.failed += 1;
                *by_tag.entry(reject.tag()).or_default() += 1;
            }
            Some(_) => {
                out.failed += 1;
                *by_tag.entry("unexpected").or_default() += 1;
            }
            None => {
                out.failed += 1;
                *by_tag.entry("transport").or_default() += 1;
            }
        }
    }
    if !by_tag.is_empty() {
        eprintln!("perfbench: failed requests by kind: {by_tag:?}");
    }
}

/// Counter `name` of a metrics snapshot.
fn counter(snapshot: &Json, name: &str) -> u64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn store_field(snapshot: &Json, name: &str) -> u64 {
    snapshot
        .get("store")
        .and_then(|s| s.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Sends `points` one at a time over one connection; every answer must
/// be a served result.
fn sequential(
    addr: &str,
    grid: &[(&'static str, CacheConfig)],
    points: &[usize],
    first_id: u64,
) -> Result<(), String> {
    let (settled, _) = closed_loop(addr, grid, &[points.to_vec()], 1, first_id);
    for s in settled {
        if !matches!(s.response, Some(Response::Ok { .. })) {
            return Err(format!("set-up request {} failed: {:?}", s.id, s.response));
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cold = args.workload == "serve_cold";
    let bin = args.serve_bin.clone().unwrap_or_else(|| {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
        format!("{dir}/release/cwp-serve")
    });
    let (grid, requests) = if cold {
        (cold_grid(), args.seconds * COLD_REQUESTS_PER_S)
    } else {
        (warm_grid(), args.seconds * WARM_REQUESTS_PER_S)
    };
    // The timed request plan. The grid splits into strata: each warm
    // point, or each cold (workload, policy) pair. A phase requests every
    // stratum equally often (cold: each time a fresh, distinct point), so
    // the seed picks points and order but not the mix of work.
    let strata = if cold {
        WORKLOAD_NAMES.len() * POLICIES.len()
    } else {
        grid.len()
    };
    let per_stratum = requests.div_ceil(strata as u64) as usize;
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); strata];
    for (i, point) in grid.iter().enumerate() {
        members[if cold { stratum(point) } else { i }].push(i);
    }
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    for m in &mut members {
        shuffle(m, &mut rng);
    }
    let phases = if args.trace { 2 } else { 1 };
    if cold && members.iter().any(|m| m.len() < phases * per_stratum) {
        return Err(format!(
            "{phases} x {per_stratum} distinct points per stratum exceed the cold grid"
        ));
    }
    let plans: Vec<Vec<Vec<usize>>> = (0..phases)
        .map(|p| {
            let mut phase: Vec<usize> = members
                .iter()
                .flat_map(|m| {
                    (0..per_stratum).map(move |j| if cold { m[p * per_stratum + j] } else { m[0] })
                })
                .collect();
            shuffle(&mut phase, &mut rng);
            (0..CONNECTIONS)
                .map(|c| phase.iter().skip(c).step_by(CONNECTIONS).copied().collect())
                .collect()
        })
        .collect();

    // Set-up, repeated; the last server stays up for the timed phase.
    let mut setup_times = Vec::new();
    let mut server = None;
    let rounds = if cold {
        COLD_SETUP_ROUNDS
    } else {
        WARM_SETUP_ROUNDS
    };
    for round in 0..rounds {
        if let Some(previous) = server.take() {
            Server::stop(previous)?;
        }
        let start = Instant::now();
        let s = Server::start(&bin, cold)?;
        if cold {
            // One request per workload records its trace, on a config
            // outside the timed grid.
            for (i, w) in WORKLOAD_NAMES.iter().enumerate() {
                let probe = vec![(*w, outside_config())];
                sequential(&s.addr, &probe, &[0], (round as u64) << 40 | i as u64)?;
            }
        } else {
            let all: Vec<usize> = (0..grid.len()).collect();
            sequential(&s.addr, &grid, &all, (round as u64) << 40)?;
        }
        setup_times.push(start.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up round");

    let run_phase = |plan: &[Vec<usize>], first_id: u64| {
        let window = if cold { 1 } else { WARM_WINDOW };
        let (settled, wall_s) = closed_loop(&server.addr, &grid, plan, window, first_id);
        Phase { settled, wall_s }
    };
    let untraced = run_phase(&plans[0], 1 << 48);
    // Created before the traced phase: span times count from here.
    let tracer = Tracer::new(true);
    let metrics = || {
        Client::connect(&server.addr)
            .and_then(|mut c| c.fetch_metrics(u64::MAX - 1))
            .map_err(|e| format!("metrics snapshot: {e}"))
    };
    // Every worker pass makes exactly one trace-store lookup, so store
    // lookups counted across the traced phase are its passes.
    let lookups = |snapshot: &Json| store_field(snapshot, "hits") + store_field(snapshot, "misses");
    let before = lookups(&metrics()?);
    let traced = if args.trace {
        Some(run_phase(&plans[1], 2 << 48))
    } else {
        None
    };
    let snapshot = metrics()?;
    let traced_passes = lookups(&snapshot) - before;
    let rss = peak_rss_mb(&server.pid());
    server.stop()?;

    let mut out = Outcome::default();
    let mut all_points: Vec<usize> = untraced.settled.iter().map(|s| s.point).collect();
    if let Some(t) = &traced {
        all_points.extend(t.settled.iter().map(|s| s.point));
    }
    let want = expected(&grid, &all_points);
    account(&mut out, &untraced, cold, &want, &grid);
    if let Some(t) = &traced {
        account(&mut out, t, cold, &want, &grid);
    }
    let served = (untraced.settled.len() + traced.as_ref().map_or(0, |t| t.settled.len())) as u64;
    if cold {
        out.check(counter(&snapshot, "coalesced") == 0, || {
            format!(
                "{} requests were coalesced",
                counter(&snapshot, "coalesced")
            )
        });
        out.check(counter(&snapshot, "memo_hits") == 0, || {
            format!(
                "{} memo hits on the cold path",
                counter(&snapshot, "memo_hits")
            )
        });
        let store = (
            store_field(&snapshot, "hits"),
            store_field(&snapshot, "misses"),
        );
        out.check(store == (served, 6), || {
            format!("store (hits, misses) {store:?} != ({served}, 6)")
        });
    }

    let ok: Vec<&Settled> = untraced
        .settled
        .iter()
        .filter(|s| matches!(s.response, Some(Response::Ok { .. })))
        .collect();
    let latencies: Vec<f64> = ok.iter().map(|s| s.latency_s * 1e3).collect();
    let (wall_s, p50_ms) = segmented(&ok);
    out.put("wall_s", wall_s, "s");
    out.put("setup_s", median(&setup_times), "s");
    out.put("peak_rss_mb", rss, "MB");
    out.put("throughput_rps", ok.len() as f64 / wall_s, "1/s");
    out.put("latency_p50_ms", p50_ms, "ms");
    out.put("latency_p99_ms", percentile(&latencies, 99.0), "ms");
    if latencies.len() < 1000 {
        eprintln!(
            "perfbench: only {} samples; fewer than 10 lie beyond p99",
            latencies.len()
        );
    }
    let Some(traced) = traced else {
        return Ok(out);
    };

    put_traced_ledger(&mut out, &tracer, &traced, &snapshot, traced_passes);
    layers::finish_traced(&mut out, &tracer, args, untraced.wall_s, traced.wall_s)?;
    Ok(out)
}

/// The serve part of the per-layer ledger, from the traced phase: one
/// client span per request, with the server's reported stages as child
/// spans placed inside it, and the server's counters after the phase.
/// `passes` is how many worker passes the server made during the phase.
fn put_traced_ledger(
    out: &mut Outcome,
    tracer: &Tracer,
    traced: &Phase,
    snapshot: &Json,
    passes: u64,
) {
    let mut wire_us = 0.0;
    let mut stage_us: BTreeMap<String, u64> = BTreeMap::new();
    let mut hits = 0u64;
    let mut simulated_refs = 0u64;
    for s in &traced.settled {
        let Some(response) = &s.response else {
            continue;
        };
        let start = tracer.ns(s.sent);
        let end = start + (s.latency_s * 1e9) as u64;
        let parent = tracer.record_ns("serve.client", "Client request", None, s.id, start, end);
        let stages = stages(response);
        let resident_ns: u64 = stages.iter().map(|(_, us)| us * 1000).sum();
        let wire_ns = (end - start).saturating_sub(resident_ns);
        wire_us += wire_ns as f64 / 1e3;
        let mut at = start + wire_ns / 2;
        for (stage, us) in &stages {
            let layer = match stage.as_str() {
                "queue" => "serve.queue",
                "prep" => "serve.prep",
                "sim" => "serve.sim",
                "memo" => "serve.memo",
                _ => "serve.client",
            };
            tracer.record_ns(layer, stage.clone(), Some(parent), s.id, at, at + us * 1000);
            at += us * 1000;
            *stage_us.entry(stage.clone()).or_default() += us;
        }
        if let Response::Ok {
            memo_hit, result, ..
        } = response
        {
            hits += u64::from(*memo_hit);
            if !memo_hit {
                simulated_refs += result.reads + result.writes;
            }
        }
    }
    let answered = traced
        .settled
        .iter()
        .filter(|s| s.response.is_some())
        .count() as f64;
    out.put("serve.wire_us", wire_us / answered.max(1.0), "us");
    for stage in ["queue", "prep", "sim"] {
        let total = stage_us.get(stage).copied().unwrap_or(0) as f64;
        out.put(format!("serve.{stage}_us"), total / answered.max(1.0), "us");
    }
    out.put(
        "serve.memo_hit_share",
        hits as f64 / answered.max(1.0),
        "frac",
    );
    out.put("serve.batch_size", answered / passes.max(1) as f64, "count");
    out.put(
        "sim.ref_configs_per_s",
        simulated_refs as f64 / traced.wall_s,
        "1/s",
    );
    out.put(
        "shard.executed",
        counter(snapshot, "shards_executed") as f64,
        "count",
    );
    out.put(
        "shard.stolen",
        counter(snapshot, "shards_stolen") as f64,
        "count",
    );
    out.put("store.hits", store_field(snapshot, "hits") as f64, "count");
    out.put(
        "store.misses",
        store_field(snapshot, "misses") as f64,
        "count",
    );
    out.put(
        "store.used_mb",
        store_field(snapshot, "bytes") as f64 / (1024.0 * 1024.0),
        "MB",
    );
}
