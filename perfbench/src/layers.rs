//! The per-layer ledger of a traced run.
//!
//! A traced run reports three kinds of per-layer numbers:
//!
//! - what the workload's own traced pass did at each layer boundary the
//!   benchmark can see (store, shard and runner counts, server stages),
//!   with each span layer's self time;
//! - layer probes: timed calls into each module's public functions over
//!   fixed inputs (the six `Scale::Quick` recordings), identical on every
//!   workload;
//! - the tracing overhead, as the gap between the traced and the
//!   untraced pass of the same run.
//!
//! A ledger metric the workload does not exercise reads 0.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cwp::buffers::write_buffer::CoalescingWriteBuffer;
use cwp::buffers::write_cache::WriteCache;
use cwp::cache::{CacheConfig, SoaCache, WriteHitPolicy, WriteMissPolicy};
use cwp::core::experiments;
use cwp::core::lab::WORKLOAD_NAMES;
use cwp::core::sim::{replay, simulate_many_sharded};
use cwp::core::{TraceStore, WriteStream};
use cwp::mem::{MainMemory, NextLevel};
use cwp::serve::protocol::config_key;
use cwp::serve::{Engine, EngineConfig, MemoStore, Request, Response, ResultSummary};
use cwp::trace::{workloads, AccessKind, MemRef, RecordedTrace, Scale, TraceSink};

use crate::spans::Tracer;
use crate::{cache_config, median, nproc, Args, Outcome};

/// The six write-policy combinations, with their metric suffixes.
pub const POLICIES: [(&str, WriteHitPolicy, WriteMissPolicy); 6] = [
    (
        "wb_fow",
        WriteHitPolicy::WriteBack,
        WriteMissPolicy::FetchOnWrite,
    ),
    (
        "wb_wv",
        WriteHitPolicy::WriteBack,
        WriteMissPolicy::WriteValidate,
    ),
    (
        "wt_fow",
        WriteHitPolicy::WriteThrough,
        WriteMissPolicy::FetchOnWrite,
    ),
    (
        "wt_wv",
        WriteHitPolicy::WriteThrough,
        WriteMissPolicy::WriteValidate,
    ),
    (
        "wt_wa",
        WriteHitPolicy::WriteThrough,
        WriteMissPolicy::WriteAround,
    ),
    (
        "wt_wi",
        WriteHitPolicy::WriteThrough,
        WriteMissPolicy::WriteInvalidate,
    ),
];

/// Span layers whose self time the ledger reports.
pub const SPAN_LAYERS: [&str; 10] = [
    "runner",
    "experiment",
    "sweep",
    "store",
    "lab",
    "serve.client",
    "serve.queue",
    "serve.prep",
    "serve.sim",
    "serve.memo",
];

/// Per-layer metrics (`--trace 1`), besides one `runner.exp_s.<id>` per
/// experiment.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("trace.emit_ns_per_ref", "ns"),
    ("trace.record_ns_per_ref", "ns"),
    ("trace.decode_ns_per_ref", "ns"),
    ("trace.hash_ns_per_ref", "ns"),
    ("trace.bytes_per_ref", "B"),
    ("cache.soa_ns_per_ref.wb_fow", "ns"),
    ("cache.soa_ns_per_ref.wb_wv", "ns"),
    ("cache.soa_ns_per_ref.wt_fow", "ns"),
    ("cache.soa_ns_per_ref.wt_wv", "ns"),
    ("cache.soa_ns_per_ref.wt_wa", "ns"),
    ("cache.soa_ns_per_ref.wt_wi", "ns"),
    ("cache.full_ns_per_ref", "ns"),
    ("sim.bank_ns_per_ref_config", "ns"),
    ("sim.fanout_ns_per_added_config", "ns"),
    ("sim.ref_configs_per_s", "1/s"),
    ("shard.speedup", "x"),
    ("shard.executed", "count"),
    ("shard.stolen", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.used_mb", "MB"),
    ("runner.sims", "count"),
    ("buffers.write_buffer_ns_per_store", "ns"),
    ("buffers.write_cache_ns_per_store", "ns"),
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.memo_get_us", "us"),
    ("serve.memo_put_us", "us"),
    ("serve.engine_hit_us", "us"),
    ("serve.engine_miss_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.batch_size", "count"),
    ("serve.queue_us", "us"),
    ("serve.prep_us", "us"),
    ("serve.sim_us", "us"),
    ("serve.memo_hit_share", "frac"),
    ("failed_frac", "frac"),
    ("self_s.runner", "s"),
    ("self_s.experiment", "s"),
    ("self_s.sweep", "s"),
    ("self_s.store", "s"),
    ("self_s.lab", "s"),
    ("self_s.serve.client", "s"),
    ("self_s.serve.queue", "s"),
    ("self_s.serve.prep", "s"),
    ("self_s.serve.sim", "s"),
    ("self_s.serve.memo", "s"),
    ("tracing.wall_s", "s"),
    ("tracing.untraced_wall_s", "s"),
    ("tracing.overhead_frac", "frac"),
    ("tracing.spans", "count"),
];

/// `runner.exp_s.<id>` for every registered experiment.
pub fn exp_metric_names() -> impl Iterator<Item = (String, &'static str)> {
    experiments::all()
        .into_iter()
        .map(|e| (format!("runner.exp_s.{}", e.id), "s"))
}

/// Completes a traced run's ledger: span self times, tracing overhead,
/// the span file, the layer probes, and 0 for every metric the
/// workload did not exercise.
pub fn finish_traced(
    out: &mut Outcome,
    tracer: &Tracer,
    args: &Args,
    untraced_wall_s: f64,
    traced_wall_s: f64,
) -> Result<(), String> {
    let selfs = tracer.self_seconds();
    for layer in SPAN_LAYERS {
        out.put(
            format!("self_s.{layer}"),
            selfs.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    out.put("tracing.wall_s", traced_wall_s, "s");
    out.put("tracing.untraced_wall_s", untraced_wall_s, "s");
    out.put(
        "tracing.overhead_frac",
        traced_wall_s / untraced_wall_s - 1.0,
        "frac",
    );
    out.put("tracing.spans", tracer.len() as f64, "count");
    let path = PathBuf::from(".bench_out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: wrote {} spans to {}",
        tracer.len(),
        path.display()
    );

    probes(out)?;

    out.put(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "frac",
    );
    for (name, unit) in PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(exp_metric_names())
    {
        out.metrics.entry(name).or_insert((0.0, unit));
    }
    Ok(())
}

/// Seconds `f` takes.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Counts references without keeping them.
struct CountSink(u64);

impl TraceSink for CountSink {
    fn record(&mut self, r: MemRef) {
        self.0 += u64::from(black_box(r).size);
    }
}

/// Runs every layer probe and records its metrics.
fn probes(out: &mut Outcome) -> Result<(), String> {
    let scale = Scale::Quick;
    let suite = workloads::suite();

    // cwp-trace: generator emit, record, decode, hash, footprint.
    let mut refs = 0u64;
    let mut emit_s = 0.0;
    for w in &suite {
        let mut sink = CountSink(0);
        let (summary, secs) = timed(|| w.run(scale, &mut sink));
        black_box(sink.0);
        refs += summary.reads + summary.writes;
        emit_s += secs;
    }
    let store = TraceStore::new(scale);
    let (traces, record_s) = timed(|| {
        suite
            .iter()
            .map(|w| {
                store
                    .get_or_record(w.as_ref())
                    .ok_or("quick trace fits the store")
            })
            .collect::<Result<Vec<Arc<RecordedTrace>>, _>>()
    });
    let traces = traces?;
    let recorded: u64 = traces.iter().map(|t| t.len() as u64).sum();
    if recorded != refs {
        return Err(format!(
            "recorded {recorded} refs, generators emitted {refs}"
        ));
    }
    let (_, decode_s) = timed(|| {
        for t in &traces {
            let mut acc = 0u64;
            for chunk in t.chunks() {
                for r in chunk.iter() {
                    acc = acc.wrapping_add(r.addr ^ u64::from(r.before_insts));
                }
            }
            black_box(acc);
        }
    });
    let (_, hash_s) = timed(|| {
        for t in &traces {
            black_box(t.content_hash());
        }
    });
    let bytes: u64 = traces.iter().map(|t| t.approx_bytes()).sum();
    let per_ref = |secs: f64| secs * 1e9 / refs as f64;
    out.put("trace.emit_ns_per_ref", per_ref(emit_s), "ns");
    out.put("trace.record_ns_per_ref", per_ref(record_s), "ns");
    out.put("trace.decode_ns_per_ref", per_ref(decode_s), "ns");
    out.put("trace.hash_ns_per_ref", per_ref(hash_s), "ns");
    out.put("trace.bytes_per_ref", bytes as f64 / refs as f64, "B");

    // cwp-cache: the SoA tag store per policy over decoded references,
    // and the data-carrying engine.
    let mut soa_s = [0.0f64; POLICIES.len()];
    for t in &traces {
        let decoded: Vec<MemRef> = t.iter().collect();
        for (slot, (_, hit, miss)) in soa_s.iter_mut().zip(POLICIES) {
            let mut cache = SoaCache::new(cache_config(8, 16, 1, hit, miss));
            let (_, secs) = timed(|| {
                for r in &decoded {
                    match r.kind {
                        AccessKind::Read => cache.read(r.addr, r.size as usize),
                        AccessKind::Write => cache.write(r.addr, r.size as usize),
                    }
                }
            });
            black_box(cache.stats());
            *slot += secs;
        }
    }
    for ((name, _, _), secs) in POLICIES.iter().zip(soa_s) {
        out.put(format!("cache.soa_ns_per_ref.{name}"), per_ref(secs), "ns");
    }
    let wb = cache_config(
        8,
        16,
        1,
        WriteHitPolicy::WriteBack,
        WriteMissPolicy::FetchOnWrite,
    );
    let (_, full_s) = timed(|| {
        for t in &traces {
            black_box(replay(t, &wb));
        }
    });
    out.put("cache.full_ns_per_ref", per_ref(full_s), "ns");

    // cwp-core: banked fan-out and the shard scheduler.
    let bank: Vec<CacheConfig> = POLICIES
        .iter()
        .flat_map(|(_, h, m)| [4u32, 32].map(|kb| cache_config(kb, 16, 1, *h, *m)))
        .collect();
    let sweep = |configs: &[CacheConfig], threads: usize| {
        timed(|| {
            for t in &traces {
                let (outcomes, _) = simulate_many_sharded(t, configs, threads, None);
                black_box(outcomes.expect("uncancellable sweep"));
            }
        })
        .1
    };
    let one_s = sweep(&bank[..1], 1);
    let bank_s = sweep(&bank, 1);
    let parallel_s = sweep(&bank, nproc());
    let k = bank.len() as f64;
    out.put(
        "sim.bank_ns_per_ref_config",
        bank_s * 1e9 / (refs as f64 * k),
        "ns",
    );
    out.put(
        "sim.fanout_ns_per_added_config",
        (bank_s - one_s) * 1e9 / (refs as f64 * (k - 1.0)),
        "ns",
    );
    out.put("shard.speedup", bank_s / parallel_s, "x");

    // cwp-buffers: the coalescing write buffer and the write cache over
    // every workload's store stream.
    let streams: Vec<WriteStream> = traces
        .iter()
        .map(|t| {
            let mut s = WriteStream::default();
            t.replay(&mut s);
            s
        })
        .collect();
    let stores: u64 = streams.iter().map(|s| s.events.len() as u64).sum();
    let (_, wbuf_s) = timed(|| {
        for s in &streams {
            let mut wb = CoalescingWriteBuffer::new(8, 16, 5);
            for ev in &s.events {
                wb.write(ev.cycle, ev.addr);
            }
            wb.flush();
            black_box(wb.stats());
        }
    });
    let (_, wcache_s) = timed(|| {
        for s in &streams {
            let mut wc = WriteCache::new(6, 8, MainMemory::new());
            let data = [0u8; 8];
            for ev in &s.events {
                wc.write_through(ev.addr, &data[..ev.size as usize]);
            }
            wc.flush();
            black_box(wc.stats());
        }
    });
    out.put(
        "buffers.write_buffer_ns_per_store",
        wbuf_s * 1e9 / stores as f64,
        "ns",
    );
    out.put(
        "buffers.write_cache_ns_per_store",
        wcache_s * 1e9 / stores as f64,
        "ns",
    );

    serve_probes(out, &traces)
}

/// cwp-serve in process: protocol codec, memo store, and the engine
/// without TCP.
fn serve_probes(out: &mut Outcome, traces: &[Arc<RecordedTrace>]) -> Result<(), String> {
    const CALLS: usize = 2000;
    let points: Vec<(&str, CacheConfig)> = crate::serve::warm_grid();
    let lines: Vec<String> = (0..CALLS)
        .map(|i| {
            let (w, c) = points[i % points.len()];
            Request {
                id: i as u64,
                workload: w.to_string(),
                config: c,
                deadline_ms: None,
                priority: 0,
                req_key: None,
            }
            .to_line()
        })
        .collect();
    let (parsed, parse_s) = timed(|| {
        lines
            .iter()
            .map(|l| Request::from_line(l).map_err(|(_, r)| format!("{r:?}")))
            .collect::<Result<Vec<_>, _>>()
    });
    let parsed = parsed?;
    out.put("serve.parse_us", parse_s * 1e6 / CALLS as f64, "us");

    let summary = {
        let (outcomes, _) = simulate_many_sharded(&traces[0], &[points[0].1], 1, None);
        ResultSummary::from_outcome(&outcomes.expect("uncancellable sweep")[0])
    };
    let responses: Vec<Response> = (0..CALLS as u64)
        .map(|id| Response::Ok {
            id,
            result: summary.clone(),
            memo_hit: true,
            degraded: false,
            coalesced: false,
            dedup: false,
            wall_ms: 1,
            timing: Default::default(),
        })
        .collect();
    let (_, encode_s) = timed(|| {
        for r in &responses {
            black_box(r.to_line());
        }
    });
    out.put("serve.encode_us", encode_s * 1e6 / CALLS as f64, "us");

    let memo = MemoStore::ephemeral();
    let keys: Vec<String> = parsed.iter().map(|r| config_key(&r.config)).collect();
    let (_, put_s) = timed(|| {
        for (i, key) in keys.iter().enumerate() {
            let hash = i as u64;
            memo.put(hash, key.clone(), summary.clone())
                .expect("in-memory memo never fails");
        }
    });
    let (_, get_s) = timed(|| {
        for (i, key) in keys.iter().enumerate() {
            black_box(memo.get(i as u64, key));
        }
    });
    out.put("serve.memo_put_us", put_s * 1e6 / CALLS as f64, "us");
    out.put("serve.memo_get_us", get_s * 1e6 / CALLS as f64, "us");

    // The engine without TCP: misses on distinct points, then hits on
    // the same points, one request at a time.
    let mut engine_config = EngineConfig::new(Scale::Quick);
    engine_config.workers = nproc();
    engine_config.sim_threads = nproc();
    let engine = Engine::start(engine_config).map_err(|e| format!("engine start: {e}"))?;
    let (client, rx) = engine.attach_client();
    let call = |id: u64, workload: &str, config: CacheConfig| -> Result<(bool, f64), String> {
        let line = Request {
            id,
            workload: workload.to_string(),
            config,
            deadline_ms: None,
            priority: 0,
            req_key: None,
        }
        .to_line();
        let start = Instant::now();
        engine.submit(client, &line);
        let response = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .map_err(|e| format!("engine response: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        match response {
            Response::Ok { memo_hit, .. } => Ok((memo_hit, secs)),
            other => Err(format!("engine probe request {id} failed: {other:?}")),
        }
    };
    let prime = cache_config(
        512,
        16,
        1,
        WriteHitPolicy::WriteBack,
        WriteMissPolicy::FetchOnWrite,
    );
    let mut id = 0u64;
    for w in WORKLOAD_NAMES {
        id += 1;
        call(id, w, prime)?;
    }
    let probe_points: Vec<(&str, CacheConfig)> = points.iter().step_by(12).copied().collect();
    let mut misses = Vec::new();
    let mut hits = Vec::new();
    for &(w, c) in &probe_points {
        id += 1;
        let (hit, secs) = call(id, w, c)?;
        if hit {
            return Err(format!("engine probe {w}/{c} hit before it was simulated"));
        }
        misses.push(secs);
    }
    for _ in 0..5 {
        for &(w, c) in &probe_points {
            id += 1;
            let (hit, secs) = call(id, w, c)?;
            if !hit {
                return Err(format!(
                    "engine probe {w}/{c} missed after it was simulated"
                ));
            }
            hits.push(secs);
        }
    }
    engine.detach_client(client);
    engine.shutdown();
    out.put("serve.engine_miss_us", median(&misses) * 1e6, "us");
    out.put("serve.engine_hit_us", median(&hits) * 1e6, "us");
    Ok(())
}
