//! Chaos harness for `cwp-serve`: the server binary is driven over TCP
//! through concurrent clients, injected worker panics, hostile input,
//! tiny deadlines, mid-pipeline disconnects, and a mid-run SIGKILL with
//! a warm restart. The invariants under test:
//!
//! - every admitted request gets exactly one response, and shed
//!   requests get a typed `overloaded` rejection — never silence;
//! - hostile bytes (malformed JSON, oversized lines, half-written
//!   requests) produce typed errors or clean drops, never a crash;
//! - after a SIGKILL and restart on the same memo directory, resent
//!   requests are answered from the journal, byte-identical to a
//!   direct in-process `sweep` over the recording.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use cwp::cache::{CacheConfig, WriteHitPolicy, WriteMissPolicy};
use cwp::core::sim::{sweep, Source};
use cwp::core::store::TraceStore;
use cwp::serve::{Client, Reject, Request, Response, ResultSummary};
use cwp::trace::{workloads, Scale};

struct ServerProcess {
    child: Child,
    addr: String,
}

impl ServerProcess {
    fn spawn(extra: &[&str]) -> ServerProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cwp-serve"))
            .args(["--scale", "test", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn cwp-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read LISTENING line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected server greeting {line:?}"))
            .to_string();
        ServerProcess { child, addr }
    }

    /// SIGKILL — no graceful shutdown, exactly what the crash-safety
    /// claims are about.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cwp-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The request grid shared by the chaos tests: 2 workloads x 4 sizes x
/// 2 policies = 16 distinct sweep points.
fn grid() -> Vec<(String, CacheConfig)> {
    let mut points = Vec::new();
    for workload in ["ccom", "yacc"] {
        for size in [1024u32, 4096, 8192, 16384] {
            for (hit, miss) in [
                (WriteHitPolicy::WriteBack, WriteMissPolicy::FetchOnWrite),
                (WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteValidate),
            ] {
                let config = CacheConfig::builder()
                    .size_bytes(size)
                    .line_bytes(16)
                    .write_hit(hit)
                    .write_miss(miss)
                    .build()
                    .unwrap();
                points.push((workload.to_string(), config));
            }
        }
    }
    points
}

/// Computes the ground truth for the grid with a direct, in-process
/// banked replay — the results the server must match byte for byte.
fn ground_truth(points: &[(String, CacheConfig)]) -> Vec<ResultSummary> {
    let store = TraceStore::new(Scale::Test);
    let mut by_workload: HashMap<&str, Vec<(usize, CacheConfig)>> = HashMap::new();
    for (index, (workload, config)) in points.iter().enumerate() {
        by_workload
            .entry(workload)
            .or_default()
            .push((index, *config));
    }
    let mut results = vec![None; points.len()];
    for (workload, entries) in by_workload {
        let trace = store
            .get_or_record(workloads::by_name(workload).unwrap().as_ref())
            .unwrap();
        let configs: Vec<CacheConfig> = entries.iter().map(|(_, c)| *c).collect();
        let (outcomes, _) = sweep(Source::Recorded(&trace), &configs, 1, None);
        for ((index, _), outcome) in entries.iter().zip(outcomes.expect("uncancellable sweep")) {
            results[*index] = Some(ResultSummary::from_outcome(&outcome));
        }
    }
    results.into_iter().map(|r| r.unwrap()).collect()
}

#[test]
fn hostile_bytes_get_typed_errors_and_never_kill_the_server() {
    let server = ServerProcess::spawn(&["--workers", "2"]);
    let mut client = Client::connect(&server.addr).unwrap();
    client
        .set_recv_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Malformed JSON, wrong shapes, unknown fields: typed bad_request.
    for line in [
        "{]",
        "hello",
        "[]",
        "{\"id\": 1}",
        "{\"id\": 1, \"workload\": \"ccom\", \"bogus\": true}",
        "{\"id\": 1, \"workload\": \"ccom\", \"config\": {\"ways\": 2}}",
    ] {
        client.send_raw(line).unwrap();
        match client.recv().unwrap() {
            Response::Error {
                reject: Reject::BadRequest { .. },
                ..
            } => {}
            other => panic!("{line:?} should be bad_request, got {other:?}"),
        }
    }

    // An oversized line: typed rejection (the server may then close
    // this connection to resynchronize).
    let huge = format!("{{\"id\": 2, \"workload\": \"{}\"}}", "y".repeat(70_000));
    client.send_raw(&huge).unwrap();
    match client.recv().unwrap() {
        Response::Error {
            reject: Reject::BadRequest { detail },
            ..
        } => assert!(detail.contains("cap"), "detail: {detail}"),
        other => panic!("oversized line should be bad_request, got {other:?}"),
    }

    // A half-written request followed by disconnect: dropped silently.
    {
        let mut raw = TcpStream::connect(&server.addr).unwrap();
        raw.write_all(b"{\"id\": 3, \"workload\": \"cc").unwrap();
        // Dropping the stream closes it mid-line.
    }

    // The server is still healthy: a fresh client gets a real answer.
    let mut fresh = Client::connect(&server.addr).unwrap();
    fresh
        .set_recv_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let request = Request {
        id: 9,
        workload: "ccom".to_string(),
        config: CacheConfig::builder().size_bytes(2048).build().unwrap(),
        deadline_ms: None,
        priority: 0,
        req_key: None,
    };
    match fresh.call(&request).unwrap() {
        Response::Ok { id: 9, .. } => {}
        other => panic!("expected a served result, got {other:?}"),
    }
}

#[test]
fn overload_sheds_typed_and_every_request_gets_exactly_one_response() {
    let server = ServerProcess::spawn(&[
        "--workers",
        "1",
        "--queue-capacity",
        "2",
        "--per-client",
        "1000",
        "--max-batch",
        "1",
    ]);
    let mut client = Client::connect(&server.addr).unwrap();
    client
        .set_recv_timeout(Some(Duration::from_secs(120)))
        .unwrap();

    // Burst 60 requests with distinct ids into a queue of 2 with one
    // worker and no coalescing: most must shed.
    let total = 60u64;
    for id in 1..=total {
        let request = Request {
            id,
            workload: "grr".to_string(),
            config: CacheConfig::builder()
                .size_bytes(1 << (8 + (id % 6) as u32))
                .build()
                .unwrap(),
            deadline_ms: None,
            priority: 0,
            req_key: None,
        };
        client.send(&request).unwrap();
    }
    let mut seen: HashMap<u64, u32> = HashMap::new();
    let mut ok = 0u32;
    let mut shed = 0u32;
    for _ in 0..total {
        match client.recv().unwrap() {
            Response::Ok { id, .. } => {
                *seen.entry(id).or_insert(0) += 1;
                ok += 1;
            }
            Response::Error {
                id: Some(id),
                reject: Reject::Overloaded { retry_after_ms },
            } => {
                assert!(retry_after_ms > 0, "retry hint must be positive");
                *seen.entry(id).or_insert(0) += 1;
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok + shed, total as u32);
    assert!(shed > 0, "a queue of 2 must shed under a 60-burst");
    assert!(ok > 0, "some requests must be served");
    assert_eq!(seen.len() as u64, total, "every id answered");
    assert!(
        seen.values().all(|&n| n == 1),
        "exactly one response per id"
    );
    // And not a single extra response beyond the 60.
    client
        .set_recv_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    assert!(client.recv().is_err(), "no duplicate responses may arrive");
}

#[test]
fn tiny_deadlines_produce_typed_deadline_exceeded() {
    let server = ServerProcess::spawn(&["--workers", "1"]);
    let mut client = Client::connect(&server.addr).unwrap();
    client
        .set_recv_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    // Occupy the single worker with a real request first.
    let busy = Request {
        id: 1,
        workload: "liver".to_string(),
        config: CacheConfig::builder().size_bytes(16384).build().unwrap(),
        deadline_ms: None,
        priority: 3, // highest priority: served first
        req_key: None,
    };
    let doomed = Request {
        id: 2,
        workload: "liver".to_string(),
        config: CacheConfig::builder().size_bytes(8192).build().unwrap(),
        deadline_ms: Some(0),
        priority: 0,
        req_key: None,
    };
    client.send(&busy).unwrap();
    client.send(&doomed).unwrap();
    let mut saw = (false, false);
    for _ in 0..2 {
        match client.recv().unwrap() {
            Response::Ok { id: 1, .. } => saw.0 = true,
            Response::Error {
                id: Some(2),
                reject: Reject::DeadlineExceeded { deadline_ms },
            } => {
                assert_eq!(deadline_ms, 0);
                saw.1 = true;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(saw, (true, true));
}

#[test]
fn lifecycle_events_reconcile_exactly_with_the_metrics_snapshot() {
    let dir = temp_dir("events");
    let events_path = dir.join("events.jsonl");
    let server = ServerProcess::spawn(&[
        "--workers",
        "1",
        "--threads",
        "2",
        "--queue-capacity",
        "4",
        "--per-client",
        "1000",
        "--max-batch",
        "4",
        "--events",
        events_path.to_str().unwrap(),
    ]);
    let mut client = Client::connect(&server.addr).unwrap();
    client
        .set_recv_timeout(Some(Duration::from_secs(120)))
        .unwrap();

    // Occupy the single worker, admit one request whose deadline has
    // already passed, then burst same-workload requests into the
    // 4-deep queue: the doomed one expires while queued, the surplus
    // sheds, and the queued survivors coalesce into banked passes when
    // the worker frees up.
    let busy = Request {
        id: 1,
        workload: "liver".to_string(),
        config: CacheConfig::builder().size_bytes(16384).build().unwrap(),
        deadline_ms: None,
        priority: 3,
        req_key: None,
    };
    client.send(&busy).unwrap();
    let doomed = Request {
        id: 2,
        workload: "ccom".to_string(),
        config: CacheConfig::builder().size_bytes(2048).build().unwrap(),
        deadline_ms: Some(0),
        priority: 0,
        req_key: None,
    };
    client.send(&doomed).unwrap();
    let burst = 8u64;
    for n in 0..burst {
        let request = Request {
            id: 3 + n,
            workload: "ccom".to_string(),
            config: CacheConfig::builder()
                .size_bytes(1 << (9 + (n % 5) as u32))
                .build()
                .unwrap(),
            deadline_ms: None,
            priority: 0,
            req_key: None,
        };
        client.send(&request).unwrap();
    }
    // Exactly one response per request, whatever its fate.
    let mut answered = 0u64;
    while answered < burst + 2 {
        match client.recv().unwrap() {
            Response::Ok { .. }
            | Response::Error {
                id: Some(_),
                reject:
                    Reject::Overloaded { .. } | Reject::DeadlineExceeded { .. } | Reject::Failed { .. },
            } => answered += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }

    // Every lifecycle counter settles before its response is sent, so
    // once all responses are in, a snapshot taken over the same
    // protocol is final for this traffic.
    let snapshot = client.fetch_metrics(10_000).unwrap();
    let counter = |name: &str| {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(cwp::obs::Json::as_u64)
            .unwrap_or_else(|| panic!("snapshot missing counter {name:?}"))
    };

    // Count lifecycle tags in the event stream. Events are written
    // unbuffered before the response they precede, so the file is
    // complete by now too.
    let text = std::fs::read_to_string(&events_path).unwrap();
    let mut tags: HashMap<String, u64> = HashMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let json = cwp::obs::Json::parse(line).unwrap();
        let tag = json
            .get("ev")
            .and_then(cwp::obs::Json::as_str)
            .expect("event line carries an ev tag")
            .to_string();
        *tags.entry(tag).or_insert(0) += 1;
    }
    let events = |tag: &str| tags.get(tag).copied().unwrap_or(0);

    // The five request-lifecycle event totals must equal the metrics
    // counters exactly — not approximately.
    assert_eq!(events("req_admitted"), counter("admitted"));
    assert_eq!(events("req_shed"), counter("shed"));
    assert_eq!(events("req_deadline"), counter("deadline_expired"));
    assert_eq!(events("req_degraded"), counter("degraded"));
    assert_eq!(events("req_coalesced"), counter("coalesced"));
    // And the traffic actually exercised the interesting paths.
    assert!(counter("admitted") > 0, "nothing was admitted");
    assert!(counter("shed") > 0, "an 8-burst into a 4-queue must shed");
    assert!(
        counter("deadline_expired") > 0,
        "the expired deadline must be counted"
    );
    assert_eq!(
        counter("admitted"),
        counter("served") + counter("deadline_expired") + counter("failed"),
        "every admitted request settles exactly once"
    );
    // The shard scheduler's accounting must reconcile with itself: every
    // banked pass executes at least one shard, a steal is always a
    // subset of an execution, and the shard_us histogram records exactly
    // one sample per executed shard.
    assert!(
        counter("shards_executed") > 0,
        "simulated traffic must run shards"
    );
    assert!(counter("shards_stolen") <= counter("shards_executed"));
    let shard_us = snapshot
        .get("histograms")
        .and_then(|h| h.get("shard_us"))
        .and_then(cwp::obs::HistogramSnapshot::from_json)
        .expect("snapshot missing shard_us histogram");
    assert_eq!(shard_us.count, counter("shards_executed"));
}

#[test]
fn sigkill_and_resume_loses_nothing_and_matches_direct_simulation() {
    let memo_dir = temp_dir("memo");
    let memo_arg = memo_dir.to_str().unwrap();
    let points = grid();
    let expected = ground_truth(&points);

    let server_args = [
        "--workers",
        "2",
        "--fault-one-in",
        "8",
        "--max-attempts",
        "4",
        "--seed",
        "77",
        "--memo-dir",
        memo_arg,
    ];
    let mut server = ServerProcess::spawn(&server_args);

    // Phase A: two concurrent clients walk the grid (ids = grid index)
    // until the rug is pulled. Whatever was answered must already be
    // correct; transport errors just end the phase.
    let addr = server.addr.clone();
    let phase_a: Vec<std::thread::JoinHandle<HashMap<u64, ResultSummary>>> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let points = points.clone();
            std::thread::spawn(move || {
                let mut answered = HashMap::new();
                let Ok(mut client) = Client::connect(&addr) else {
                    return answered;
                };
                let _ = client.set_recv_timeout(Some(Duration::from_secs(10)));
                for _round in 0..4 {
                    for (index, (workload, config)) in points.iter().enumerate() {
                        let request = Request {
                            id: index as u64,
                            workload: workload.clone(),
                            config: *config,
                            deadline_ms: None,
                            priority: 0,
                            req_key: None,
                        };
                        match client.call(&request) {
                            Ok(Response::Ok { id, result, .. }) => {
                                answered.insert(id, result);
                            }
                            Ok(Response::Error {
                                reject: Reject::Overloaded { .. },
                                ..
                            }) => {}
                            Ok(other) => panic!("unexpected response {other:?}"),
                            Err(_) => return answered, // server died mid-call
                        }
                    }
                }
                answered
            })
        })
        .collect();

    // Let the clients make some progress, then SIGKILL mid-run.
    std::thread::sleep(Duration::from_millis(400));
    server.kill();
    let mut phase_a_results: HashMap<u64, ResultSummary> = HashMap::new();
    for handle in phase_a {
        for (id, result) in handle.join().unwrap() {
            // Two clients may both have answers for an id; they must
            // agree (same digest) since results are deterministic.
            if let Some(previous) = phase_a_results.insert(id, result.clone()) {
                assert_eq!(previous, result, "clients disagree on id {id}");
            }
        }
    }

    // Phase B: restart on the same memo directory and resend the whole
    // grid. Nothing may be lost, nothing may change.
    let server = ServerProcess::spawn(&server_args);
    let mut client = Client::connect(&server.addr).unwrap();
    client
        .set_recv_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut memo_hits = 0u32;
    for (index, (workload, config)) in points.iter().enumerate() {
        let request = Request {
            id: index as u64,
            workload: workload.clone(),
            config: *config,
            deadline_ms: None,
            priority: 0,
            req_key: None,
        };
        let response = loop {
            match client.call(&request).unwrap() {
                Response::Error {
                    reject: Reject::Overloaded { retry_after_ms },
                    ..
                } => std::thread::sleep(Duration::from_millis(retry_after_ms.min(50))),
                other => break other,
            }
        };
        match response {
            Response::Ok {
                id,
                result,
                memo_hit,
                ..
            } => {
                assert_eq!(id, index as u64);
                assert_eq!(
                    result, expected[index],
                    "served result for point {index} diverges from a direct sweep"
                );
                if let Some(before) = phase_a_results.get(&id) {
                    assert_eq!(before, &result, "restart changed the answer for id {id}");
                }
                if memo_hit {
                    memo_hits += 1;
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    // The journal survived the SIGKILL: at least the phase-A answers
    // must come back as memo hits without re-simulation.
    assert!(
        phase_a_results.is_empty() || memo_hits > 0,
        "phase A answered {} points but the restarted server re-simulated everything",
        phase_a_results.len()
    );
}
