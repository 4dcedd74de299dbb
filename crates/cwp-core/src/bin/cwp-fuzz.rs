//! Deterministic differential fuzzer for the simulation engine.
//!
//! ```text
//! cwp-fuzz [--seed N] [--cases N] [--max-refs N] [--out DIR]
//!          [--replay PATH] [--shrink-demo]
//! ```
//!
//! Each case draws a cache configuration and a reference stream from a
//! [`SplitMix64`] chain and lock-steps every optimized engine path —
//! the data-carrying cache, the recorded-trace replay, both plans of
//! the `sweep` driver (sharded over a recording, streamed from a live
//! run), and the audited replay — against the naive `cwp-verify`
//! [`ModelCache`] oracle. The sweeps also carry the configuration's
//! write-hit twin when it has one, so the plan's derived write-through
//! outcomes face the oracle too. Configurations cycle through all
//! six valid write-policy combinations; streams cycle through windows
//! of the six paper workloads plus pure-random, strided, and hot-set
//! shapes. On divergence the case is shrunk (drop reference chunks,
//! simplify the configuration toward the default) to a minimal JSONL
//! repro written under `--out` (default `tests/repros/`), and the run
//! exits nonzero.
//!
//! `--replay PATH` re-checks a saved case file or every `*.jsonl` in a
//! directory (the committed repro corpus). `--shrink-demo` proves the
//! shrinker end to end: it plants an off-by-one accounting bug in the
//! model, shrinks the resulting divergence to a handful of references,
//! and writes the minimized case — which must agree under the correct
//! model — into `--out`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cwp_buffers::CoalescingWriteBuffer;
use cwp_cache::{CacheConfig, WriteHitPolicy, WriteMissPolicy};
use cwp_core::{replay, simulate, simulate_audited, sweep, SimOutcome, Source};
use cwp_mem::rng::SplitMix64;
use cwp_trace::{workloads, MemRef, RecordedTrace, Scale, TraceSink, TraceSummary, Workload};
use cwp_verify::{check_case, check_case_with, shrink, CaseRef, FuzzCase, ModelBug, ModelCache};

fn usage() -> &'static str {
    "usage: cwp-fuzz [--seed N] [--cases N] [--max-refs N] [--out DIR]\n\
     \x20               [--replay PATH] [--shrink-demo]\n\
     --seed: master seed for the case chain (default 1)\n\
     --cases: number of generated cases to check (default 200)\n\
     --max-refs: reference-stream length cap per case (default 256)\n\
     --out: directory minimized repros are written to (default tests/repros)\n\
     --replay: re-check a saved .jsonl case, or every case in a directory\n\
     --shrink-demo: plant a model bug, shrink the divergence, save the repro"
}

struct Cli {
    seed: u64,
    cases: u64,
    max_refs: usize,
    out: PathBuf,
    replay: Option<PathBuf>,
    shrink_demo: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        cases: 200,
        max_refs: 256,
        out: PathBuf::from("tests/repros"),
        replay: None,
        shrink_demo: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = value(&mut args, "--seed")?;
                cli.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--cases" => {
                let v = value(&mut args, "--cases")?;
                cli.cases = v.parse().map_err(|_| format!("bad cases '{v}'"))?;
            }
            "--max-refs" => {
                let v = value(&mut args, "--max-refs")?;
                cli.max_refs = match v.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("bad max-refs '{v}'")),
                };
            }
            "--out" => cli.out = PathBuf::from(value(&mut args, "--out")?),
            "--replay" => cli.replay = Some(PathBuf::from(value(&mut args, "--replay")?)),
            "--shrink-demo" => cli.shrink_demo = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

// ---------------------------------------------------------------------
// Reference streams as workloads
// ---------------------------------------------------------------------

/// Wraps a case's reference stream as a [`Workload`] so it can drive
/// every engine entry point: `simulate`, `RecordedTrace::record`,
/// `sweep` from either source, and the audited replay. `scale` is
/// ignored — fuzz streams are already exactly the length the case says.
struct RefStream {
    refs: Vec<MemRef>,
}

impl RefStream {
    /// Builds the stream, or `None` if any reference is not expressible
    /// as a [`MemRef`] (engine traces carry only aligned 4/8-byte
    /// accesses; foreign case files may be looser).
    fn from_case(case: &FuzzCase) -> Option<RefStream> {
        let mut refs = Vec::with_capacity(case.refs.len());
        for r in &case.refs {
            if !matches!(r.size, 4 | 8) || r.addr % u64::from(r.size) != 0 {
                return None;
            }
            refs.push(if r.write {
                MemRef::write(r.addr, r.size)
            } else {
                MemRef::read(r.addr, r.size)
            });
        }
        Some(RefStream { refs })
    }
}

impl Workload for RefStream {
    fn name(&self) -> &'static str {
        "fuzz-stream"
    }

    fn description(&self) -> &'static str {
        "synthetic reference stream generated by cwp-fuzz"
    }

    fn run(&self, _scale: Scale, sink: &mut dyn TraceSink) -> TraceSummary {
        let mut summary = TraceSummary::default();
        for r in &self.refs {
            summary.instructions += u64::from(r.before_insts);
            if r.is_write() {
                summary.writes += 1;
            } else {
                summary.reads += 1;
            }
            sink.record(*r);
        }
        summary
    }
}

// ---------------------------------------------------------------------
// Case generation
// ---------------------------------------------------------------------

/// The six valid write-policy combinations, cycled so every fuzz run
/// covers all of them regardless of case count.
const POLICY_COMBOS: [(WriteHitPolicy, WriteMissPolicy); 6] = [
    (WriteHitPolicy::WriteBack, WriteMissPolicy::FetchOnWrite),
    (WriteHitPolicy::WriteBack, WriteMissPolicy::WriteValidate),
    (WriteHitPolicy::WriteThrough, WriteMissPolicy::FetchOnWrite),
    (WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteValidate),
    (WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteAround),
    (
        WriteHitPolicy::WriteThrough,
        WriteMissPolicy::WriteInvalidate,
    ),
];

fn gen_config(rng: &mut SplitMix64, combo: usize) -> CacheConfig {
    let (hit, miss) = POLICY_COMBOS[combo % POLICY_COMBOS.len()];
    let size = 256u32 << rng.below(7); // 256B ..= 16KB
    let line = 4u32 << rng.below(5); // 4B ..= 64B
    let ways = 1u32 << rng.below(3); // 1, 2, 4
    CacheConfig::builder()
        .size_bytes(size)
        .line_bytes(line)
        .associativity(ways)
        .write_hit(hit)
        .write_miss(miss)
        .partial_writeback(hit == WriteHitPolicy::WriteBack && rng.gen_bool())
        .build()
        .expect("generated geometry is always valid: line*ways <= 256 <= size")
}

/// Lazily recorded paper-workload traces, reused across cases.
struct WorkloadPool {
    names: Vec<&'static str>,
    traces: Vec<Option<Vec<CaseRef>>>,
}

impl WorkloadPool {
    fn new() -> WorkloadPool {
        let suite = workloads::suite();
        WorkloadPool {
            names: suite.iter().map(|w| w.name()).collect(),
            traces: suite.iter().map(|_| None).collect(),
        }
    }

    fn refs(&mut self, idx: usize) -> &[CaseRef] {
        if self.traces[idx].is_none() {
            let suite = workloads::suite();
            let rec = RecordedTrace::record(suite[idx].as_ref(), Scale::Test);
            let refs = rec
                .iter()
                .map(|r| CaseRef {
                    write: r.is_write(),
                    addr: r.addr,
                    size: r.size,
                })
                .collect();
            self.traces[idx] = Some(refs);
        }
        self.traces[idx].as_deref().expect("just recorded")
    }
}

fn gen_refs(
    rng: &mut SplitMix64,
    shape: usize,
    max_refs: usize,
    pool: &mut WorkloadPool,
) -> (String, Vec<CaseRef>) {
    let aligned = |rng: &mut SplitMix64, span: u64| -> (u64, u8) {
        let size: u64 = if rng.gen_bool() { 4 } else { 8 };
        (rng.below(span / size) * size, size as u8)
    };
    match shape {
        // Windows of the six paper workloads: realistic locality.
        s if s < 6 => {
            let name = pool.names[s];
            let trace = pool.refs(s);
            let n = max_refs.min(trace.len());
            let start = rng.below((trace.len() - n + 1) as u64) as usize;
            (
                format!("{name}-window@{start}"),
                trace[start..start + n].to_vec(),
            )
        }
        // Pure random over a region a few times the largest cache.
        6 => {
            let n = 1 + rng.below(max_refs as u64) as usize;
            let refs = (0..n)
                .map(|_| {
                    let (addr, size) = aligned(rng, 64 * 1024);
                    CaseRef {
                        write: rng.gen_bool(),
                        addr,
                        size,
                    }
                })
                .collect();
            ("pure-random".to_string(), refs)
        }
        // Strided sweep with a small hot set mixed in: exercises victim
        // selection, partial write-backs, and merge-on-fetch.
        _ => {
            let stride = 4u64 << rng.below(6); // 4 ..= 128
            let hot_lines = 1 + rng.below(4);
            let n = 1 + rng.below(max_refs as u64) as usize;
            let refs = (0..n)
                .map(|i| {
                    if rng.gen_bool() {
                        let (off, size) = aligned(rng, 64);
                        CaseRef {
                            write: true,
                            addr: rng.below(hot_lines) * 0x1000 + off,
                            size,
                        }
                    } else {
                        CaseRef {
                            write: rng.gen_bool(),
                            addr: (i as u64) * stride % (32 * 1024) / 4 * 4,
                            size: 4,
                        }
                    }
                })
                .collect();
            (format!("strided-{stride}"), refs)
        }
    }
}

fn gen_case(
    master: &mut SplitMix64,
    index: u64,
    max_refs: usize,
    pool: &mut WorkloadPool,
) -> FuzzCase {
    let seed = master.next_u64();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let config = gen_config(&mut rng, index as usize);
    let shape = rng.below(8) as usize;
    let (label, refs) = gen_refs(&mut rng, shape, max_refs, pool);
    FuzzCase {
        seed,
        label,
        config,
        refs,
    }
}

// ---------------------------------------------------------------------
// The full differential check
// ---------------------------------------------------------------------

/// The configuration with the other write-hit policy, for the miss
/// policies that admit both (fetch-on-write, write-validate). A sweep
/// runs one engine for such a pair and derives the write-through
/// member's outcome from the write-back one's.
fn twin_of(config: CacheConfig) -> Option<CacheConfig> {
    if config.write_miss().bypasses() {
        return None;
    }
    let hit = match config.write_hit() {
        WriteHitPolicy::WriteBack => WriteHitPolicy::WriteThrough,
        WriteHitPolicy::WriteThrough => WriteHitPolicy::WriteBack,
    };
    let twin = config.to_builder().write_hit(hit).build();
    Some(twin.expect("both write-hit policies allocate under this miss policy"))
}

/// Describes how the model's stats or total traffic for `config` over
/// the case's references diverge from `outcome`'s, if they do.
fn model_divergence(case: &FuzzCase, config: CacheConfig, outcome: &SimOutcome) -> Option<String> {
    let mut model = ModelCache::new(config);
    let mut buf = [0u8; 8];
    for r in &case.refs {
        if r.write {
            model.write(r.addr, &buf[..r.size as usize]);
        } else {
            model.read(r.addr, &mut buf[..r.size as usize]);
        }
    }
    model.flush();
    if model.stats() != outcome.stats {
        return Some(format!(
            "model stats diverge from live simulate for {config}"
        ));
    }
    if model.traffic() != outcome.traffic_total {
        return Some(format!(
            "model traffic diverges from live simulate for {config}"
        ));
    }
    None
}

/// Lock-steps every engine path against the model. Returns a
/// description of the first divergence, `None` when the case is clean.
fn full_check(case: &FuzzCase) -> Option<String> {
    // 1. Data-carrying engine vs model, byte-for-byte (reads, masks,
    //    stats, traffic, flush, post-flush memory image).
    if let Some(d) = check_case(case) {
        return Some(d.to_string());
    }
    // 2. Engine-path agreement: live generator run, recorded replay,
    //    both sweep plans (sharded over the recording, streamed from
    //    the live stream), and audited replay must all coincide — and
    //    match the model's (data-independent) stats and total traffic.
    let Some(stream) = RefStream::from_case(case) else {
        return None; // foreign case outside MemRef's alignment domain
    };
    let config = case.config;
    let twin = twin_of(config);
    let golden = simulate(&stream, Scale::Test, &config);
    let trace = RecordedTrace::record(&stream, Scale::Test);
    // The bank is [config, twin, default]: a fetch-on-write or
    // write-validate case builds a twin unit, whichever member it is.
    let bank: Vec<CacheConfig> = [Some(config), twin, Some(CacheConfig::default())]
        .into_iter()
        .flatten()
        .collect();
    let banked = |source| {
        sweep(source, &bank, 2, None)
            .0
            .expect("an uncancellable sweep yields one outcome per config")
    };
    let recorded = banked(Source::Recorded(&trace));
    let streamed = banked(Source::Live(&stream, Scale::Test));
    let paths = [
        ("replay", replay(&trace, &config)),
        ("banked-recorded", recorded[0].clone()),
        ("banked-streamed", streamed[0].clone()),
        (
            "audited-replay",
            match simulate_audited(Source::Recorded(&trace), &config) {
                Ok(out) => out,
                Err(e) => return Some(format!("audited replay failed: {e}")),
            },
        ),
    ];
    for (name, out) in &paths {
        if *out != golden {
            return Some(format!("engine path '{name}' diverges from live simulate"));
        }
    }
    if let Some(d) = model_divergence(case, config, &golden) {
        return Some(d);
    }
    if let Some(twin) = twin {
        let twin_golden = simulate(&stream, Scale::Test, &twin);
        for (name, outcomes) in [
            ("banked-recorded", &recorded),
            ("banked-streamed", &streamed),
        ] {
            if outcomes[1] != twin_golden {
                return Some(format!(
                    "engine path '{name}' diverges from live simulate for twin {twin}"
                ));
            }
        }
        if let Some(d) = model_divergence(case, twin, &twin_golden) {
            return Some(d);
        }
    }
    // 3. Coalescing write buffer conservation over the case's store
    //    stream: every write is either merged or (eventually) retired,
    //    and a flush leaves nothing pending.
    let mut wb = CoalescingWriteBuffer::new(8, config.line_bytes(), 5);
    let mut cycle = 0u64;
    let mut writes = 0u64;
    for r in &stream.refs {
        cycle += u64::from(r.before_insts);
        if r.is_write() {
            wb.write(cycle, r.addr);
            writes += 1;
        }
    }
    wb.flush();
    let s = wb.stats();
    if s.writes != writes || s.merged + s.retired != s.writes || wb.occupancy() != 0 {
        return Some(format!(
            "write buffer leaks entries: {s} for {writes} writes, {} left",
            wb.occupancy()
        ));
    }
    None
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

fn fuzz(cli: &Cli) -> ExitCode {
    let mut master = SplitMix64::seed_from_u64(cli.seed);
    let mut pool = WorkloadPool::new();
    let mut divergences = 0u64;
    for i in 0..cli.cases {
        let case = gen_case(&mut master, i, cli.max_refs, &mut pool);
        let Some(detail) = full_check(&case) else {
            continue;
        };
        divergences += 1;
        eprintln!(
            "case {i} (seed {:#x}, {}, {}): DIVERGED: {detail}",
            case.seed, case.label, case.config
        );
        let minimal = shrink(&case, &mut |c| full_check(c).is_some());
        let path = cli.out.join(format!("div-{:016x}.jsonl", case.seed));
        match minimal.save(&path) {
            Ok(()) => eprintln!(
                "  shrunk {} -> {} refs, saved to {}",
                case.refs.len(),
                minimal.refs.len(),
                path.display()
            ),
            Err(e) => eprintln!("  could not save repro to {}: {e}", path.display()),
        }
    }
    println!(
        "cwp-fuzz: {} cases checked (seed {}), {divergences} divergences",
        cli.cases, cli.seed
    );
    if divergences == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn replay_corpus(path: &Path) -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    if path.is_dir() {
        let entries = match std::fs::read_dir(path) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.extension().is_some_and(|x| x == "jsonl") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    if files.is_empty() {
        eprintln!("{}: no .jsonl cases found", path.display());
        return ExitCode::FAILURE;
    }
    let mut failures = 0u64;
    for file in &files {
        let case = match FuzzCase::load(file) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
                continue;
            }
        };
        match full_check(&case) {
            None => println!(
                "{}: ok ({} refs, {})",
                file.display(),
                case.refs.len(),
                case.config
            ),
            Some(detail) => {
                eprintln!("{}: DIVERGED: {detail}", file.display());
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("cwp-fuzz: {} repro case(s) replayed clean", files.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Proves the shrinker end to end against a *planted* bug: the engine
/// cannot be broken at runtime, so the off-by-one lives in the model
/// (`ModelBug::VictimDirtyBytesOffByOne`) and the divergence being
/// minimized is engine-vs-buggy-model. The saved repro must agree under
/// the correct model — it documents the shrinker, not a real bug.
fn shrink_demo(cli: &Cli) -> ExitCode {
    let mut rng = SplitMix64::seed_from_u64(cli.seed);
    // A small write-back cache thrashed by aligned writes: plenty of
    // dirty evictions for the planted off-by-one to skew.
    let config = CacheConfig::builder()
        .size_bytes(256)
        .line_bytes(16)
        .associativity(2)
        .write_hit(WriteHitPolicy::WriteBack)
        .write_miss(WriteMissPolicy::FetchOnWrite)
        .build()
        .expect("a valid demo configuration");
    let refs = (0..400)
        .map(|_| {
            let size: u64 = if rng.gen_bool() { 4 } else { 8 };
            CaseRef {
                write: rng.gen_bool(),
                addr: rng.below(4096 / size) * size,
                size: size as u8,
            }
        })
        .collect();
    let case = FuzzCase {
        seed: cli.seed,
        label: "shrink-demo".to_string(),
        config,
        refs,
    };
    let bug = ModelBug::VictimDirtyBytesOffByOne;
    let mut fails = |c: &FuzzCase| check_case_with(c, bug).is_some();
    if !fails(&case) {
        eprintln!("shrink-demo: the planted bug did not diverge; widen the stream");
        return ExitCode::FAILURE;
    }
    let minimal = shrink(&case, &mut fails);
    println!(
        "shrink-demo: {} refs -> {} refs against {}",
        case.refs.len(),
        minimal.refs.len(),
        minimal.config
    );
    if minimal.refs.len() > 16 {
        eprintln!(
            "shrink-demo: expected <= 16 refs, got {}",
            minimal.refs.len()
        );
        return ExitCode::FAILURE;
    }
    if let Some(d) = check_case(&minimal) {
        eprintln!("shrink-demo: minimized case disagrees under the correct model: {d}");
        return ExitCode::FAILURE;
    }
    let path = cli.out.join("shrink-demo-victim-dirty.jsonl");
    match minimal.save(&path) {
        Ok(()) => {
            println!("shrink-demo: saved {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shrink-demo: could not save {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &cli.replay {
        return replay_corpus(path);
    }
    if cli.shrink_demo {
        return shrink_demo(&cli);
    }
    fuzz(&cli)
}
