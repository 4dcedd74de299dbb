//! `cwp` — command-line front end for the cache write-policy simulator.
//!
//! ```text
//! cwp workloads [--scale test|quick|paper]
//! cwp simulate --workload ccom [--size 8K] [--line 16] [--assoc 1]
//!              [--hit wb|wt] [--miss fow|wv|wa|wi] [--partial-writeback]
//!              [--scale quick]
//! cwp sweep --workload liver --param size|line|assoc|miss [options as above]
//! cwp trace --workload grr --out grr.cwptrc [--scale quick]
//! cwp replay --trace grr.cwptrc [cache options as above]
//! cwp asm --trace kernel.s [cache options]
//! ```

use std::process::ExitCode;

use cwp::cache::{CacheConfig, WriteHitPolicy, WriteMissPolicy};
use cwp::core::sim::{simulate, SimOutcome};
use cwp::trace::{workloads, Scale, Workload};

fn usage() -> &'static str {
    "usage:\n  cwp workloads [--scale S]\n  cwp simulate --workload NAME [--size 8K] [--line 16] \
     [--assoc 1] [--hit wb|wt] [--miss fow|wv|wa|wi] [--partial-writeback] [--scale S]\n  \
     cwp sweep --workload NAME --param size|line|assoc|miss [same options]\n  \
     cwp trace --workload NAME --out FILE [--scale S]\n  \
     cwp replay --trace FILE [cache options as above]\n  \
     cwp asm --trace FILE.s [cache options] (assemble and run a program)\n\
     scales: test, quick, paper (default quick), or a positive factor of paper scale\n\
     (to regenerate the paper's figures, use: cargo run -p cwp-core --bin figures)"
}

#[derive(Debug)]
struct Options {
    workload: Option<String>,
    size: u32,
    line: u32,
    assoc: u32,
    hit: WriteHitPolicy,
    miss: WriteMissPolicy,
    partial_writeback: bool,
    scale: Scale,
    param: Option<String>,
    out: Option<String>,
    trace: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: None,
            size: 8 * 1024,
            line: 16,
            assoc: 1,
            hit: WriteHitPolicy::WriteBack,
            miss: WriteMissPolicy::FetchOnWrite,
            partial_writeback: false,
            scale: Scale::Quick,
            param: None,
            out: None,
            trace: None,
        }
    }
}

fn parse_size(s: &str) -> Result<u32, String> {
    let (num, mult) = if let Some(k) = s.strip_suffix(['K', 'k']) {
        (k, 1024)
    } else {
        (s, 1)
    };
    num.parse::<u32>()
        .map(|v| v * mult)
        .map_err(|_| format!("bad size '{s}' (try 8K or 8192)"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opt = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--workload" => opt.workload = Some(value("--workload")?),
            "--size" => opt.size = parse_size(&value("--size")?)?,
            "--line" => opt.line = parse_size(&value("--line")?)?,
            "--assoc" => {
                opt.assoc = value("--assoc")?
                    .parse()
                    .map_err(|_| "bad --assoc".to_string())?
            }
            "--hit" => {
                opt.hit = match value("--hit")?.as_str() {
                    "wb" | "write-back" => WriteHitPolicy::WriteBack,
                    "wt" | "write-through" => WriteHitPolicy::WriteThrough,
                    other => return Err(format!("unknown hit policy '{other}'")),
                }
            }
            "--miss" => {
                opt.miss = match value("--miss")?.as_str() {
                    "fow" | "fetch-on-write" => WriteMissPolicy::FetchOnWrite,
                    "wv" | "write-validate" => WriteMissPolicy::WriteValidate,
                    "wa" | "write-around" => WriteMissPolicy::WriteAround,
                    "wi" | "write-invalidate" => WriteMissPolicy::WriteInvalidate,
                    other => return Err(format!("unknown miss policy '{other}'")),
                }
            }
            "--partial-writeback" => opt.partial_writeback = true,
            "--scale" => {
                opt.scale = match value("--scale")?.as_str() {
                    "test" => Scale::Test,
                    "quick" => Scale::Quick,
                    "paper" => Scale::Paper,
                    other => match other.parse::<f64>() {
                        Ok(f) if f > 0.0 => Scale::Custom(f),
                        _ => return Err(format!("bad scale '{other}'")),
                    },
                }
            }
            "--param" => opt.param = Some(value("--param")?),
            "--out" => opt.out = Some(value("--out")?),
            "--trace" => opt.trace = Some(value("--trace")?),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opt)
}

fn config_from(opt: &Options) -> Result<CacheConfig, String> {
    CacheConfig::builder()
        .size_bytes(opt.size)
        .line_bytes(opt.line)
        .associativity(opt.assoc)
        .write_hit(opt.hit)
        .write_miss(opt.miss)
        .partial_writeback(opt.partial_writeback)
        .build()
        .map_err(|e| e.to_string())
}

fn workload_from(opt: &Options) -> Result<Box<dyn Workload>, String> {
    let name = opt.workload.as_deref().ok_or("--workload is required")?;
    if let Some(w) = workloads::by_name(name) {
        return Ok(w);
    }
    match name {
        "axpy" => Ok(Box::new(cwp::cpu::programs::axpy())),
        "memcpy" => Ok(Box::new(cwp::cpu::programs::memcpy())),
        "fill" => Ok(Box::new(cwp::cpu::programs::fill())),
        "sort" => Ok(Box::new(cwp::cpu::programs::sort())),
        _ => Err(format!("unknown workload '{name}' (see `cwp workloads`)")),
    }
}

fn report(out: &SimOutcome, config: &CacheConfig) {
    println!("trace:      {}", out.summary);
    println!(
        "accesses:   {} ({} reads, {} writes)",
        out.stats.accesses(),
        out.stats.reads,
        out.stats.writes
    );
    println!(
        "misses:     {} total ({:.3}% of accesses); {} fetch from next level",
        out.stats.total_misses(),
        out.stats.miss_rate() * 100.0,
        out.stats.fetch_misses(),
    );
    println!(
        "  reads:    {} misses ({} from partial write-validate lines)",
        out.stats.read_misses, out.stats.partial_read_misses
    );
    println!(
        "  writes:   {} misses ({:.1}% of all misses); {} invalidations",
        out.stats.write_misses,
        out.stats.write_miss_fraction().unwrap_or(0.0) * 100.0,
        out.stats.invalidations,
    );
    println!(
        "writes to already-dirty lines: {:.1}%",
        out.stats.dirty_write_fraction().unwrap_or(0.0) * 100.0
    );
    let v = out.stats.victims_with_flush();
    println!(
        "victims:    {} ({:.1}% dirty; {:.1}% of bytes dirty in dirty victims)",
        v.total,
        v.dirty_fraction().unwrap_or(0.0) * 100.0,
        v.bytes_dirty_in_dirty_fraction(config.line_bytes())
            .unwrap_or(0.0)
            * 100.0,
    );
    let t = out.traffic_total;
    println!(
        "back-side:  fetch {} txns/{} B; write-back {} txns/{} B; write-through {} txns/{} B",
        t.fetch.transactions,
        t.fetch.bytes,
        t.write_back.transactions,
        t.write_back.bytes,
        t.write_through.transactions,
        t.write_through.bytes,
    );
    println!(
        "per-instr:  {:.4} transactions, {:.4} bytes",
        out.transactions_per_instruction(),
        out.bytes_per_instruction()
    );
}

fn cmd_workloads(opt: &Options) -> ExitCode {
    println!(
        "{:10} {:>12} {:>12} {:>12}  description",
        "name", "instr", "reads", "writes"
    );
    let mut all: Vec<Box<dyn Workload>> = workloads::suite();
    all.push(Box::new(cwp::cpu::programs::axpy()));
    all.push(Box::new(cwp::cpu::programs::memcpy()));
    all.push(Box::new(cwp::cpu::programs::fill()));
    all.push(Box::new(cwp::cpu::programs::sort()));
    for w in all {
        let mut stats = cwp::trace::stats::TraceStats::new();
        let summary = w.run(opt.scale, &mut stats);
        println!(
            "{:10} {:>12} {:>12} {:>12}  {}",
            w.name(),
            summary.instructions,
            summary.reads,
            summary.writes,
            w.description()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_simulate(opt: &Options) -> Result<(), String> {
    let workload = workload_from(opt)?;
    let config = config_from(opt)?;
    println!(
        "workload:   {} ({})",
        workload.name(),
        workload.description()
    );
    println!("cache:      {config}");
    let out = simulate(workload.as_ref(), opt.scale, &config);
    report(&out, &config);
    Ok(())
}

fn cmd_sweep(opt: &Options) -> Result<(), String> {
    let workload = workload_from(opt)?;
    let param = opt
        .param
        .as_deref()
        .ok_or("--param is required for sweep")?;
    println!(
        "{:>18} {:>12} {:>10} {:>14} {:>16}",
        param, "misses", "miss %", "fetches", "txns/instr"
    );
    let run_one = |label: String, config: CacheConfig| {
        let out = simulate(workload.as_ref(), opt.scale, &config);
        println!(
            "{:>18} {:>12} {:>9.3}% {:>14} {:>16.4}",
            label,
            out.stats.total_misses(),
            out.stats.miss_rate() * 100.0,
            out.stats.fetch_misses(),
            out.transactions_per_instruction(),
        );
    };
    match param {
        "size" => {
            for kb in [1u32, 2, 4, 8, 16, 32, 64, 128] {
                let mut o = Options {
                    size: kb * 1024,
                    ..opts_clone(opt)
                };
                o.workload = opt.workload.clone();
                run_one(format!("{kb}KB"), config_from(&o)?);
            }
        }
        "line" => {
            for line in [4u32, 8, 16, 32, 64] {
                let mut o = Options {
                    line,
                    ..opts_clone(opt)
                };
                o.workload = opt.workload.clone();
                run_one(format!("{line}B"), config_from(&o)?);
            }
        }
        "assoc" => {
            for ways in [1u32, 2, 4, 8] {
                let mut o = Options {
                    assoc: ways,
                    ..opts_clone(opt)
                };
                o.workload = opt.workload.clone();
                run_one(format!("{ways}-way"), config_from(&o)?);
            }
        }
        "miss" => {
            for miss in WriteMissPolicy::ALL {
                let hit = if miss.bypasses() {
                    WriteHitPolicy::WriteThrough
                } else {
                    opt.hit
                };
                let mut o = Options {
                    miss,
                    hit,
                    ..opts_clone(opt)
                };
                o.workload = opt.workload.clone();
                run_one(miss.to_string(), config_from(&o)?);
            }
        }
        other => return Err(format!("unknown sweep parameter '{other}'")),
    }
    Ok(())
}

/// Clone the scalar fields of `Options` (workload is re-set by callers).
fn opts_clone(opt: &Options) -> Options {
    Options {
        workload: None,
        size: opt.size,
        line: opt.line,
        assoc: opt.assoc,
        hit: opt.hit,
        miss: opt.miss,
        partial_writeback: opt.partial_writeback,
        scale: opt.scale,
        param: None,
        out: None,
        trace: None,
    }
}

fn cmd_asm(opt: &Options) -> Result<(), String> {
    let path = opt
        .trace
        .as_deref()
        .ok_or("--file (via --trace) is required")?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = cwp::cpu::Program::assemble(&source).map_err(|e| format!("{path}: {e}"))?;
    let config = config_from(opt)?;
    println!(
        "program:    {path} ({} instructions)",
        program.instructions().len()
    );
    println!("cache:      {config}");
    let cache = cwp::cache::Cache::with_memory(config);
    let mut cpu = cwp::cpu::Cpu::new(program, cache);
    cpu.run(0).map_err(|e| e.to_string())?;
    cpu.port_mut().reset_stats();
    cpu.port_mut().next_level_mut().reset();
    let outcome = cpu.run(200_000_000).map_err(|e| e.to_string())?;
    if !outcome.halted {
        return Err("program did not halt within 200M steps".to_string());
    }
    let cache = cpu.into_port();
    let stats = *cache.stats();
    println!("\nexecuted:   {}", outcome.summary);
    println!(
        "misses:     {} ({} fetches); writes to dirty lines {:.1}%",
        stats.total_misses(),
        stats.fetches,
        stats.dirty_write_fraction().unwrap_or(0.0) * 100.0
    );
    println!("back-side:  {}", cache.traffic());
    Ok(())
}

fn cmd_trace(opt: &Options) -> Result<(), String> {
    use cwp::trace::io::TraceWriter;
    let workload = workload_from(opt)?;
    let path = opt.out.as_deref().ok_or("--out is required for trace")?;
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut writer = TraceWriter::new(file).map_err(|e| e.to_string())?;
    let summary = workload.run(opt.scale, &mut writer);
    let records = writer.finish().map_err(|e| e.to_string())?;
    println!("wrote {records} records ({summary}) to {path}");
    Ok(())
}

fn cmd_replay(opt: &Options) -> Result<(), String> {
    use cwp::core::sim::CacheSink;
    use cwp::trace::io::TraceReader;
    use cwp::trace::TraceSink;
    let path = opt
        .trace
        .as_deref()
        .ok_or("--trace is required for replay")?;
    let config = config_from(opt)?;
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let reader = TraceReader::new(file).map_err(|e| e.to_string())?;
    let mut sink = CacheSink::new(config);
    let mut summary = cwp::trace::TraceSummary::default();
    for record in reader {
        let r = record.map_err(|e| format!("{path}: {e}"))?;
        summary.instructions += u64::from(r.before_insts);
        if r.is_write() {
            summary.writes += 1;
        } else {
            summary.reads += 1;
        }
        sink.record(r);
    }
    let (out, _) = sink.settle(summary);
    println!("trace file:  {path}");
    println!("cache:       {config}");
    report(&out, &config);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let opt = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "workloads" => return cmd_workloads(&opt),
        "simulate" => cmd_simulate(&opt),
        "sweep" => cmd_sweep(&opt),
        "trace" => cmd_trace(&opt),
        "replay" => cmd_replay(&opt),
        "asm" => cmd_asm(&opt),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
