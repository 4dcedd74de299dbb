//! Probe overhead: the zero-cost-when-disabled contract, measured.
//!
//! The observability layer claims that a `NullProbe` cache is the same
//! cache — `Probe::ENABLED` is false, so every emission site compiles
//! to nothing. This bench drives the same workload through the one
//! engine's sink on the data-free plane (where traced fault-free runs
//! go) with:
//!
//! - `null`: the default `NullProbe` (what every figure run uses);
//! - `counting`: a `CountingProbe` tallying events by class;
//! - `sampler`: the `WindowSampler` that backs `windows.csv`.
//!
//! `null` must track the untraced baseline within noise; `counting` and
//! `sampler` show the real price of observation when it is switched on.

use cwp_cache::{CacheConfig, NullProbe};
use cwp_core::sim::CacheSink;
use cwp_mem::NullMemory;
use cwp_obs::{CountingProbe, WindowSampler};
use cwp_trace::{workloads, Scale, TraceSink};

/// A sink that only counts, to size the trace once up front.
struct CountSink(u64);

impl TraceSink for CountSink {
    #[inline]
    fn record(&mut self, _r: cwp_trace::MemRef) {
        self.0 += 1;
    }
}

fn main() {
    let config = CacheConfig::default();
    let grr = workloads::grr();
    let mut probe = CountSink(0);
    grr.run(Scale::Test, &mut probe);
    let refs = probe.0;

    let group = cwp_bench::group("probe-8kb-16b");
    group.bench_throughput("null", refs, || {
        let mut sink = CacheSink::<NullMemory, _>::with_probe(config, NullProbe);
        grr.run(Scale::Test, &mut sink);
        sink.cache().stats().accesses()
    });
    group.bench_throughput("counting", refs, || {
        let mut sink = CacheSink::<NullMemory, _>::with_probe(config, CountingProbe::default());
        grr.run(Scale::Test, &mut sink);
        sink.cache().stats().accesses()
    });
    group.bench_throughput("sampler", refs, || {
        let mut sink =
            CacheSink::<NullMemory, _>::with_probe(config, WindowSampler::new(4096, 512));
        grr.run(Scale::Test, &mut sink);
        sink.cache().stats().accesses()
    });
}
