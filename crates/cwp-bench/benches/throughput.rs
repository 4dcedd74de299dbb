//! Simulator and generator throughput benchmarks.
//!
//! These answer the engineering question behind the whole harness: how
//! many references per second can the cache model sustain, and how fast
//! can each workload generator emit its trace?
//!
//! The `simulate-*` groups drive `CacheSink::new`, the one engine on its
//! data-free plane: the plane every fault-free figure and sweep runs on.
//! `raw-ops` times the data plane (`Cache::with_memory`), which carries
//! and returns bytes.

use cwp_cache::{Cache, CacheConfig, ConfigError, WriteHitPolicy, WriteMissPolicy};
use cwp_core::sim::CacheSink;
use cwp_trace::{workloads, Scale, TraceSink};

/// A sink that only counts, to isolate generator cost.
struct CountSink(u64);

impl TraceSink for CountSink {
    #[inline]
    fn record(&mut self, _r: cwp_trace::MemRef) {
        self.0 += 1;
    }
}

fn bench_generators() {
    let group = cwp_bench::group("generate");
    for w in workloads::suite() {
        let mut probe = CountSink(0);
        w.run(Scale::Test, &mut probe);
        group.bench_throughput(w.name(), probe.0, || {
            let mut sink = CountSink(0);
            w.run(Scale::Test, &mut sink);
            sink.0
        });
    }
}

fn bench_cache_policies() {
    let group = cwp_bench::group("simulate-8kb-16b");
    let grr = workloads::grr();
    let mut probe = CountSink(0);
    grr.run(Scale::Test, &mut probe);
    let refs = probe.0;

    for hit in WriteHitPolicy::ALL {
        for miss in WriteMissPolicy::ALL {
            let config = match CacheConfig::builder()
                .write_hit(hit)
                .write_miss(miss)
                .build()
            {
                Ok(c) => c,
                Err(ConfigError::PolicyConflict { .. }) => continue,
                Err(e) => panic!("{e}"),
            };
            group.bench_throughput(&format!("{hit}+{miss}"), refs, || {
                let mut sink = CacheSink::new(config);
                grr.run(Scale::Test, &mut sink);
                sink.cache().stats().accesses()
            });
        }
    }
}

fn bench_associativity() {
    let group = cwp_bench::group("simulate-associativity");
    let met = workloads::met();
    for ways in [1u32, 2, 4, 8] {
        let config = CacheConfig::builder().associativity(ways).build().unwrap();
        group.bench(&format!("{ways}-way"), || {
            let mut sink = CacheSink::new(config);
            met.run(Scale::Test, &mut sink);
            sink.cache().stats().accesses()
        });
    }
}

fn bench_raw_cache_ops() {
    let group = cwp_bench::group("raw-ops");
    let config = CacheConfig::default();
    group.bench_throughput("sequential-read-100k", 100_000, || {
        let mut cache = Cache::with_memory(config);
        let mut buf = [0u8; 8];
        for i in 0..100_000u64 {
            cache.read(i * 8 % 65_536, &mut buf);
        }
        cache.stats().reads
    });
    group.bench_throughput("sequential-write-100k", 100_000, || {
        let mut cache = Cache::with_memory(config);
        for i in 0..100_000u64 {
            cache.write(i * 8 % 65_536, &[1u8; 8]);
        }
        cache.stats().writes
    });
}

fn main() {
    bench_generators();
    bench_cache_policies();
    bench_associativity();
    bench_raw_cache_ops();
}
