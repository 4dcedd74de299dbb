//! Extension: two-level hierarchies.
//!
//! The paper assumes "two or more levels of caching" but reports only
//! first-level effects. This extension stacks an 8KB write-through L1
//! (each write-miss policy) over a 64KB write-back L2 and measures what
//! each policy does to the L2's input traffic and the memory-side traffic
//! below it.

use cwp_cache::{Cache, CacheConfig, WriteHitPolicy, WriteMissPolicy};
use cwp_mem::{MainMemory, TrafficRecorder};
use cwp_trace::{AccessKind, MemRef, TraceSink};

use crate::lab::{Lab, WORKLOAD_NAMES};
use crate::report::{Cell, Table};

type TwoLevel = Cache<Cache<TrafficRecorder<MainMemory>>>;

fn build(miss: WriteMissPolicy) -> TwoLevel {
    let l2_cfg = CacheConfig::builder()
        .size_bytes(64 * 1024)
        .line_bytes(32)
        .associativity(2)
        .write_hit(WriteHitPolicy::WriteBack)
        .write_miss(WriteMissPolicy::FetchOnWrite)
        .build()
        .expect("valid L2");
    let l1_cfg = CacheConfig::builder()
        .size_bytes(8 * 1024)
        .line_bytes(16)
        .write_hit(WriteHitPolicy::WriteThrough)
        .write_miss(miss)
        .build()
        .expect("valid L1");
    Cache::new(
        l1_cfg,
        Cache::new(l2_cfg, TrafficRecorder::new(MainMemory::new())),
    )
}

struct Driver {
    stack: TwoLevel,
}

impl TraceSink for Driver {
    fn record(&mut self, r: MemRef) {
        let len = r.size as usize;
        let buf = [0u8; 8];
        match r.kind {
            AccessKind::Read => {
                let mut out = buf;
                self.stack.read(r.addr, &mut out[..len]);
            }
            AccessKind::Write => self.stack.write(r.addr, &buf[..len]),
        }
    }
}

/// Runs each L1 write-miss policy over the same L2 and reports, averaged
/// over the six workloads per 1000 instructions: L1->L2 transactions, L2
/// misses, and memory-side transactions.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let mut t = Table::new(
        "ext_l2",
        "Extension: two-level effects of the L1 write-miss policy (per 1000 instructions)",
        "L1 policy",
    );
    t.columns(["L1->L2 accesses", "L2 misses", "memory transactions"]);
    for policy in [
        WriteMissPolicy::FetchOnWrite,
        WriteMissPolicy::WriteValidate,
        WriteMissPolicy::WriteAround,
        WriteMissPolicy::WriteInvalidate,
    ] {
        let mut l2_accesses = 0.0;
        let mut l2_misses = 0.0;
        let mut mem_txns = 0.0;
        for name in WORKLOAD_NAMES {
            let mut driver = Driver {
                stack: build(policy),
            };
            let summary = lab.drive(name, &mut driver);
            let mut stack = driver.stack;
            stack.flush();
            stack.next_level_mut().flush();
            let k = summary.instructions as f64 / 1000.0;
            let l2 = stack.next_level();
            l2_accesses += l2.stats().accesses() as f64 / k;
            l2_misses += l2.stats().total_misses() as f64 / k;
            mem_txns += l2.next_level().traffic().total_transactions() as f64 / k;
        }
        let n = WORKLOAD_NAMES.len() as f64;
        t.row(
            policy.to_string(),
            [
                Cell::Num(l2_accesses / n),
                Cell::Num(l2_misses / n),
                Cell::Num(mem_txns / n),
            ],
        );
    }
    t.note(
        "A no-fetch L1 policy removes L1 fetch requests from the L2's input stream; \
         write-validate additionally keeps write data out of the L2's read path. The \
         policy choice at L1 is visible all the way to memory.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fetch_policies_unload_the_l2() {
        let mut lab = crate::experiments::testlab::lock();
        let t = &run(&mut lab)[0];
        let fow = t.value("fetch-on-write", "L1->L2 accesses").unwrap();
        let wv = t.value("write-validate", "L1->L2 accesses").unwrap();
        assert!(
            wv < fow,
            "write-validate should send less to the L2: {wv:.1} vs {fow:.1} per 1000 instr"
        );
    }

    #[test]
    fn memory_traffic_reflects_the_l1_policy() {
        let mut lab = crate::experiments::testlab::lock();
        let t = &run(&mut lab)[0];
        for policy in [
            "fetch-on-write",
            "write-validate",
            "write-around",
            "write-invalidate",
        ] {
            let mem = t.value(policy, "memory transactions").unwrap();
            let l2m = t.value(policy, "L2 misses").unwrap();
            assert!(mem > 0.0 && l2m > 0.0, "{policy}: empty traffic");
            assert!(mem >= l2m * 0.5, "{policy}: memory txns implausibly low");
        }
    }
}
