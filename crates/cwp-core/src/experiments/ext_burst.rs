//! Extension: write and dirty-victim burstiness.
//!
//! Section 5.2 closes with an open question this experiment answers:
//! "This section did not study the burstiness of dirty victims... Since
//! misses are known to be bursty, dirty victims are likely to be bursty as
//! well. This would imply that the write back port bandwidth would need to
//! be made wider... and/or that buffering to hold more than one dirty
//! victim could be useful."

use cwp_cache::{Cache, CacheConfig, MemoryCache};
use cwp_trace::{AccessKind, MemRef, TraceSink};

use crate::burst::GapHistogram;
use crate::lab::{Lab, WORKLOAD_NAMES};
use crate::report::{Cell, Table};

/// A sink that simulates a write-back cache while timing victim events.
struct VictimTimer {
    cache: MemoryCache,
    icount: u64,
    victims_seen: u64,
    stores: GapHistogram,
    victims: GapHistogram,
}

impl VictimTimer {
    fn new() -> Self {
        VictimTimer {
            cache: Cache::with_memory(CacheConfig::default()),
            icount: 0,
            victims_seen: 0,
            stores: GapHistogram::new(),
            victims: GapHistogram::new(),
        }
    }
}

impl TraceSink for VictimTimer {
    fn record(&mut self, r: MemRef) {
        self.icount += u64::from(r.before_insts);
        let len = r.size as usize;
        let buf = [0u8; 8];
        match r.kind {
            AccessKind::Read => {
                let mut out = buf;
                self.cache.read(r.addr, &mut out[..len]);
            }
            AccessKind::Write => {
                self.stores.event(self.icount);
                self.cache.write(r.addr, &buf[..len]);
            }
        }
        let dirty_victims = self.cache.stats().victims.dirty;
        while self.victims_seen < dirty_victims {
            self.victims_seen += 1;
            self.victims.event(self.icount);
        }
    }
}

/// Measures store and dirty-victim burstiness per workload on the default
/// 8KB write-back cache.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let mut t = Table::new(
        "ext_burst",
        "Extension: store and dirty-victim burstiness (8KB write-back, 16B lines)",
        "program",
    );
    t.columns([
        "mean store gap (instr)",
        "% stores within 2 instr",
        "max store run",
        "mean victim gap (instr)",
        "median victim gap",
        "% victims within 8 instr",
    ]);
    for name in WORKLOAD_NAMES {
        let mut timer = VictimTimer::new();
        lab.drive(name, &mut timer);
        t.row(
            name,
            [
                Cell::from(timer.stores.mean_gap()),
                Cell::from(timer.stores.fraction_within(2).map(|f| f * 100.0)),
                Cell::Int(timer.stores.max_run()),
                Cell::from(timer.victims.mean_gap()),
                Cell::from(timer.victims.quantile_gap(0.5).map(|g| g as f64)),
                Cell::from(timer.victims.fraction_within(8).map(|f| f * 100.0)),
            ],
        );
    }
    t.note(
        "A median victim gap well below the mean confirms the paper's Section 5.2 \
         conjecture that dirty victims cluster, so the write-back port needs headroom \
         beyond the average bandwidth. Streaming linpack is the exception: its victims \
         are metronomic (median ~= mean).",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_are_bursty_relative_to_their_mean() {
        // An evenly spaced victim stream has median ~= mean; a median
        // well below the mean means victims cluster (the paper's Section
        // 5.2 conjecture). Streaming codes like linpack are the expected
        // exception: their victims are metronomic.
        let mut lab = crate::experiments::testlab::lock();
        let t = &run(&mut lab)[0];
        let mut bursty = 0;
        for name in WORKLOAD_NAMES {
            let mean = t.value(name, "mean victim gap (instr)");
            let median = t.value(name, "median victim gap");
            if let (Some(mean), Some(median)) = (mean, median) {
                if median <= mean * 0.75 {
                    bursty += 1;
                }
            }
        }
        assert!(
            bursty >= 3,
            "expected clustered victims on most workloads, got {bursty}/6"
        );
    }

    #[test]
    fn stores_arrive_much_faster_than_victims() {
        let mut lab = crate::experiments::testlab::lock();
        let t = &run(&mut lab)[0];
        for name in WORKLOAD_NAMES {
            let store_gap = t.value(name, "mean store gap (instr)").unwrap();
            if let Some(victim_gap) = t.value(name, "mean victim gap (instr)") {
                assert!(
                    victim_gap > store_gap,
                    "{name}: victims ({victim_gap:.1}) should be rarer than stores ({store_gap:.1})"
                );
            }
        }
    }
}
