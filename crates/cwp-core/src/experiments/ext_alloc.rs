//! Extension: how much of write-validate's benefit could allocation
//! instructions capture?
//!
//! The paper's abstract claims "the combination of no-fetch-on-write and
//! write-allocate can provide better performance than cache line
//! allocation instructions", because allocation instructions apply only
//! where "the entire cache line must be known to be written at compile
//! time". This experiment measures the *oracle* bound: the fraction of
//! write-missed lines that are in fact fully written before being read or
//! evicted. Even a perfect compiler could convert only those misses into
//! allocations; write-validate converts them all.

use std::collections::HashMap;

use cwp_trace::{AccessKind, MemRef, TraceSink};

use crate::lab::{Lab, WORKLOAD_NAMES};
use crate::report::{Cell, Table};

const LINE: u64 = 16;
const SIZE: u64 = 8 * 1024;
const SETS: u64 = SIZE / LINE;

/// Tracks, for lines allocated by a write miss in a direct-mapped
/// 8KB/16B cache, whether the whole line is written before any read of
/// its unwritten part or its eviction.
#[derive(Default)]
struct AllocOracle {
    /// tag per set, plus the written-byte mask for write-missed lines.
    sets: HashMap<u64, (u64, Option<u64>)>,
    write_misses: u64,
    fully_written: u64,
}

impl AllocOracle {
    fn touch(&mut self, addr: u64, len: u64, is_write: bool) {
        let line = addr / LINE;
        let set = line % SETS;
        let tag = line / SETS;
        let offset = addr % LINE;
        let span = (((1u128 << len) - 1) as u64) << offset;
        let full = (1u64 << LINE) - 1;

        if let Some((resident, written)) = self.sets.get_mut(&set) {
            if *resident == tag {
                if is_write {
                    if let Some(mask) = written {
                        *mask |= span;
                        if *mask == full {
                            // Whole line written before a foreign read or
                            // eviction: an oracle could have allocated it.
                            self.fully_written += 1;
                            *written = None;
                        }
                    }
                } else if written.is_some_and(|mask| mask & span != span) {
                    // Read touched an unwritten byte: an allocation
                    // instruction here would have returned garbage.
                    *written = None;
                }
                return;
            }
        }
        // Miss: the previous resident (if still tracked) is evicted before
        // completing its line, so it simply never counts as allocatable.
        if is_write {
            self.write_misses += 1;
            self.sets.insert(set, (tag, Some(span)));
        } else {
            self.sets.insert(set, (tag, None));
        }
    }
}

impl TraceSink for AllocOracle {
    fn record(&mut self, r: MemRef) {
        // Split at line boundaries, as the cache does.
        let mut pos = 0u64;
        let len = u64::from(r.size);
        while pos < len {
            let a = r.addr + pos;
            let room = LINE - (a % LINE);
            let take = room.min(len - pos);
            self.touch(a, take, r.kind == AccessKind::Write);
            pos += take;
        }
    }
}

/// Measures the oracle allocatable fraction of write misses per workload.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let mut t = Table::new(
        "ext_alloc",
        "Extension: oracle bound for cache-line allocation instructions (8KB, 16B lines)",
        "program",
    );
    t.columns([
        "write misses",
        "fully written before read/evict",
        "oracle allocatable %",
        "write-validate coverage %",
    ]);
    for name in WORKLOAD_NAMES {
        let mut oracle = AllocOracle::default();
        lab.drive(name, &mut oracle);
        let pct = if oracle.write_misses > 0 {
            100.0 * oracle.fully_written as f64 / oracle.write_misses as f64
        } else {
            0.0
        };
        t.row(
            name,
            [
                Cell::Int(oracle.write_misses),
                Cell::Int(oracle.fully_written),
                Cell::Num(pct),
                Cell::Num(100.0),
            ],
        );
    }
    t.note(
        "The oracle knows the future; a compiler proves less (it must see the whole-line \
         write statically, across passes and context switches). Write-validate needs no \
         proof: it covers every write miss, including partially written lines (Section 4).",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_never_exceeds_write_validate() {
        let mut lab = crate::experiments::testlab::lock();
        let t = &run(&mut lab)[0];
        for name in WORKLOAD_NAMES {
            let oracle = t.value(name, "oracle allocatable %").unwrap();
            assert!((0.0..=100.0).contains(&oracle), "{name}: {oracle:.1}%");
        }
    }

    #[test]
    fn some_write_misses_are_not_allocatable() {
        // If every write miss were a provable whole-line write, allocation
        // instructions would equal write-validate; the paper's point is
        // they do not.
        let mut lab = crate::experiments::testlab::lock();
        let t = &run(&mut lab)[0];
        let mut below = 0;
        for name in WORKLOAD_NAMES {
            if t.value(name, "oracle allocatable %").unwrap() < 95.0 {
                below += 1;
            }
        }
        assert!(
            below >= 3,
            "expected unallocatable write misses on most workloads"
        );
    }

    #[test]
    fn unit_stride_whole_line_writers_are_mostly_allocatable() {
        // liver's result vectors are written end to end: most of its
        // write-missed lines do get fully written.
        let mut lab = crate::experiments::testlab::lock();
        let t = &run(&mut lab)[0];
        let liver = t.value("liver", "oracle allocatable %").unwrap();
        assert!(
            liver > 40.0,
            "liver should be highly allocatable, got {liver:.1}%"
        );
    }
}
