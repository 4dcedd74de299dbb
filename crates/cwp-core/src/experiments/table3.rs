//! Table 3: hardware requirements for high-performance write-back and
//! write-through caches, with each structure's measured effectiveness.

use cwp_buffers::{VictimBuffer, WriteCache};
use cwp_mem::MainMemory;
use cwp_pipeline::{StorePipeline, StoreTiming};

use crate::experiments::fig07::removed_percentages;
use crate::lab::{Lab, WORKLOAD_NAMES};
use crate::report::{require_table, Cell, CellError, Table};

/// Regenerates Table 3, annotating each required structure with a measured
/// effectiveness number from this repository's implementations.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let mut t = Table::new(
        "table3",
        "Hardware requirements for high-performance caches (measured effectiveness)",
        "feature",
    );
    t.columns(["write-back", "write-through"]);

    // Exit-traffic buffers: a single-entry dirty-victim register vs a
    // multi-entry write buffer. Run a real write-back cache over a
    // single-entry victim buffer and count how often the single entry
    // would have stalled.
    let mut forced = 0u64;
    let mut accepted = 0u64;
    for name in WORKLOAD_NAMES {
        let config = cwp_cache::CacheConfig::default();
        let vb = VictimBuffer::new(1, MainMemory::new());
        let mut cache = cwp_cache::Cache::new(config, vb);
        let mut sink = |r: cwp_trace::MemRef| {
            let len = r.size as usize;
            let buf = [0u8; 8];
            if r.is_write() {
                cache.write(r.addr, &buf[..len]);
            } else {
                let mut out = buf;
                cache.read(r.addr, &mut out[..len]);
            }
        };
        lab.drive(name, &mut sink);
        let vb = cache.into_next_level();
        forced += vb.forced_drains();
        accepted += vb.accepted();
    }
    let overflow_pct = 100.0 * forced as f64 / accepted.max(1) as f64;
    t.row(
        "exit traffic buffer",
        [
            Cell::Text(format!(
                "dirty victim register ({overflow_pct:.1}% forced drains with 1 entry)"
            )),
            Cell::Text("write buffer (2-4 entries typical)".into()),
        ],
    );

    // Bandwidth improvement: delayed-write register vs write cache.
    let mut one_cycle = 0.0;
    for name in WORKLOAD_NAMES {
        let mut pipe = StorePipeline::for_timing(StoreTiming::DelayedWrite);
        lab.drive(name, &mut pipe);
        one_cycle += pipe
            .stats()
            .two_cycle_store_fraction()
            .map_or(0.0, |f| (1.0 - f) * 100.0);
    }
    let wc5 = removed_percentages(lab, 5);
    let wc5_avg: f64 =
        wc5.iter().flatten().sum::<f64>() / wc5.iter().flatten().count().max(1) as f64;
    t.row(
        "bandwidth improvement",
        [
            Cell::Text(format!(
                "delayed write register ({:.1}% of stores 1-cycle)",
                one_cycle / WORKLOAD_NAMES.len() as f64
            )),
            Cell::Text(format!(
                "write cache (5 entries remove {wc5_avg:.1}% of writes)"
            )),
        ],
    );

    t.row(
        "other",
        [
            Cell::Text("cache line dirty bits".into()),
            Cell::Text("none".into()),
        ],
    );
    t.note(
        "Paper's point: the hardware for high-performance write-back and write-through \
         caches is surprisingly similar — single registers vs 3-5 entry buffers, offset \
         by the write-back cache's per-line dirty bits (Section 3.3).",
    );

    // Sanity check of the write-cache structure's pass-through behaviour
    // is covered in cwp-buffers; here we only report numbers.
    let _ = WriteCache::new(1, 8, MainMemory::new());
    vec![t]
}

/// Structural sanity check: the three feature rows exist under both
/// policy columns.
pub(crate) fn check(tables: &[Table]) -> Result<(), CellError> {
    let t = require_table(tables, 0, "table3")?;
    for row in ["exit traffic buffer", "bandwidth improvement", "other"] {
        for col in ["write-back", "write-through"] {
            t.require_cell(row, col)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_reports_three_feature_rows_with_numbers() -> Result<(), CellError> {
        let mut lab = crate::experiments::testlab::lock();
        let t = &run(&mut lab)[0];
        assert_eq!(t.len(), 3);
        let bw = match t.require_cell("bandwidth improvement", "write-through")? {
            Cell::Text(s) => s.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert!(bw.contains("write cache"));
        assert!(bw.contains('%'));
        Ok(())
    }

    #[test]
    fn structural_check_passes_on_real_output() {
        let mut lab = crate::experiments::testlab::lock();
        check(&run(&mut lab)).unwrap();
        assert!(check(&[]).is_err());
    }
}
