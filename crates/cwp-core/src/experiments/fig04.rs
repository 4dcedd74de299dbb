//! Figure 4: the delayed-write register — how often the one-cycle
//! overlapped store succeeds.

use cwp_pipeline::{StorePipeline, StoreTiming};

use crate::lab::{Lab, WORKLOAD_NAMES};
use crate::report::{Cell, Table};

/// Measures per workload: fraction of single-cycle stores with the
/// delayed-write register, forwarding events, and the CPI recovered
/// relative to probe-then-write.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let mut t = Table::new(
        "fig04",
        "Delayed write method: one-cycle store effectiveness",
        "program",
    );
    t.columns([
        "1-cycle stores %",
        "CPI (delayed write)",
        "CPI (probe-then-write)",
        "interlock cycles saved %",
    ]);
    for name in WORKLOAD_NAMES {
        let mut delayed = StorePipeline::for_timing(StoreTiming::DelayedWrite);
        lab.drive(name, &mut delayed);
        let mut plain = StorePipeline::for_timing(StoreTiming::ProbeThenWrite);
        lab.drive(name, &mut plain);
        let d = delayed.stats();
        let p = plain.stats();
        let saved = if p.interlock_cycles > 0 {
            100.0 * (1.0 - d.interlock_cycles as f64 / p.interlock_cycles as f64)
        } else {
            0.0
        };
        t.row(
            name,
            [
                Cell::from(d.two_cycle_store_fraction().map(|f| (1.0 - f) * 100.0)),
                Cell::Num(d.cpi()),
                Cell::Num(p.cpi()),
                Cell::Num(saved),
            ],
        );
    }
    t.note(
        "The register writes the previous store's data during the current store's probe \
         (VAX 8800 style); only probe misses and intervening read misses break the overlap.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_stores_are_single_cycle_on_average() {
        let mut lab = crate::experiments::testlab::lock();
        let t = &run(&mut lab)[0];
        let mut pct_sum = 0.0;
        let mut saved_sum = 0.0;
        for name in WORKLOAD_NAMES {
            let pct = t.value(name, "1-cycle stores %").unwrap();
            // Streaming numeric codes miss often, so the floor is loose.
            assert!(
                pct > 20.0,
                "{name}: only {pct:.1}% of stores were single-cycle"
            );
            pct_sum += pct;
            saved_sum += t.value(name, "interlock cycles saved %").unwrap();
        }
        let n = WORKLOAD_NAMES.len() as f64;
        assert!(
            pct_sum / n > 50.0,
            "average 1-cycle share {:.1}%",
            pct_sum / n
        );
        // Interlock savings are smaller than the 1-cycle share because slow
        // stores cluster in bursts where the following reference is
        // adjacent; a quarter of the probe-then-write interlocks is still a
        // solid recovery.
        assert!(
            saved_sum / n > 25.0,
            "average interlocks saved {:.1}%",
            saved_sum / n
        );
    }
}
