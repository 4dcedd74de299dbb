//! Figure 3: store timing in the five-stage pipeline — measured CPI for
//! each store-timing scheme.

use cwp_pipeline::{StorePipeline, StoreTiming};

use crate::experiments::{row_with_average, workload_columns};
use crate::lab::{Lab, WORKLOAD_NAMES};
use crate::report::Table;

/// Runs each workload under the three store timings of Figure 3/4 and
/// reports CPI (miss service excluded).
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let mut t = Table::new(
        "fig03",
        "Pipeline CPI by store timing (IF RF ALU MEM WB; miss service excluded)",
        "store timing",
    );
    t.columns(workload_columns());
    for timing in StoreTiming::ALL {
        let values: Vec<Option<f64>> = WORKLOAD_NAMES
            .iter()
            .map(|name| {
                let mut pipe = StorePipeline::for_timing(timing);
                lab.drive(name, &mut pipe);
                Some(pipe.stats().cpi())
            })
            .collect();
        t.row(timing.to_string(), row_with_average(&values));
    }
    t.note(
        "A direct-mapped write-through cache writes data during the tag probe (1 cycle per \
         store). Write-back caches probe before writing (2 cycles), interlocking loads that \
         immediately follow stores; the delayed-write register recovers most of the loss.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_order_matches_the_paper() {
        let mut lab = crate::experiments::testlab::lock();
        let t = &run(&mut lab)[0];
        let wt = t.value("write-through direct-mapped", "average").unwrap();
        let probe = t.value("probe-then-write", "average").unwrap();
        let delayed = t.value("delayed-write", "average").unwrap();
        assert_eq!(wt, 1.0);
        assert!(probe > delayed, "delayed-write must beat probe-then-write");
        assert!(delayed >= wt);
    }
}
