//! Lock-step differential execution: optimized engine vs naive model.
//!
//! [`check_case`] drives [`cwp_cache::Cache`] and [`ModelCache`] through
//! the same reference stream with the same seeded store data, once on
//! each of the engine's planes: the data plane (over
//! [`cwp_mem::MainMemory`]) and the data-free plane (over
//! [`cwp_mem::NullMemory`]). It compares after every reference:
//!
//! * bytes returned by loads (functional transparency; data plane only),
//! * the full [`cwp_cache::CacheStats`] counter block,
//! * back-side [`cwp_mem::Traffic`] per class,
//! * the engine's own sub-block mask laws
//!   ([`cwp_cache::Cache::audit_masks_at`]),
//!
//! and at end of run: resident-line snapshots, flush statistics, and (on
//! the data plane) a post-flush data sweep re-reading every referenced
//! address.

use cwp_cache::Cache;
use cwp_mem::rng::SplitMix64;
use cwp_mem::{MainMemory, NextLevel, NullMemory, TrafficRecorder};

use crate::case::FuzzCase;
use crate::model::{ModelBug, ModelCache};

/// A disagreement between the engine and the model (or a broken engine
/// invariant), with enough context to debug it from the repro file alone.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the reference after which the mismatch appeared, or
    /// `None` for end-of-run checks (line states, flush, data sweep).
    pub step: Option<usize>,
    /// Which comparison failed ("stats", "read-data", "mask-law", ...).
    pub field: &'static str,
    /// Engine-vs-model detail.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            Some(i) => write!(f, "after ref {i}: {} diverged: {}", self.field, self.detail),
            None => write!(f, "end of run: {} diverged: {}", self.field, self.detail),
        }
    }
}

/// Seed-derived store data: both sides must write identical bytes for
/// the transparency comparison to mean anything.
fn data_rng(case: &FuzzCase) -> SplitMix64 {
    SplitMix64::seed_from_u64(case.seed ^ 0x9e37_79b9_7f4a_7c15)
}

/// Runs `case` through the engine and the faithful model in lock step,
/// on the data plane and then on the data-free plane. Returns the first
/// divergence, or `None` when they agree everywhere.
pub fn check_case(case: &FuzzCase) -> Option<Divergence> {
    check_case_with(case, ModelBug::None)
}

/// As [`check_case`], but against a model with `bug` planted — the
/// shrinker demo uses this to manufacture a divergence on demand.
pub fn check_case_with(case: &FuzzCase, bug: ModelBug) -> Option<Divergence> {
    lock_step::<MainMemory>(case, bug).or_else(|| {
        lock_step::<NullMemory>(case, bug).map(|d| Divergence {
            detail: format!("data-free plane: {}", d.detail),
            ..d
        })
    })
}

/// One lock-step run of `case` on the engine's plane `N`. The read-data
/// comparisons need bytes, so the data-free plane skips them.
fn lock_step<N: NextLevel + Default>(case: &FuzzCase, bug: ModelBug) -> Option<Divergence> {
    let mut engine = Cache::new(case.config, TrafficRecorder::new(N::default()));
    let mut model = ModelCache::with_bug(case.config, bug);
    let mut rng = data_rng(case);

    for (i, r) in case.refs.iter().enumerate() {
        let len = r.size as usize;
        if r.write {
            let word = rng.next_u64().to_le_bytes();
            engine.write(r.addr, &word[..len]);
            model.write(r.addr, &word[..len]);
        } else {
            let mut from_engine = [0u8; 8];
            let mut from_model = [0u8; 8];
            engine.read(r.addr, &mut from_engine[..len]);
            model.read(r.addr, &mut from_model[..len]);
            if N::CARRIES_DATA && from_engine != from_model {
                return Some(Divergence {
                    step: Some(i),
                    field: "read-data",
                    detail: format!(
                        "{r}: engine {:02x?} vs model {:02x?}",
                        &from_engine[..len],
                        &from_model[..len]
                    ),
                });
            }
        }
        if let Err(e) = engine.audit_masks_at(r.addr, len) {
            return Some(Divergence {
                step: Some(i),
                field: "mask-law",
                detail: e,
            });
        }
        if *engine.stats() != model.stats() {
            return Some(Divergence {
                step: Some(i),
                field: "stats",
                detail: format!(
                    "{r}: engine {:?} vs model {:?}",
                    engine.stats(),
                    model.stats()
                ),
            });
        }
        if engine.traffic() != model.traffic() {
            return Some(Divergence {
                step: Some(i),
                field: "traffic",
                detail: format!(
                    "{r}: engine {:?} vs model {:?}",
                    engine.traffic(),
                    model.traffic()
                ),
            });
        }
    }

    let engine_lines = engine.line_states();
    let model_lines = model.line_states();
    if engine_lines != model_lines {
        return Some(Divergence {
            step: None,
            field: "line-states",
            detail: format!("engine {engine_lines:?} vs model {model_lines:?}"),
        });
    }

    engine.flush();
    model.flush();
    if *engine.stats() != model.stats() {
        return Some(Divergence {
            step: None,
            field: "flush-stats",
            detail: format!("engine {:?} vs model {:?}", engine.stats(), model.stats()),
        });
    }
    if engine.traffic() != model.traffic() {
        return Some(Divergence {
            step: None,
            field: "flush-traffic",
            detail: format!(
                "engine {:?} vs model {:?}",
                engine.traffic(),
                model.traffic()
            ),
        });
    }

    // Post-flush transparency: every referenced address must read back
    // identically through both (now cold) caches, i.e. both memories
    // absorbed the same bytes.
    if !N::CARRIES_DATA {
        return None;
    }
    for r in &case.refs {
        let len = r.size as usize;
        let mut from_engine = [0u8; 8];
        let mut from_model = [0u8; 8];
        engine.read(r.addr, &mut from_engine[..len]);
        model.read(r.addr, &mut from_model[..len]);
        if from_engine != from_model {
            return Some(Divergence {
                step: None,
                field: "post-flush-data",
                detail: format!(
                    "{r}: engine {:02x?} vs model {:02x?}",
                    &from_engine[..len],
                    &from_model[..len]
                ),
            });
        }
    }

    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::CaseRef;
    use cwp_cache::{CacheConfig, WriteHitPolicy, WriteMissPolicy};

    fn write_pair_case(hit: WriteHitPolicy, miss: WriteMissPolicy) -> FuzzCase {
        FuzzCase {
            seed: 7,
            label: "unit".to_string(),
            config: CacheConfig::builder()
                .size_bytes(256)
                .line_bytes(16)
                .write_hit(hit)
                .write_miss(miss)
                .build()
                .unwrap(),
            refs: vec![
                CaseRef {
                    write: true,
                    addr: 0x10,
                    size: 8,
                },
                CaseRef {
                    write: true,
                    addr: 0x110,
                    size: 8,
                },
                CaseRef {
                    write: false,
                    addr: 0x10,
                    size: 8,
                },
            ],
        }
    }

    #[test]
    fn engine_and_model_agree_on_simple_cases() {
        for hit in WriteHitPolicy::ALL {
            for miss in WriteMissPolicy::ALL {
                if miss.bypasses() && hit == WriteHitPolicy::WriteBack {
                    continue; // rejected by the validating builder
                }
                let case = write_pair_case(hit, miss);
                assert!(
                    check_case(&case).is_none(),
                    "{hit:?}/{miss:?}: {:?}",
                    check_case(&case)
                );
            }
        }
    }

    #[test]
    fn a_planted_bug_is_caught() {
        let case = write_pair_case(WriteHitPolicy::WriteBack, WriteMissPolicy::FetchOnWrite);
        let div = check_case_with(&case, ModelBug::VictimDirtyBytesOffByOne)
            .expect("the off-by-one must diverge");
        assert_eq!(div.field, "stats");
        // The data-free leg compares on its own, too.
        let div = lock_step::<NullMemory>(&case, ModelBug::VictimDirtyBytesOffByOne)
            .expect("the off-by-one must diverge on the data-free plane");
        assert_eq!(div.field, "stats");
    }
}
