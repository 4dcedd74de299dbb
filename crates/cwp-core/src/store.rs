//! The [`TraceStore`]: record-once/replay-many trace sharing.
//!
//! Every sweep in the paper drives the same six reference streams
//! through many cache configurations. The store holds one
//! [`RecordedTrace`] per workload (at one scale) behind an `Arc`, so
//! every [`Lab`](crate::Lab) — and every worker thread in the
//! supervised runner — replays a single recording instead of re-running
//! the workload generator per sweep point. Every lookup of a slot returns
//! the same `Arc`, so what a recording caches about itself (its
//! [`RecordedTrace::content_hash`]) is computed once per capture, not once
//! per lookup.
//!
//! Capture is memory-bounded: the store has a byte budget
//! ([`DEFAULT_BUDGET_BYTES`] unless configured). A workload whose trace
//! fits the *total* budget always records; if the store is then over
//! budget, the least-recently-used other recordings are evicted until
//! it fits again (an evicted workload simply re-records on next use).
//! Only a workload whose trace alone exceeds the whole budget records
//! nothing and falls back to live generation — callers see `None` from
//! [`TraceStore::get_or_record`] and drive the generator directly. A
//! budget of zero ([`TraceStore::disabled`]) turns the store off
//! entirely, which is how `figures --no-trace-store` forces the legacy
//! regenerate-always path for equivalence checks.
//!
//! Concurrency: each workload's slot is a `OnceLock`, so concurrent
//! workers block on (rather than duplicate) an in-flight recording,
//! and a panic inside a generator leaves the slot empty for the next
//! attempt. The budget accounting is advisory — two workloads recording
//! at the same instant may transiently overshoot by one trace (the
//! overshoot is trimmed back by eviction as each finishes), and holders
//! of an evicted trace's `Arc` keep it alive until they drop it.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cwp_obs::{obs_debug, obs_warn};
use cwp_trace::{RecordedTrace, Scale, Workload, APPROX_BYTES_PER_REF, TRACE_FILE_EXT};

/// Default capture budget: 512 MiB, comfortably above the ~240 MiB the
/// six paper-scale traces need while still bounding worst-case memory.
pub const DEFAULT_BUDGET_BYTES: u64 = 512 << 20;

type Slot = Arc<OnceLock<Option<Arc<RecordedTrace>>>>;

/// A workload's slot plus its LRU stamp (larger = used more recently).
struct SlotEntry {
    slot: Slot,
    last_used: u64,
}

/// Shared storage of one recorded trace per workload, at one scale.
///
/// Cheap to share: hold it in an `Arc` and clone the handle per
/// thread. All methods take `&self`.
///
/// # Examples
///
/// ```
/// use cwp_core::TraceStore;
/// use cwp_trace::{workloads, Scale};
///
/// let store = TraceStore::new(Scale::Test);
/// let w = workloads::yacc();
/// let a = store.get_or_record(w.as_ref()).expect("fits the budget");
/// let b = store.get_or_record(w.as_ref()).expect("fits the budget");
/// assert!(std::sync::Arc::ptr_eq(&a, &b), "recorded exactly once");
/// assert_eq!(store.recordings(), 1);
/// ```
pub struct TraceStore {
    scale: Scale,
    budget_bytes: u64,
    used_bytes: AtomicU64,
    recordings: AtomicU64,
    evictions: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    clock: AtomicU64,
    slots: Mutex<HashMap<String, SlotEntry>>,
}

impl TraceStore {
    /// A store at `scale` with the default capture budget.
    pub fn new(scale: Scale) -> Self {
        Self::with_budget(scale, DEFAULT_BUDGET_BYTES)
    }

    /// A store at `scale` that keeps at most `budget_bytes` of
    /// recordings; workloads that would exceed it fall back to live
    /// generation.
    pub fn with_budget(scale: Scale, budget_bytes: u64) -> Self {
        TraceStore {
            scale,
            budget_bytes,
            used_bytes: AtomicU64::new(0),
            recordings: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// A store that never records: every lookup returns `None`, so all
    /// simulation regenerates traces live.
    pub fn disabled(scale: Scale) -> Self {
        Self::with_budget(scale, 0)
    }

    /// The scale every recording was (or will be) captured at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// `false` when the store was built with [`TraceStore::disabled`].
    pub fn is_enabled(&self) -> bool {
        self.budget_bytes > 0
    }

    /// Approximate bytes currently held by recordings.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes.load(Ordering::Relaxed)
    }

    /// Number of traces captured by generator runs (loaded or inserted
    /// traces do not count). A re-capture after an eviction counts
    /// again.
    pub fn recordings(&self) -> u64 {
        self.recordings.load(Ordering::Relaxed)
    }

    /// Number of recordings evicted to respect the budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lookups served from an existing recording without capturing.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to capture a trace, found nothing, or fell
    /// back to live generation. `hits / (hits + misses)` is the
    /// store's hit ratio.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The slot for `name`, created empty if absent, with its LRU stamp
    /// refreshed.
    fn slot(&self, name: &str) -> Slot {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut slots = self
            .slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let entry = slots.entry(name.to_string()).or_insert_with(|| SlotEntry {
            slot: Slot::default(),
            last_used: stamp,
        });
        entry.last_used = stamp;
        Arc::clone(&entry.slot)
    }

    /// Evicts least-recently-used recordings (never `keep`'s) until the
    /// store fits its budget or nothing evictable remains.
    fn evict_to_budget(&self, keep: &str) {
        while self.used_bytes.load(Ordering::Relaxed) > self.budget_bytes {
            let victim = {
                let mut slots = self
                    .slots
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                let name = slots
                    .iter()
                    .filter(|(name, entry)| {
                        name.as_str() != keep && matches!(entry.slot.get(), Some(Some(_)))
                    })
                    .min_by_key(|(_, entry)| entry.last_used)
                    .map(|(name, _)| name.clone());
                name.and_then(|n| slots.remove(&n).map(|entry| (n, entry)))
            };
            let Some((name, entry)) = victim else {
                return; // nothing left to evict; stay (advisorily) over
            };
            if let Some(Some(trace)) = entry.slot.get() {
                let bytes = trace.approx_bytes();
                let _ = self
                    .used_bytes
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                        Some(v.saturating_sub(bytes))
                    });
                self.evictions.fetch_add(1, Ordering::Relaxed);
                obs_debug!(
                    "evicted {name} (~{} KiB) to respect the {} MiB trace budget",
                    bytes / 1024,
                    self.budget_bytes >> 20
                );
            }
        }
    }

    /// The recording for `workload`, capturing it on first use.
    ///
    /// A trace that fits the *total* budget always records; if the
    /// store then exceeds its budget, least-recently-used recordings
    /// are evicted to make room (they re-record on next use). Returns
    /// `None` only when the store is disabled or the workload's trace
    /// alone exceeds the whole budget — the caller should run the
    /// generator live. That miss is remembered, so a never-fits
    /// workload costs one wasted generator pass in total, not one per
    /// lookup.
    pub fn get_or_record(&self, workload: &dyn Workload) -> Option<Arc<RecordedTrace>> {
        if !self.is_enabled() {
            // The caller will generate live: a miss by definition.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let slot = self.slot(workload.name());
        let mut captured = false;
        let recorded = slot
            .get_or_init(|| {
                captured = true;
                // 12 B/ref floors the SoA footprint (4 gap + 8 addr,
                // meta rounds up), so the record cap never rejects a
                // trace whose true size fits the budget; the exact
                // check below catches the sliver the floor lets
                // through. APPROX_BYTES_PER_REF (13) stays the sizing
                // estimate for callers.
                let max_records =
                    usize::try_from(self.budget_bytes / (APPROX_BYTES_PER_REF - 1))
                        .unwrap_or(usize::MAX);
                match RecordedTrace::record_bounded(workload, self.scale, max_records) {
                    Ok(trace) if trace.approx_bytes() > self.budget_bytes => {
                        obs_warn!(
                            "{} does not fit the trace budget ({} of {} bytes); \
                             falling back to live generation",
                            workload.name(),
                            trace.approx_bytes(),
                            self.budget_bytes
                        );
                        None
                    }
                    Ok(trace) => {
                        self.used_bytes
                            .fetch_add(trace.approx_bytes(), Ordering::Relaxed);
                        self.recordings.fetch_add(1, Ordering::Relaxed);
                        obs_debug!(
                            "recorded {} at {}: {} refs, ~{} KiB",
                            workload.name(),
                            self.scale,
                            trace.len(),
                            trace.approx_bytes() / 1024
                        );
                        Some(Arc::new(trace))
                    }
                    Err(overflow) => {
                        obs_warn!(
                            "{} does not fit the trace budget ({overflow}); falling back to live generation",
                            workload.name()
                        );
                        None
                    }
                }
            })
            .clone();
        // Hit-ratio accounting: a hit is a recorded trace served
        // without capture work; a capture, a remembered never-fits
        // workload, or a disabled slot all count as misses.
        if recorded.is_some() && !captured {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.evict_to_budget(workload.name());
        recorded
    }

    /// The recording for `name`, if one is already present. Never
    /// triggers a capture.
    pub fn lookup(&self, name: &str) -> Option<Arc<RecordedTrace>> {
        if !self.is_enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let found = self.slot(name).get().cloned().flatten();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Installs a pre-built recording (e.g. one loaded from disk) for
    /// `name`, replacing any existing slot. Evicts LRU recordings if
    /// the store is pushed over budget.
    pub fn insert(&self, name: &str, trace: Arc<RecordedTrace>) {
        self.used_bytes
            .fetch_add(trace.approx_bytes(), Ordering::Relaxed);
        let cell = OnceLock::new();
        cell.set(Some(trace)).expect("fresh cell is empty");
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let replaced = {
            let mut slots = self
                .slots
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            slots.insert(
                name.to_string(),
                SlotEntry {
                    slot: Arc::new(cell),
                    last_used: stamp,
                },
            )
        };
        // Replacing a populated slot releases its bytes.
        if let Some(entry) = replaced {
            if let Some(Some(old)) = entry.slot.get() {
                let bytes = old.approx_bytes();
                let _ = self
                    .used_bytes
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                        Some(v.saturating_sub(bytes))
                    });
            }
        }
        self.evict_to_budget(name);
    }

    /// Workload names with a recording present, sorted.
    pub fn recorded_names(&self) -> Vec<String> {
        let slots = self
            .slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut names: Vec<String> = slots
            .iter()
            .filter(|(_, entry)| matches!(entry.slot.get(), Some(Some(_))))
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// The conventional file name for `workload`'s trace on disk.
    pub fn trace_file_name(workload: &str) -> String {
        format!("{workload}.{TRACE_FILE_EXT}")
    }

    /// Saves every present recording into `dir` (created if absent) as
    /// `<workload>.cwptrc`, returning the files written.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error; earlier files may already be on
    /// disk.
    pub fn save_all(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for name in self.recorded_names() {
            if let Some(trace) = self.lookup(&name) {
                let path = dir.join(Self::trace_file_name(&name));
                trace.save(&path)?;
                written.push(path);
            }
        }
        Ok(written)
    }
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("scale", &self.scale)
            .field("budget_bytes", &self.budget_bytes)
            .field("used_bytes", &self.used_bytes())
            .field("recordings", &self.recordings())
            .field("evictions", &self.evictions())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwp_trace::workloads;

    #[test]
    fn stores_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceStore>();
    }

    #[test]
    fn concurrent_lookups_record_once() {
        let store = Arc::new(TraceStore::new(Scale::Test));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let w = workloads::liver();
                    store.get_or_record(w.as_ref()).unwrap().len()
                })
            })
            .collect();
        let lens: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(store.recordings(), 1, "one capture despite four threads");
        assert!(store.used_bytes() > 0);
    }

    #[test]
    fn a_disabled_store_never_records() {
        let store = TraceStore::disabled(Scale::Test);
        let w = workloads::yacc();
        assert!(store.get_or_record(w.as_ref()).is_none());
        assert!(store.lookup("yacc").is_none());
        assert_eq!(store.recordings(), 0);
        assert!(!store.is_enabled());
    }

    #[test]
    fn over_budget_workloads_fall_back_and_are_remembered() {
        // Enough budget to be enabled, far too little for a real trace.
        let store = TraceStore::with_budget(Scale::Test, 64);
        let w = workloads::ccom();
        assert!(store.get_or_record(w.as_ref()).is_none());
        assert!(store.get_or_record(w.as_ref()).is_none());
        assert_eq!(store.recordings(), 0);
        assert_eq!(store.used_bytes(), 0);
        assert_eq!(store.evictions(), 0, "nothing was stored, nothing evicts");
    }

    #[test]
    fn lru_eviction_respects_the_budget_and_recency_order() {
        // Size the budget so it holds yacc+met but not all three: the
        // third recording must evict exactly one — the least recently
        // *used*, not the least recently recorded.
        let sizes: Vec<u64> = [workloads::yacc(), workloads::met(), workloads::grr()]
            .iter()
            .map(|w| RecordedTrace::record(w.as_ref(), Scale::Test).approx_bytes())
            .collect();
        let (s_yacc, s_met, s_grr) = (sizes[0], sizes[1], sizes[2]);
        let budget = (s_yacc + s_met).max(s_yacc + s_grr) + 8;
        assert!(
            budget < s_yacc + s_met + s_grr,
            "budget must not hold all three"
        );
        let store = TraceStore::with_budget(Scale::Test, budget);

        assert!(store.get_or_record(workloads::yacc().as_ref()).is_some());
        let evicted = store.get_or_record(workloads::met().as_ref()).unwrap();
        let evicted_hash = evicted.content_hash();
        assert_eq!(store.evictions(), 0, "both fit");
        // Touch yacc so met becomes the LRU victim.
        assert!(store.lookup("yacc").is_some());
        assert!(store.get_or_record(workloads::grr().as_ref()).is_some());
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.recorded_names(), ["grr", "yacc"]);
        assert!(store.used_bytes() <= budget, "eviction restored the budget");

        // The evicted workload transparently re-records on next use,
        // and the fresh capture keeps the memo identity of the old one.
        let recaptured = store.get_or_record(workloads::met().as_ref()).unwrap();
        assert!(!Arc::ptr_eq(&recaptured, &evicted), "a fresh capture");
        assert_eq!(recaptured.content_hash(), evicted_hash);
        assert_eq!(store.recordings(), 4, "met was captured twice");
        assert!(store.evictions() >= 2);
        assert!(store.used_bytes() <= budget);
    }

    #[test]
    fn a_trace_larger_than_everything_already_stored_still_records() {
        // A budget that holds only the larger of two traces must evict
        // the smaller earlier recording rather than refuse to record.
        let s_ccom = RecordedTrace::record(workloads::ccom().as_ref(), Scale::Test).approx_bytes();
        let s_met = RecordedTrace::record(workloads::met().as_ref(), Scale::Test).approx_bytes();
        let (first, second, larger) = if s_ccom >= s_met {
            ("met", "ccom", s_ccom)
        } else {
            ("ccom", "met", s_met)
        };
        let store = TraceStore::with_budget(Scale::Test, larger + 8);
        assert!(store
            .get_or_record(workloads::by_name(first).unwrap().as_ref())
            .is_some());
        assert!(
            store
                .get_or_record(workloads::by_name(second).unwrap().as_ref())
                .is_some(),
            "fits the total budget, so it records"
        );
        assert_eq!(store.evictions(), 1, "the smaller trace was evicted");
        assert_eq!(store.recorded_names(), [second]);
    }

    #[test]
    fn segmented_recordings_evict_whole_never_partial_chunk_sets() {
        use cwp_trace::TraceRecorder;
        // Re-record the workloads into many small segments so each
        // recording spans dozens of chunks, then push the store over
        // budget: accounting must always equal the sum of *whole*
        // surviving recordings — an eviction can never strand or free a
        // partial chunk set.
        fn segmented(name: &str) -> Arc<RecordedTrace> {
            let w = workloads::by_name(name).expect("paper workload");
            let mut recorder = TraceRecorder::with_limit_and_chunk(usize::MAX, 4096);
            let summary = w.run(Scale::Test, &mut recorder);
            let trace = recorder.finish(summary).expect("unbounded recorder");
            assert!(
                trace.chunk_count() > 1,
                "{name} must span multiple chunks for this test to bite"
            );
            Arc::new(trace)
        }
        let yacc = segmented("yacc");
        let met = segmented("met");
        let grr = segmented("grr");
        let budget = yacc.approx_bytes() + met.approx_bytes() + 8;
        assert!(
            budget < yacc.approx_bytes() + met.approx_bytes() + grr.approx_bytes(),
            "budget must not hold all three"
        );
        let store = TraceStore::with_budget(Scale::Test, budget);
        store.insert("yacc", Arc::clone(&yacc));
        store.insert("met", Arc::clone(&met));
        assert_eq!(
            store.used_bytes(),
            yacc.approx_bytes() + met.approx_bytes(),
            "accounting sums whole segmented recordings"
        );
        assert_eq!(store.evictions(), 0, "both fit the budget");

        store.insert("grr", Arc::clone(&grr));
        assert!(store.evictions() >= 1, "the third recording must evict");
        assert!(store.used_bytes() <= budget, "eviction restored the budget");
        let remaining: u64 = store
            .recorded_names()
            .iter()
            .map(|name| store.lookup(name).expect("listed name").approx_bytes())
            .sum();
        assert_eq!(
            store.used_bytes(),
            remaining,
            "every eviction released exactly one whole recording's bytes"
        );
        // The survivors replay intact: no chunk went missing with the
        // victim's bytes.
        for name in store.recorded_names() {
            let trace = store.lookup(&name).expect("listed name");
            assert_eq!(trace.iter().count(), trace.len());
        }
    }

    #[test]
    fn inserted_traces_are_served_and_listed() {
        let store = TraceStore::new(Scale::Test);
        let w = workloads::met();
        let trace = Arc::new(RecordedTrace::record(w.as_ref(), Scale::Test));
        store.insert("met", Arc::clone(&trace));
        let got = store.get_or_record(w.as_ref()).unwrap();
        assert!(Arc::ptr_eq(&got, &trace), "served without re-recording");
        assert_eq!(store.recordings(), 0);
        assert_eq!(store.recorded_names(), ["met"]);
    }

    #[test]
    fn hits_and_misses_count_served_recordings_and_captures() {
        let store = TraceStore::new(Scale::Test);
        let w = workloads::ccom();
        // First use captures: a miss, not a hit.
        assert!(store.get_or_record(w.as_ref()).is_some());
        assert_eq!((store.hits(), store.misses()), (0, 1));
        // Subsequent uses are served from the recording: one shared
        // `Arc`, so a content hash cached by one user serves them all.
        let a = store.get_or_record(w.as_ref()).unwrap();
        let b = store.get_or_record(w.as_ref()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((store.hits(), store.misses()), (2, 1));
        // Lookups count too, both ways.
        assert!(store.lookup("ccom").is_some());
        assert!(store.lookup("grr").is_none());
        assert_eq!((store.hits(), store.misses()), (3, 2));
        // A disabled store serves nothing: every use is a miss.
        let disabled = TraceStore::disabled(Scale::Test);
        assert!(disabled.get_or_record(w.as_ref()).is_none());
        assert_eq!((disabled.hits(), disabled.misses()), (0, 1));
    }

    #[test]
    fn save_all_writes_loadable_traces() {
        let dir = std::env::temp_dir().join(format!("cwp-store-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(Scale::Test);
        let w = workloads::grr();
        let original = store.get_or_record(w.as_ref()).unwrap();
        let written = store.save_all(&dir).unwrap();
        assert_eq!(written.len(), 1);
        assert!(written[0].ends_with("grr.cwptrc"));
        let loaded = RecordedTrace::load(&written[0]).unwrap();
        assert_eq!(&loaded, original.as_ref());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
