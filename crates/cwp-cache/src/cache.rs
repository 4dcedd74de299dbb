//! The cache engine: lookup, replacement, and the policy state machines.
//!
//! One engine implements the whole write-hit × write-miss matrix, on one
//! of two planes picked by the type of its next level:
//!
//! * the **data plane** (a next level that keeps bytes, such as
//!   [`MainMemory`]): lines hold real bytes, so reads return data, the
//!   fault injector can flip bits, and stacked caches are transparent;
//! * the **data-free plane** (a next level over [`cwp_mem::NullMemory`],
//!   whose [`NextLevel::CARRIES_DATA`] is false): no data array or fault
//!   state exists and every data copy compiles away, as
//!   probe emissions do under [`NullProbe`]. It rejects fault-injecting
//!   configurations, whose statistics depend on the bytes.
//!
//! Both planes run the same state machine over the same flat metadata
//! arrays (`tags`, `valid`, `dirty`, `last_used`, indexed
//! `set * ways + way`), so their statistics, traffic and event streams
//! are identical for every fault-free configuration.

use cwp_mem::{CwpError, MainMemory, NextLevel, Traffic, TrafficRecorder};
use cwp_obs::event::{AccessKind, Event, FaultOutcome, FetchCause, WriteMissAction};
use cwp_obs::{NullProbe, Probe};

use crate::config::CacheConfig;
use crate::fault::{FaultEvent, FaultInjector, FaultKind, Protection};
use crate::mask::{self, MAX_LINE_BYTES};
use crate::policy::{WriteHitPolicy, WriteMissPolicy};
use crate::stats::CacheStats;

/// Cap on the structured [`FaultEvent`] log; counters in
/// [`CacheStats::faults`] stay exact past it.
const FAULT_LOG_CAP: usize = 4096;

/// The bytes a data-free store hands its next level: only their count is
/// observed.
static ZERO_LINE: [u8; MAX_LINE_BYTES as usize] = [0; MAX_LINE_BYTES as usize];

/// One outstanding injected bit flip, remembered so ECC correction can
/// undo it exactly.
#[derive(Debug, Clone, Copy)]
struct Flip {
    idx: usize,
    byte: u32,
    bit: u8,
}

/// A simulated set-associative cache.
///
/// `N` is the next-lower level of the hierarchy: [`cwp_mem::MainMemory`],
/// a [`cwp_mem::TrafficRecorder`], a write buffer from `cwp-buffers`, or
/// another `Cache` (caches implement [`NextLevel`], so hierarchies stack).
/// Its [`NextLevel::CARRIES_DATA`] picks the plane (see the module docs).
///
/// `P` is an observability [`Probe`] receiving the typed event stream.
/// It defaults to [`NullProbe`], whose `ENABLED = false` makes every
/// emission site compile away — an uninstrumented `Cache<N>` is
/// bit-identical to the pre-observability engine. Build a probed cache
/// with [`Cache::with_probe`].
///
/// See the crate documentation for policy semantics and an example.
#[derive(Debug, Clone)]
pub struct Cache<N, P = NullProbe> {
    config: CacheConfig,
    line_bytes: u32,
    line_shift: u32,
    /// `log2(sets)`: a line address shifted right by it is the tag.
    set_shift: u32,
    /// `sets - 1`: a line address masked by it is the set.
    set_mask: u64,
    ways: u32,
    /// `log2(ways)`: a line index shifted right by it is the set.
    way_shift: u32,
    /// Per-line tag words, indexed `set * ways + way`.
    tags: Vec<u64>,
    /// Per-line masks: byte `i` of the line holds correct data iff bit
    /// `i` is set; `valid[idx] == 0` means the way is empty.
    valid: Vec<u64>,
    /// Per-line masks: byte `i` differs from the next level iff bit `i`
    /// is set.
    dirty: Vec<u64>,
    /// Per-line LRU timestamps.
    last_used: Vec<u64>,
    /// Line bytes, line `idx` at `idx * line_bytes`; empty on the
    /// data-free plane.
    data: Vec<u8>,
    tick: u64,
    /// Bytes written by every store so far.
    bytes_written: u64,
    stats: CacheStats,
    /// Per-line mask of bytes holding an injected (not yet resolved) flip;
    /// empty on the data-free plane. Nonzero only for a line some
    /// outstanding [`Flip`] names, so it is all zero while `flips` is
    /// empty. Always zero under [`Protection::None`]: without check bits
    /// the cache cannot know, so corruption is tracked only in the
    /// counters.
    faulty: Vec<u64>,
    /// Outstanding flips, for exact ECC un-flipping.
    flips: Vec<Flip>,
    injector: FaultInjector,
    fault_log: Vec<FaultEvent>,
    /// Site of the most recent data-loss event, for [`Cache::try_read`] /
    /// [`Cache::try_write`] error reporting.
    last_loss: Option<(u64, u32)>,
    next: N,
    probe: P,
}

/// The common standalone configuration: a cache over main memory with a
/// traffic recorder at its back side.
pub type MemoryCache = Cache<TrafficRecorder<MainMemory>>;

impl MemoryCache {
    /// Creates a cache backed by fresh [`MainMemory`] behind a
    /// [`TrafficRecorder`].
    pub fn with_memory(config: CacheConfig) -> Self {
        Cache::new(config, TrafficRecorder::new(MainMemory::new()))
    }
}

impl<N: NextLevel, P> Cache<TrafficRecorder<N>, P> {
    /// The back-side traffic recorded so far.
    pub fn traffic(&self) -> Traffic {
        self.next.traffic()
    }
}

impl<N: NextLevel> Cache<N> {
    /// Creates an unobserved cache with `next` as the next-lower
    /// hierarchy level.
    ///
    /// # Panics
    ///
    /// As [`Cache::with_probe`].
    pub fn new(config: CacheConfig, next: N) -> Self {
        Cache::with_probe(config, next, NullProbe)
    }
}

impl<N: NextLevel, P: Probe> Cache<N, P> {
    /// Creates a cache whose event stream feeds `probe`.
    ///
    /// # Panics
    ///
    /// Panics if `next` carries no data and `config` injects faults: the
    /// fault model flips data bits, which the data-free plane does not
    /// hold.
    pub fn with_probe(config: CacheConfig, next: N, probe: P) -> Self {
        assert!(
            N::CARRIES_DATA || config.fault_rate_ppm() == 0,
            "a data-free cache cannot model fault injection"
        );
        let line_bytes = config.line_bytes();
        let lines = config.lines() as usize;
        let data_lines = if N::CARRIES_DATA { lines } else { 0 };
        let sets = config.sets();
        debug_assert!(sets.is_power_of_two(), "{sets} sets: not a power of two");
        Cache {
            config,
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: u64::from(sets) - 1,
            ways: config.associativity(),
            way_shift: config.associativity().trailing_zeros(),
            tags: vec![0; lines],
            valid: vec![0; lines],
            dirty: vec![0; lines],
            last_used: vec![0; lines],
            data: vec![0u8; data_lines * line_bytes as usize],
            tick: 0,
            bytes_written: 0,
            stats: CacheStats::default(),
            faulty: vec![0u64; data_lines],
            flips: Vec::new(),
            injector: FaultInjector::new(config.fault_rate_ppm(), config.fault_seed()),
            fault_log: Vec::new(),
            last_loss: None,
            next,
            probe,
        }
    }

    /// Unwraps the cache into its next level and probe (e.g. to finish
    /// a streaming exporter). Dirty data still resident is *not*
    /// written back; call [`Cache::flush`] first if it matters.
    pub fn into_parts(self) -> (N, P) {
        (self.next, self.probe)
    }

    #[inline]
    fn emit(&mut self, event: Event) {
        if P::ENABLED {
            self.probe.on_event(&event);
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Event counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Bytes written by every store so far, whether it hit or missed.
    /// A write-through cache sends exactly these bytes to the next level
    /// under fetch-on-write and write-validate.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Resets the event counters (the cache contents are untouched), e.g.
    /// to measure steady-state behaviour after a warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Shared access to the next level.
    pub fn next_level(&self) -> &N {
        &self.next
    }

    /// Mutable access to the next level.
    pub fn next_level_mut(&mut self) -> &mut N {
        &mut self.next
    }

    /// Unwraps the cache, returning the next level.
    ///
    /// Dirty data still resident is *not* written back; call
    /// [`Cache::flush`] first if it matters.
    pub fn into_next_level(self) -> N {
        self.next
    }

    /// Reads `buf.len()` bytes at `addr`, faulting lines in as needed.
    /// Accesses may span any number of lines; each line-sized piece counts
    /// as one access. On the data-free plane `buf` is left untouched.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) {
        for_each_piece(self.line_bytes, addr, buf.len(), |a, lo, hi| {
            let src = self.read_within(a, (hi - lo) as u32);
            if N::CARRIES_DATA {
                buf[lo..hi].copy_from_slice(&self.data[src..src + (hi - lo)]);
            }
        });
    }

    /// As [`Cache::read`] of `len` bytes whose data nobody looks at: the
    /// entry point of trace-driven runs, which carry addresses and sizes
    /// but no values.
    pub fn read_len(&mut self, addr: u64, len: usize) {
        for_each_piece(self.line_bytes, addr, len, |a, lo, hi| {
            self.read_within(a, (hi - lo) as u32);
        });
    }

    /// Writes `data` at `addr` under the configured policies. Accesses may
    /// span any number of lines; each line-sized piece counts as one
    /// access.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.bytes_written += data.len() as u64;
        for_each_piece(self.line_bytes, addr, data.len(), |a, lo, hi| {
            self.write_within(a, &data[lo..hi]);
        });
    }

    /// As [`Cache::write`] of `len` zero bytes: the entry point of
    /// trace-driven runs, which carry addresses and sizes but no values.
    pub fn write_len(&mut self, addr: u64, len: usize) {
        self.bytes_written += len as u64;
        for_each_piece(self.line_bytes, addr, len, |a, lo, hi| {
            self.write_within(a, &ZERO_LINE[..hi - lo]);
        });
    }

    /// Writes back any dirty data and counts every resident line as a
    /// flush victim ("flush stop", Section 5).
    pub fn flush(&mut self) {
        for idx in 0..self.tags.len() {
            self.evict(idx, true);
        }
    }

    /// Returns `true` if every byte of `addr..addr+len` is resident and
    /// valid (a read would hit).
    pub fn is_resident(&self, addr: u64, len: usize) -> bool {
        let mut resident = true;
        for_each_piece(self.line_bytes, addr, len, |a, lo, hi| {
            let (set, tag, offset) = self.decompose(a);
            let need = mask::span(offset, (hi - lo) as u32);
            resident &= self
                .find_way(set, tag)
                .is_some_and(|way| self.valid[self.line_index(set, way)] & need == need);
        });
        resident
    }

    /// Executes a cache-line *allocation instruction* (Section 4): claims
    /// the line containing `addr` without fetching it, marking every byte
    /// valid (and dirty, under write-back). The line's data is zero-filled
    /// here, standing in for the undefined contents real hardware leaves.
    ///
    /// This models the instructions of the 801, MultiTitan, and PA-RISC
    /// that the paper compares write-validate against. It carries the
    /// hazards the paper lists: if the program does not overwrite the
    /// whole line (or is context-switched first), the allocation has
    /// destroyed the memory locations' old contents — the cache is no
    /// longer transparent. `examples/alloc_instructions.rs` demonstrates
    /// both the payoff and the hazard.
    ///
    /// Counts as neither a hit nor a miss; the allocation itself is
    /// tallied in [`CacheStats::line_allocations`].
    ///
    /// [`CacheStats::line_allocations`]: crate::stats::CacheStats::line_allocations
    pub fn allocate_line(&mut self, addr: u64) {
        let (set, tag, _offset) = self.decompose(addr);
        self.stats.line_allocations += 1;
        let line_addr = self.line_addr(set, tag);
        self.emit(Event::LineAllocated { line_addr });
        let idx = match self.find_way(set, tag) {
            Some(way) => self.line_index(set, way),
            None => {
                let idx = self.line_index(set, self.victim_way(set));
                self.evict(idx, false);
                idx
            }
        };
        // The whole data array entry is rewritten (with fresh check
        // bits), so any outstanding flip on this line is gone.
        self.drop_fault_state(idx);
        if N::CARRIES_DATA {
            self.line_data(idx).fill(0);
        }
        let full = mask::full(self.line_bytes);
        let write_back = self.config.write_hit() == WriteHitPolicy::WriteBack;
        let was_dirty = self.dirty[idx] != 0;
        self.tags[idx] = tag;
        self.valid[idx] = full;
        self.dirty[idx] = if write_back { full } else { 0 };
        if write_back && !was_dirty {
            self.emit(Event::LineDirtied { line_addr });
        }
        self.touch(idx);
    }

    // ------------------------------------------------------------------
    // Auditor hooks: read-only views of per-line sub-block state
    // ------------------------------------------------------------------

    /// Read-only snapshots of every resident line's sub-block state, in
    /// set-major order. This is the window the invariant auditor and the
    /// differential-testing oracle use to check mask laws (valid ⊇ dirty,
    /// masks confined to the line) without touching engine internals.
    pub fn line_states(&self) -> Vec<LineState> {
        (0..self.tags.len())
            .filter(|&idx| self.valid[idx] != 0)
            .map(|idx| LineState {
                set: self.set_of(idx),
                way: idx as u32 & (self.ways - 1),
                line_addr: self.line_addr_of(idx),
                valid: self.valid[idx],
                dirty: self.dirty[idx],
            })
            .collect()
    }

    /// Checks the mask conservation laws on the set(s) an access at
    /// `addr..addr + len` touches — O(ways), cheap enough to run after
    /// every reference: on every line there, the dirty mask is a subset
    /// of the valid mask, both masks are confined to the line's bytes,
    /// and a write-through cache holds no dirty bytes at all.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated law.
    pub fn audit_masks_at(&self, addr: u64, len: usize) -> Result<(), String> {
        let last = addr + (len.max(1) as u64 - 1);
        let (first_set, _, _) = self.decompose(addr);
        let (last_set, _, _) = self.decompose(last);
        for set in [first_set, last_set] {
            for way in 0..self.ways {
                self.audit_line(self.line_index(set, way))?;
            }
            if first_set == last_set {
                break;
            }
        }
        Ok(())
    }

    fn audit_line(&self, idx: usize) -> Result<(), String> {
        let (valid, dirty) = (self.valid[idx], self.dirty[idx]);
        let full = mask::full(self.line_bytes);
        let site = || {
            format!(
                "line {:#x} (set {}, way {})",
                self.line_addr_of(idx),
                self.set_of(idx),
                idx as u32 & (self.ways - 1)
            )
        };
        if valid & !full != 0 || dirty & !full != 0 {
            return Err(format!(
                "{}: mask bits past the {}B line (valid {valid:#x}, dirty {dirty:#x})",
                site(),
                self.line_bytes,
            ));
        }
        if dirty & !valid != 0 {
            return Err(format!(
                "{}: dirty bytes outside the valid mask (valid {valid:#x}, dirty {dirty:#x})",
                site(),
            ));
        }
        if self.config.write_hit() == WriteHitPolicy::WriteThrough && dirty != 0 {
            return Err(format!(
                "{}: dirty bytes ({dirty:#x}) in a write-through cache",
                site(),
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Address plumbing
    // ------------------------------------------------------------------

    /// Splits `addr` into (set, tag, offset in line) by shifts and masks:
    /// sets, like lines, come in powers of two.
    #[inline]
    fn decompose(&self, addr: u64) -> (u32, u64, u32) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as u32;
        let tag = line_addr >> self.set_shift;
        let offset = (addr & (u64::from(self.line_bytes) - 1)) as u32;
        (set, tag, offset)
    }

    #[inline]
    fn line_addr(&self, set: u32, tag: u64) -> u64 {
        (tag << self.set_shift | u64::from(set)) << self.line_shift
    }

    #[inline]
    fn line_index(&self, set: u32, way: u32) -> usize {
        (set * self.ways + way) as usize
    }

    #[inline]
    fn set_of(&self, idx: usize) -> u32 {
        (idx >> self.way_shift) as u32
    }

    fn line_addr_of(&self, idx: usize) -> u64 {
        self.line_addr(self.set_of(idx), self.tags[idx])
    }

    #[inline]
    fn line_data(&mut self, idx: usize) -> &mut [u8] {
        let lb = self.line_bytes as usize;
        &mut self.data[idx * lb..(idx + 1) * lb]
    }

    /// First way holding `tag` valid in `set`. Rows of up to 32 ways are
    /// scanned branchlessly: the whole row is compared into a hit bitmap,
    /// then the lowest set bit picked — no per-way branch. Wider rows (the
    /// builder accepts any power-of-two associativity that fits the size)
    /// do not fit the bitmap and take a plain first-match scan.
    #[inline]
    fn find_way(&self, set: u32, tag: u64) -> Option<u32> {
        let base = self.line_index(set, 0);
        let n = self.ways as usize;
        let tags = &self.tags[base..base + n];
        let valid = &self.valid[base..base + n];
        if n > 32 {
            return (0..n)
                .position(|way| tags[way] == tag && valid[way] != 0)
                .map(|way| way as u32);
        }
        let mut hits = 0u32;
        for way in 0..n {
            let hit = (tags[way] == tag) & (valid[way] != 0);
            hits |= (hit as u32) << way;
        }
        (hits != 0).then(|| hits.trailing_zeros())
    }

    /// Picks the way a miss in `set` would replace: an invalid way if one
    /// exists, else the least recently used (lowest way on ties).
    #[inline]
    fn victim_way(&self, set: u32) -> u32 {
        let base = self.line_index(set, 0);
        let mut best = 0u32;
        let mut best_used = u64::MAX;
        for way in 0..self.ways {
            let idx = base + way as usize;
            if self.valid[idx] == 0 {
                return way;
            }
            if self.last_used[idx] < best_used {
                best_used = self.last_used[idx];
                best = way;
            }
        }
        best
    }

    #[inline]
    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        self.last_used[idx] = self.tick;
    }

    /// Empties line `idx`'s metadata.
    #[inline]
    fn clear(&mut self, idx: usize) {
        self.tags[idx] = 0;
        self.valid[idx] = 0;
        self.dirty[idx] = 0;
        self.last_used[idx] = 0;
    }

    // ------------------------------------------------------------------
    // Line movement
    // ------------------------------------------------------------------

    /// Writes the dirty bytes of line `idx` to the next level.
    ///
    /// A partially valid line (possible only under write-validate) must
    /// write back only its dirty runs even in whole-line mode: the invalid
    /// bytes were never fetched and hold garbage. This is the paper's
    /// observation that "write-validate also requires that lower levels in
    /// the memory system support writes of partial cache lines".
    fn write_back_line(&mut self, idx: usize) {
        let lb = self.line_bytes;
        if self.config.partial_writeback() || self.valid[idx] != mask::full(lb) {
            for (off, len) in mask::runs(self.dirty[idx], lb) {
                self.send_write_back(idx, off, len);
            }
        } else {
            self.send_write_back(idx, 0, lb);
        }
    }

    /// Hands bytes `off..off + len` of line `idx` to the next level as a
    /// write-back.
    #[inline]
    fn send_write_back(&mut self, idx: usize, off: u32, len: u32) {
        let addr = self.line_addr_of(idx) + u64::from(off);
        self.emit(Event::WriteBack { addr, bytes: len });
        let (lo, len) = (idx * self.line_bytes as usize + off as usize, len as usize);
        let bytes = if N::CARRIES_DATA {
            &self.data[lo..lo + len]
        } else {
            &ZERO_LINE[..len]
        };
        self.next.write_back(addr, bytes);
    }

    /// Evicts line `idx`, recording victim statistics (flush statistics
    /// when `flush`) and writing back dirty bytes. Leaves the way invalid.
    fn evict(&mut self, idx: usize, flush: bool) {
        if self.has_flips() && self.faulty[idx] != 0 {
            // Check bits are verified as the victim is read out. A lost
            // dirty line (parity) empties the way and is counted as a
            // fault loss rather than a victim.
            self.resolve_fault(idx, true);
        }
        if self.valid[idx] != 0 {
            let dirty = self.dirty[idx];
            let victims = if flush {
                &mut self.stats.flush
            } else {
                &mut self.stats.victims
            };
            victims.total += 1;
            if dirty != 0 {
                victims.dirty += 1;
                victims.dirty_bytes += u64::from(mask::count(dirty));
            }
            self.emit(Event::Eviction {
                line_addr: self.line_addr_of(idx),
                dirty_bytes: mask::count(dirty),
                flush,
            });
            if dirty != 0 {
                self.write_back_line(idx);
            }
        }
        self.clear(idx);
    }

    /// Fetches the whole line for `tag` into line `idx`, merging with any
    /// valid bytes already present (write-validate refill semantics:
    /// valid bytes are newer than memory and must be kept).
    fn fetch_line(&mut self, idx: usize, tag: u64) {
        self.stats.fetches += 1;
        let addr = self.line_addr(self.set_of(idx), tag);
        self.emit(Event::Fetch {
            cause: FetchCause::Demand,
            addr,
            bytes: self.line_bytes,
        });
        let mut fetched = [0u8; MAX_LINE_BYTES as usize];
        let fetched = &mut fetched[..self.line_bytes as usize];
        self.next.fetch_line(addr, fetched);
        if N::CARRIES_DATA {
            let keep = self.valid[idx];
            let line = self.line_data(idx);
            for (i, b) in fetched.iter().enumerate() {
                if keep & (1u64 << i) == 0 {
                    line[i] = *b;
                }
            }
        }
        self.tags[idx] = tag;
        self.valid[idx] = mask::full(self.line_bytes);
    }

    // ------------------------------------------------------------------
    // The access state machines
    // ------------------------------------------------------------------

    /// One line-bounded read piece of `len` bytes; returns where its
    /// bytes start in the data array.
    #[inline]
    fn read_within(&mut self, addr: u64, len: u32) -> usize {
        self.stats.reads += 1;
        self.emit(Event::Access {
            kind: AccessKind::Read,
            addr,
            bytes: len,
        });
        self.maybe_inject();
        let (set, tag, offset) = self.decompose(addr);
        self.scrub(set, tag);
        let need = mask::span(offset, len);

        let idx = match self.find_way(set, tag) {
            Some(way) => {
                let idx = self.line_index(set, way);
                if self.valid[idx] & need == need {
                    self.stats.read_hits += 1;
                    self.emit(Event::ReadHit { addr });
                } else {
                    // Tag match but some requested bytes invalid: a miss
                    // that refills the line, merging around valid bytes.
                    self.stats.read_misses += 1;
                    self.stats.partial_read_misses += 1;
                    self.emit(Event::ReadMiss {
                        addr,
                        partial: true,
                    });
                    self.fetch_line(idx, tag);
                }
                idx
            }
            None => {
                self.stats.read_misses += 1;
                self.emit(Event::ReadMiss {
                    addr,
                    partial: false,
                });
                let idx = self.line_index(set, self.victim_way(set));
                self.evict(idx, false);
                self.fetch_line(idx, tag);
                idx
            }
        };
        self.touch(idx);
        idx * self.line_bytes as usize + offset as usize
    }

    /// One line-bounded write piece.
    #[inline]
    fn write_within(&mut self, addr: u64, data: &[u8]) {
        self.stats.writes += 1;
        self.emit(Event::Access {
            kind: AccessKind::Write,
            addr,
            bytes: data.len() as u32,
        });
        self.maybe_inject();
        let (set, tag, offset) = self.decompose(addr);
        self.scrub(set, tag);
        let span = mask::span(offset, data.len() as u32);
        let write_through = self.config.write_hit() == WriteHitPolicy::WriteThrough;

        if let Some(way) = self.find_way(set, tag) {
            // Write hit: the tag is resident. Writing validates the bytes
            // regardless of their previous valid state.
            let idx = self.line_index(set, way);
            self.stats.write_hits += 1;
            self.emit(Event::WriteHit { addr });
            self.store_into(idx, offset, data, span);
            if write_through {
                self.send_write_through(addr, data);
            }
            self.touch(idx);
            return;
        }

        self.stats.write_misses += 1;
        self.emit(Event::WriteMiss {
            addr,
            action: match self.config.write_miss() {
                WriteMissPolicy::FetchOnWrite => WriteMissAction::Fetch,
                WriteMissPolicy::WriteValidate => WriteMissAction::Validate,
                WriteMissPolicy::WriteAround => WriteMissAction::Around,
                WriteMissPolicy::WriteInvalidate => WriteMissAction::Invalidate,
            },
        });
        match self.config.write_miss() {
            WriteMissPolicy::FetchOnWrite | WriteMissPolicy::WriteValidate => {
                let idx = self.line_index(set, self.victim_way(set));
                self.evict(idx, false);
                if self.config.write_miss() == WriteMissPolicy::FetchOnWrite {
                    self.fetch_line(idx, tag);
                } else {
                    // Write-validate allocates without fetching: valid
                    // bits cover only the written bytes.
                    self.tags[idx] = tag;
                }
                self.store_into(idx, offset, data, span);
                if write_through {
                    self.send_write_through(addr, data);
                }
                self.touch(idx);
            }
            WriteMissPolicy::WriteAround => {
                // Bypass: the old line (if any) stays resident and the
                // LRU order is untouched.
                self.send_write_through(addr, data);
            }
            WriteMissPolicy::WriteInvalidate => {
                // The concurrent data write corrupted the indexed line, so
                // invalidate it and pass the data on. Write-through caches
                // hold no unique data, so nothing is lost.
                let idx = self.line_index(set, self.victim_way(set));
                debug_assert_eq!(
                    self.dirty[idx], 0,
                    "write-invalidate requires write-through"
                );
                if self.valid[idx] != 0 {
                    self.stats.invalidations += 1;
                    let line_addr = self.line_addr_of(idx);
                    self.emit(Event::Invalidation { line_addr });
                }
                self.clear(idx);
                self.drop_fault_state(idx);
                self.send_write_through(addr, data);
            }
        }
    }

    /// Stores `data` into resident line `idx`, updating valid/dirty masks
    /// and the writes-to-already-dirty counter (checked before the mask
    /// OR).
    #[inline]
    fn store_into(&mut self, idx: usize, offset: u32, data: &[u8], span: u64) {
        let write_back = self.config.write_hit() == WriteHitPolicy::WriteBack;
        if write_back && self.dirty[idx] != 0 {
            self.stats.writes_to_dirty += 1;
            if P::ENABLED {
                let line_addr = self.line_addr_of(idx);
                self.emit(Event::WriteToDirty { line_addr });
            }
        } else if write_back && span != 0 {
            // Clean line turning dirty: the sampler integrates these
            // (with dirty evictions and data losses) into a dirty-line
            // gauge.
            if P::ENABLED {
                let line_addr = self.line_addr_of(idx);
                self.emit(Event::LineDirtied { line_addr });
            }
        }
        if N::CARRIES_DATA {
            let lo = idx * self.line_bytes as usize + offset as usize;
            self.data[lo..lo + data.len()].copy_from_slice(data);
        }
        self.valid[idx] |= span;
        if write_back {
            self.dirty[idx] |= span;
        }
    }

    /// Forwards a store to the next level, emitting the write-through
    /// traffic event (exactly one per `NextLevel::write_through` call,
    /// mirroring what a `TrafficRecorder` would count).
    #[inline]
    fn send_write_through(&mut self, addr: u64, data: &[u8]) {
        self.emit(Event::WriteThrough {
            addr,
            bytes: data.len() as u32,
        });
        self.next.write_through(addr, data);
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery (Section 3)
    // ------------------------------------------------------------------

    /// The structured log of resolved fault events, oldest first. The log
    /// is capped at 4096 entries; the counters in
    /// [`CacheStats::faults`](crate::stats::CacheStats::faults) stay
    /// exact past the cap.
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.fault_log
    }

    /// Whether any injected flip is outstanding. While none is, every
    /// `faulty` mask is zero, so the per-access, per-eviction and
    /// per-flush fault checks are skipped exactly; on the data-free plane
    /// they compile away.
    #[inline]
    fn has_flips(&self) -> bool {
        N::CARRIES_DATA && !self.flips.is_empty()
    }

    fn log_fault(&mut self, event: FaultEvent) {
        if self.fault_log.len() < FAULT_LOG_CAP {
            self.fault_log.push(event);
        }
    }

    /// Gives the injector its per-access chance to flip one bit in a
    /// random valid byte of the data array.
    ///
    /// The injector keeps at most one outstanding flip per protected
    /// 32-bit word — the paper's single-bit fault model, and the bound
    /// under which single-error-correcting ECC corrects everything.
    #[inline]
    fn maybe_inject(&mut self) {
        if N::CARRIES_DATA && self.injector.fires() {
            self.inject();
        }
    }

    fn inject(&mut self) {
        let valid_lines = self.valid.iter().filter(|&&v| v != 0).count();
        if valid_lines == 0 {
            return;
        }
        let nth = self.injector.pick(valid_lines as u64) as usize;
        let Some(idx) = self
            .valid
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .nth(nth)
            .map(|(i, _)| i)
        else {
            return;
        };
        let valid = self.valid[idx];
        let byte_choice = self.injector.pick(u64::from(mask::count(valid))) as u32;
        let Some(byte) = nth_set_bit(valid, byte_choice) else {
            return;
        };
        let protected = self.config.protection() != Protection::None;
        if protected && self.faulty[idx] & (0xFu64 << (byte & !3)) != 0 {
            return;
        }
        let bit = self.injector.pick(8) as u8;
        let off = idx * self.line_bytes as usize + byte as usize;
        self.data[off] ^= 1 << bit;
        self.stats.faults.injected += 1;
        if P::ENABLED {
            let line_addr = self.line_addr_of(idx);
            self.emit(Event::FaultInjected {
                line_addr,
                byte,
                bit,
                silent: !protected,
            });
        }
        if protected {
            self.faulty[idx] |= 1u64 << byte;
            self.flips.push(Flip { idx, byte, bit });
        } else {
            // No check bits: the flip is invisible to the cache and the
            // corrupted byte stays live. Only the simulator's omniscient
            // observer counts it.
            self.stats.faults.silent_corruptions += 1;
            let line_addr = self.line_addr_of(idx);
            self.log_fault(FaultEvent {
                kind: FaultKind::SilentCorruption,
                line_addr,
                byte,
                bit,
                dirty_bytes: 0,
            });
        }
    }

    /// Verifies the check bits of the line about to be accessed and
    /// resolves any outstanding fault on it.
    #[inline]
    fn scrub(&mut self, set: u32, tag: u64) {
        if !self.has_flips() {
            return;
        }
        if let Some(way) = self.find_way(set, tag) {
            let idx = self.line_index(set, way);
            if self.faulty[idx] != 0 {
                self.resolve_fault(idx, false);
            }
        }
    }

    /// Resolves the detected fault(s) on line `idx` per the configured
    /// protection. `discarding` means the line is being evicted or
    /// flushed: a faulty *clean* parity line is then simply dropped
    /// (clean victims are never read out, so nothing is lost and no
    /// refetch is needed).
    fn resolve_fault(&mut self, idx: usize, discarding: bool) {
        let line_addr = self.line_addr_of(idx);
        let dirty = self.dirty[idx];
        let mut mine = Vec::new();
        let mut i = 0;
        while i < self.flips.len() {
            if self.flips[i].idx == idx {
                mine.push(self.flips.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.faulty[idx] = 0;
        match self.config.protection() {
            // Unreachable in practice: without check bits no fault is
            // ever recorded against a line. State is cleared above.
            Protection::None => {}
            Protection::EccPerWord => {
                for f in mine {
                    let off = idx * self.line_bytes as usize + f.byte as usize;
                    self.data[off] ^= 1 << f.bit;
                    self.stats.faults.corrected_in_place += 1;
                    self.emit(Event::FaultResolved {
                        outcome: FaultOutcome::Corrected,
                        line_addr,
                        dirty_bytes: 0,
                    });
                    self.log_fault(FaultEvent {
                        kind: FaultKind::CorrectedInPlace,
                        line_addr,
                        byte: f.byte,
                        bit: f.bit,
                        dirty_bytes: 0,
                    });
                }
            }
            Protection::ByteParity if dirty == 0 => {
                if discarding {
                    self.stats.faults.discarded_clean += mine.len() as u64;
                    if P::ENABLED {
                        for _ in &mine {
                            self.emit(Event::FaultResolved {
                                outcome: FaultOutcome::DiscardedClean,
                                line_addr,
                                dirty_bytes: 0,
                            });
                        }
                    }
                } else {
                    // Every valid byte of a clean line matches the next
                    // level, so a whole-line refetch recovers all flips
                    // at once (and validates the rest of the line).
                    // This refetch is back-side traffic but not a demand
                    // fetch: it is not counted in `CacheStats::fetches`,
                    // hence the `Recovery` cause.
                    self.emit(Event::Fetch {
                        cause: FetchCause::Recovery,
                        addr: line_addr,
                        bytes: self.line_bytes,
                    });
                    let lb = self.line_bytes as usize;
                    self.next
                        .fetch_line(line_addr, &mut self.data[idx * lb..(idx + 1) * lb]);
                    self.valid[idx] = mask::full(self.line_bytes);
                    self.stats.faults.refetch_recoveries += mine.len() as u64;
                    for f in mine {
                        self.emit(Event::FaultResolved {
                            outcome: FaultOutcome::Refetched,
                            line_addr,
                            dirty_bytes: 0,
                        });
                        self.log_fault(FaultEvent {
                            kind: FaultKind::RefetchRecovery,
                            line_addr,
                            byte: f.byte,
                            bit: f.bit,
                            dirty_bytes: 0,
                        });
                    }
                }
            }
            Protection::ByteParity => {
                // Parity on a dirty line: the dirty bytes exist nowhere
                // else. Count the loss and drop the line un-written-back
                // — never a panic.
                let lost = mask::count(dirty);
                self.stats.faults.data_loss_events += 1;
                self.stats.faults.data_loss_dirty_bytes += u64::from(lost);
                self.last_loss = Some((line_addr, lost));
                self.emit(Event::FaultResolved {
                    outcome: FaultOutcome::DataLoss,
                    line_addr,
                    dirty_bytes: lost,
                });
                let site = mine.first().copied();
                self.log_fault(FaultEvent {
                    kind: FaultKind::DataLoss,
                    line_addr,
                    byte: site.map_or(0, |f| f.byte),
                    bit: site.map_or(0, |f| f.bit),
                    dirty_bytes: lost,
                });
                self.clear(idx);
            }
        }
    }

    /// Forgets fault state for a line whose data is being overwritten or
    /// discarded wholesale (fresh check bits are written with new data).
    fn drop_fault_state(&mut self, idx: usize) {
        if self.has_flips() && self.faulty[idx] != 0 {
            self.faulty[idx] = 0;
            self.flips.retain(|f| f.idx != idx);
        }
    }

    // ------------------------------------------------------------------
    // Checked access entry points
    // ------------------------------------------------------------------

    /// Like [`Cache::read`], but validates the address span and surfaces
    /// any unrecoverable data loss the access triggered as a typed error
    /// instead of a bare counter.
    ///
    /// # Errors
    ///
    /// [`CwpError::AddressOverflow`] if `addr + buf.len()` exceeds the
    /// address space; [`CwpError::FaultLoss`] if resolving a detected
    /// fault during this access destroyed dirty data (the read still
    /// completes, returning the next level's stale bytes).
    pub fn try_read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), CwpError> {
        check_span(addr, buf.len())?;
        let before = self.stats.faults.data_loss_events;
        self.read(addr, buf);
        self.loss_since(before)
    }

    /// Like [`Cache::write`], but validates the address span and surfaces
    /// any unrecoverable data loss as a typed error. See
    /// [`Cache::try_read`].
    ///
    /// # Errors
    ///
    /// [`CwpError::AddressOverflow`] or [`CwpError::FaultLoss`], as for
    /// [`Cache::try_read`].
    pub fn try_write(&mut self, addr: u64, data: &[u8]) -> Result<(), CwpError> {
        check_span(addr, data.len())?;
        let before = self.stats.faults.data_loss_events;
        self.write(addr, data);
        self.loss_since(before)
    }

    fn loss_since(&self, before: u64) -> Result<(), CwpError> {
        if self.stats.faults.data_loss_events == before {
            return Ok(());
        }
        // `data_loss_events` is incremented in exactly one place — the
        // dirty-line ByteParity arm of `resolve_fault` — which records
        // `last_loss` in the same block. The counter moving without a
        // recorded site is therefore impossible unless that pairing is
        // broken; report it as the bug it would be instead of inventing
        // a (0, 0) loss site.
        match self.last_loss {
            Some((line_addr, dirty_bytes)) => Err(CwpError::FaultLoss {
                line_addr,
                dirty_bytes,
            }),
            None => Err(CwpError::InvariantViolation {
                detail: format!(
                    "data_loss_events advanced from {before} to {} with no loss site recorded",
                    self.stats.faults.data_loss_events
                ),
            }),
        }
    }
}

/// A read-only snapshot of one resident line's sub-block state, as
/// returned by [`Cache::line_states`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// The set holding the line.
    pub set: u32,
    /// The way within the set.
    pub way: u32,
    /// Line-aligned byte address.
    pub line_addr: u64,
    /// Per-byte valid mask (bit `i` = byte `i` holds correct data).
    pub valid: u64,
    /// Per-byte dirty mask (bit `i` = byte `i` differs from memory).
    pub dirty: u64,
}

/// Index of the `n`-th (0-based) set bit of `mask`, if it has that many.
fn nth_set_bit(mask: u64, n: u32) -> Option<u32> {
    let mut seen = 0;
    (0..64).find(|&i| {
        if mask & (1u64 << i) != 0 {
            if seen == n {
                return true;
            }
            seen += 1;
        }
        false
    })
}

/// Splits the access `addr..addr + len` at `line_bytes` boundaries,
/// calling `piece(piece_addr, lo, hi)` for each piece, where `lo..hi` is
/// the piece's byte range within the access. A zero-length access has no
/// pieces.
#[inline]
fn for_each_piece(
    line_bytes: u32,
    addr: u64,
    len: usize,
    mut piece: impl FnMut(u64, usize, usize),
) {
    let line = u64::from(line_bytes);
    let mut pos = 0usize;
    while pos < len {
        let a = addr + pos as u64;
        let take = ((line - (a & (line - 1))) as usize).min(len - pos);
        piece(a, pos, pos + take);
        pos += take;
    }
}

/// Rejects accesses whose last byte would not fit in the address space.
fn check_span(addr: u64, len: usize) -> Result<(), CwpError> {
    if u128::from(addr) + len as u128 > u128::from(u64::MAX) + 1 {
        return Err(CwpError::AddressOverflow { addr, len });
    }
    Ok(())
}

impl<N: NextLevel, P: Probe> NextLevel for Cache<N, P> {
    const CARRIES_DATA: bool = N::CARRIES_DATA;

    fn fetch_line(&mut self, addr: u64, buf: &mut [u8]) {
        self.read(addr, buf);
    }

    fn write_back(&mut self, addr: u64, data: &[u8]) {
        self.write(addr, data);
    }

    fn write_through(&mut self, addr: u64, data: &[u8]) {
        self.write(addr, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn cfg(hit: WriteHitPolicy, miss: WriteMissPolicy) -> CacheConfig {
        CacheConfig::builder()
            .size_bytes(1024)
            .line_bytes(16)
            .write_hit(hit)
            .write_miss(miss)
            .build()
            .unwrap()
    }

    fn wb_fow() -> MemoryCache {
        Cache::with_memory(cfg(
            WriteHitPolicy::WriteBack,
            WriteMissPolicy::FetchOnWrite,
        ))
    }

    #[test]
    fn read_after_write_returns_written_data() {
        let mut c = wb_fow();
        c.write(0x100, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        c.read(0x100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn loss_with_a_recorded_site_reports_fault_loss() {
        let mut c = wb_fow();
        c.stats.faults.data_loss_events = 1;
        c.last_loss = Some((0x40, 7));
        match c.loss_since(0) {
            Err(CwpError::FaultLoss {
                line_addr,
                dirty_bytes,
            }) => {
                assert_eq!(line_addr, 0x40);
                assert_eq!(dirty_bytes, 7);
            }
            other => panic!("expected FaultLoss, got {other:?}"),
        }
    }

    #[test]
    fn loss_without_a_recorded_site_is_an_invariant_violation() {
        // `data_loss_events` moving while `last_loss` stays `None` can
        // only mean the counter/site pairing in `resolve_fault` broke;
        // `loss_since` must report that bug, not invent a (0, 0) site.
        let mut c = wb_fow();
        c.stats.faults.data_loss_events = 1;
        assert!(c.last_loss.is_none());
        match c.loss_since(0) {
            Err(CwpError::InvariantViolation { detail }) => {
                assert!(detail.contains("no loss site"), "{detail}");
            }
            other => panic!("expected InvariantViolation, got {other:?}"),
        }
    }

    #[test]
    fn second_read_hits() {
        let mut c = wb_fow();
        let mut buf = [0u8; 8];
        c.read(0x40, &mut buf);
        c.read(0x40, &mut buf);
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().fetches, 1);
    }

    #[test]
    fn write_back_defers_traffic_until_eviction() {
        let mut c = wb_fow();
        c.write(0x0, &[9; 8]);
        assert_eq!(c.traffic().write_back.transactions, 0);
        assert_eq!(c.traffic().write_through.transactions, 0);
        // Conflicting line (same set in a 1KB direct-mapped cache).
        c.write(0x400, &[8; 8]);
        assert_eq!(c.traffic().write_back.transactions, 1);
        assert_eq!(c.traffic().write_back.bytes, 16, "whole-line write-back");
    }

    #[test]
    fn write_through_sends_every_store() {
        let mut c = Cache::with_memory(cfg(
            WriteHitPolicy::WriteThrough,
            WriteMissPolicy::FetchOnWrite,
        ));
        c.write(0x0, &[1; 4]);
        c.write(0x0, &[2; 4]);
        c.write(0x4, &[3; 4]);
        let t = c.traffic();
        assert_eq!(t.write_through.transactions, 3);
        assert_eq!(t.write_through.bytes, 12);
        assert_eq!(t.write_back.transactions, 0);
    }

    #[test]
    fn writes_to_dirty_counts_second_write_to_a_line() {
        let mut c = wb_fow();
        c.write(0x10, &[1; 4]); // miss, fetch, line becomes dirty
        c.write(0x14, &[2; 4]); // hit on the now-dirty line
        c.write(0x18, &[3; 4]); // hit, dirty again
        assert_eq!(c.stats().writes_to_dirty, 2);
        assert_eq!(c.stats().dirty_write_fraction(), Some(2.0 / 3.0));
    }

    #[test]
    fn fetch_on_write_fetches_the_missed_line() {
        let mut c = wb_fow();
        c.write(0x20, &[7; 4]);
        assert_eq!(c.stats().write_misses, 1);
        assert_eq!(c.stats().fetches, 1);
        // The unwritten bytes of the line hold memory's contents.
        let mut buf = [0xffu8; 4];
        c.read(0x24, &mut buf);
        assert_eq!(c.stats().read_hits, 1, "rest of the fetched line is valid");
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn write_validate_skips_the_fetch_and_tracks_validity() {
        let mut c = Cache::with_memory(cfg(
            WriteHitPolicy::WriteBack,
            WriteMissPolicy::WriteValidate,
        ));
        c.write(0x20, &[7; 4]);
        assert_eq!(c.stats().write_misses, 1);
        assert_eq!(c.stats().fetches, 0, "write-validate never fetches");
        assert!(c.is_resident(0x20, 4));
        assert!(!c.is_resident(0x24, 4), "unwritten bytes are invalid");
        // Reading the invalid part triggers a merging refill.
        let mut buf = [0u8; 4];
        c.read(0x24, &mut buf);
        assert_eq!(c.stats().partial_read_misses, 1);
        assert_eq!(c.stats().fetches, 1);
        // The written bytes survived the merge.
        let mut buf = [0u8; 4];
        c.read(0x20, &mut buf);
        assert_eq!(buf, [7; 4]);
    }

    #[test]
    fn write_around_bypasses_and_preserves_the_old_line() {
        let mut c = Cache::with_memory(cfg(
            WriteHitPolicy::WriteThrough,
            WriteMissPolicy::WriteAround,
        ));
        // Fault in line at 0x0 by reading it.
        let mut buf = [0u8; 4];
        c.read(0x0, &mut buf);
        // Write to the conflicting line 0x400: goes around.
        c.write(0x400, &[5; 4]);
        assert_eq!(c.stats().write_misses, 1);
        assert_eq!(c.stats().fetches, 1, "only the initial read fetched");
        assert!(c.is_resident(0x0, 4), "old line still resident");
        assert!(!c.is_resident(0x400, 4));
        // Memory still saw the write.
        c.read(0x400, &mut buf);
        assert_eq!(buf, [5; 4]);
    }

    #[test]
    fn write_invalidate_clears_the_indexed_line() {
        let mut c = Cache::with_memory(cfg(
            WriteHitPolicy::WriteThrough,
            WriteMissPolicy::WriteInvalidate,
        ));
        let mut buf = [0u8; 4];
        c.read(0x0, &mut buf);
        assert!(c.is_resident(0x0, 4));
        c.write(0x400, &[5; 4]);
        assert_eq!(c.stats().invalidations, 1);
        assert!(!c.is_resident(0x0, 4), "the corrupted line is gone");
        assert!(!c.is_resident(0x400, 4));
        c.read(0x400, &mut buf);
        assert_eq!(buf, [5; 4]);
    }

    #[test]
    fn flush_writes_dirty_lines_and_counts_all_resident() {
        let mut c = wb_fow();
        c.write(0x0, &[1; 8]);
        let mut buf = [0u8; 8];
        c.read(0x100, &mut buf); // clean resident line
        c.flush();
        assert_eq!(c.stats().flush.total, 2);
        assert_eq!(c.stats().flush.dirty, 1);
        assert_eq!(c.stats().flush.dirty_bytes, 8);
        assert_eq!(c.traffic().write_back.transactions, 1);
        assert!(!c.is_resident(0x0, 1));
    }

    #[test]
    fn victims_count_only_valid_replacements() {
        let mut c = wb_fow();
        let mut buf = [0u8; 4];
        c.read(0x0, &mut buf); // cold fill, no victim
        assert_eq!(c.stats().victims.total, 0);
        c.read(0x400, &mut buf); // replaces the clean line
        assert_eq!(c.stats().victims.total, 1);
        assert_eq!(c.stats().victims.dirty, 0);
        c.write(0x400, &[1; 4]);
        c.read(0x800, &mut buf); // replaces a dirty line
        let v = c.stats().victims;
        assert_eq!(v.total, 2);
        assert_eq!(v.dirty, 1);
        assert_eq!(v.dirty_bytes, 4);
    }

    #[test]
    fn partial_writeback_moves_only_dirty_runs() {
        let config = CacheConfig::builder()
            .size_bytes(1024)
            .line_bytes(16)
            .write_hit(WriteHitPolicy::WriteBack)
            .write_miss(WriteMissPolicy::WriteValidate)
            .partial_writeback(true)
            .build()
            .unwrap();
        let mut c = Cache::with_memory(config);
        c.write(0x0, &[1; 4]); // only 4 dirty bytes on the line
        c.write(0x400, &[2; 4]); // conflict evicts it
        assert_eq!(c.traffic().write_back.transactions, 1);
        assert_eq!(c.traffic().write_back.bytes, 4);
    }

    #[test]
    fn lru_replacement_in_a_set_associative_cache() {
        let config = CacheConfig::builder()
            .size_bytes(1024)
            .line_bytes(16)
            .associativity(2)
            .build()
            .unwrap();
        let mut c = Cache::with_memory(config);
        let mut buf = [0u8; 4];
        // 32 sets; addresses 0x0, 0x200, 0x400 all map to set 0.
        c.read(0x0, &mut buf);
        c.read(0x200, &mut buf);
        c.read(0x0, &mut buf); // refresh 0x0
        c.read(0x400, &mut buf); // must evict 0x200, the LRU
        assert!(c.is_resident(0x0, 4));
        assert!(!c.is_resident(0x200, 4));
        assert!(c.is_resident(0x400, 4));
    }

    #[test]
    fn accesses_spanning_lines_are_split() {
        let config = CacheConfig::builder()
            .size_bytes(1024)
            .line_bytes(4)
            .build()
            .unwrap();
        let mut c = Cache::with_memory(config);
        c.write(0x8, &[1, 2, 3, 4, 5, 6, 7, 8]); // 8B store, 4B lines
        assert_eq!(c.stats().writes, 2, "split into two line-sized writes");
        let mut buf = [0u8; 8];
        c.read(0x8, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c.stats().reads, 2);
    }

    #[test]
    fn caches_stack_as_next_levels() {
        let l2_cfg = CacheConfig::builder()
            .size_bytes(4096)
            .line_bytes(32)
            .build()
            .unwrap();
        let l1_cfg = cfg(WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteAround);
        let l2 = Cache::new(l2_cfg, TrafficRecorder::new(MainMemory::new()));
        let mut l1 = Cache::new(l1_cfg, l2);
        l1.write(0x123 & !3, &[9; 4]);
        let mut buf = [0u8; 4];
        l1.read(0x120, &mut buf);
        assert_eq!(buf[0], 9);
        assert!(l1.next_level().stats().accesses() > 0, "L2 saw traffic");
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = wb_fow();
        c.write(0x40, &[3; 4]);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.is_resident(0x40, 4));
    }

    #[test]
    fn allocate_line_claims_without_fetching() {
        let mut c = wb_fow();
        c.allocate_line(0x200);
        assert_eq!(c.stats().fetches, 0, "allocation must not fetch");
        assert_eq!(c.stats().line_allocations, 1);
        assert!(c.is_resident(0x200, 16), "the whole line is valid");
        // Subsequent writes to the allocated line are hits.
        c.write(0x200, &[7; 8]);
        assert_eq!(c.stats().write_hits, 1);
        assert_eq!(c.stats().write_misses, 0);
    }

    #[test]
    fn allocate_line_writes_back_the_displaced_victim() {
        let mut c = wb_fow();
        c.write(0x0, &[9; 8]);
        c.allocate_line(0x400); // conflicts in the 1KB direct-mapped cache
        assert_eq!(c.traffic().write_back.transactions, 1);
        assert_eq!(c.stats().victims.dirty, 1);
    }

    #[test]
    fn partial_overwrite_after_allocation_is_the_papers_hazard() {
        // "Context switches after a line has been allocated and partially
        // written ... result in dirty and incorrect cache lines."
        let mut c = wb_fow();
        // Memory holds known data at the back half of the line.
        c.write(0x108, &[5; 8]);
        c.flush();
        // Allocate the line, overwrite only the front half, then flush
        // (a context switch writing the "dirty and incorrect" line back).
        c.allocate_line(0x100);
        c.write(0x100, &[1; 8]);
        c.flush();
        let mut buf = [0u8; 8];
        c.read(0x108, &mut buf);
        assert_eq!(buf, [0; 8], "the old memory contents were destroyed");
    }

    #[test]
    fn allocating_an_already_resident_line_is_idempotent_on_tags() {
        let mut c = wb_fow();
        c.write(0x80, &[3; 4]);
        c.allocate_line(0x80);
        assert_eq!(c.stats().victims.total, 0, "no self-eviction");
        assert!(c.is_resident(0x80, 16));
    }

    /// Counts probe events by the counter they should mirror.
    fn event_tally(events: &[Event]) -> std::collections::HashMap<&'static str, u64> {
        let mut tally: std::collections::HashMap<&'static str, u64> = Default::default();
        let mut bump = |key: &'static str, by: u64| *tally.entry(key).or_insert(0) += by;
        for e in events {
            match *e {
                Event::Access {
                    kind: AccessKind::Read,
                    ..
                } => bump("reads", 1),
                Event::Access {
                    kind: AccessKind::Write,
                    ..
                } => bump("writes", 1),
                Event::ReadHit { .. } => bump("read_hits", 1),
                Event::ReadMiss { partial, .. } => {
                    bump("read_misses", 1);
                    if partial {
                        bump("partial_read_misses", 1);
                    }
                }
                Event::WriteHit { .. } => bump("write_hits", 1),
                Event::WriteMiss { .. } => bump("write_misses", 1),
                Event::WriteToDirty { .. } => bump("writes_to_dirty", 1),
                Event::Fetch {
                    cause: FetchCause::Demand,
                    bytes,
                    ..
                } => {
                    bump("fetches", 1);
                    bump("fetch_bytes", u64::from(bytes));
                }
                Event::Fetch {
                    cause: FetchCause::Recovery,
                    bytes,
                    ..
                } => {
                    bump("recovery_fetches", 1);
                    bump("fetch_bytes", u64::from(bytes));
                }
                Event::WriteBack { bytes, .. } => {
                    bump("write_back_txns", 1);
                    bump("write_back_bytes", u64::from(bytes));
                }
                Event::WriteThrough { bytes, .. } => {
                    bump("write_through_txns", 1);
                    bump("write_through_bytes", u64::from(bytes));
                }
                Event::Eviction {
                    flush, dirty_bytes, ..
                } => {
                    bump(if flush { "flush_total" } else { "victims" }, 1);
                    if dirty_bytes > 0 {
                        bump(
                            if flush {
                                "flush_dirty"
                            } else {
                                "victims_dirty"
                            },
                            1,
                        );
                        bump(
                            if flush {
                                "flush_dirty_bytes"
                            } else {
                                "victim_dirty_bytes"
                            },
                            u64::from(dirty_bytes),
                        );
                    }
                }
                Event::Invalidation { .. } => bump("invalidations", 1),
                Event::LineAllocated { .. } => bump("line_allocations", 1),
                _ => {}
            }
        }
        tally
    }

    /// Drives a mixed workload on the plane `N` picks and checks that
    /// every probe event class matches the corresponding
    /// `CacheStats`/`Traffic` counter exactly — the contract the windowed
    /// sampler's reconciliation rests on. Returns the event stream.
    fn assert_events_mirror_counters<N: NextLevel + Default>(
        hit: WriteHitPolicy,
        miss: WriteMissPolicy,
    ) -> Vec<Event> {
        use cwp_mem::SplitMix64;
        use cwp_obs::RecordingProbe;
        let mut c = Cache::with_probe(
            cfg(hit, miss),
            TrafficRecorder::new(N::default()),
            RecordingProbe::default(),
        );
        let mut buf = [0u8; 8];
        for i in 0..600u64 {
            let addr = (i * 52) % 4096; // conflicts in a 1KB cache
            if i % 3 == 0 {
                c.read(addr, &mut buf);
            } else {
                c.write(addr, &[i as u8; 8]);
            }
        }
        // A seeded stream of unaligned 1..=8-byte accesses, some
        // straddling a line boundary.
        let mut rng = SplitMix64::seed_from_u64(0x0b5e);
        for _ in 0..600 {
            let addr = rng.below(4096);
            let len = 1 + rng.below(8) as usize;
            if rng.gen_bool() {
                c.read(addr, &mut buf[..len]);
            } else {
                c.write(addr, &buf[..len]);
            }
        }
        c.allocate_line(0x40);
        c.flush();

        let stats = *c.stats();
        let traffic = c.traffic();
        let (_, probe) = c.into_parts();
        let t = event_tally(&probe.events);
        let get = |k: &str| t.get(k).copied().unwrap_or(0);

        assert_eq!(get("reads"), stats.reads);
        assert_eq!(get("writes"), stats.writes);
        assert_eq!(get("read_hits"), stats.read_hits);
        assert_eq!(get("read_misses"), stats.read_misses);
        assert_eq!(get("partial_read_misses"), stats.partial_read_misses);
        assert_eq!(get("write_hits"), stats.write_hits);
        assert_eq!(get("write_misses"), stats.write_misses);
        assert_eq!(get("writes_to_dirty"), stats.writes_to_dirty);
        assert_eq!(get("fetches"), stats.fetches);
        assert_eq!(get("invalidations"), stats.invalidations);
        assert_eq!(get("line_allocations"), stats.line_allocations);
        assert_eq!(get("victims"), stats.victims.total);
        assert_eq!(get("victims_dirty"), stats.victims.dirty);
        assert_eq!(get("victim_dirty_bytes"), stats.victims.dirty_bytes);
        assert_eq!(get("flush_total"), stats.flush.total);
        assert_eq!(get("flush_dirty"), stats.flush.dirty);
        assert_eq!(get("flush_dirty_bytes"), stats.flush.dirty_bytes);
        assert_eq!(
            get("fetches") + get("recovery_fetches"),
            traffic.fetch.transactions
        );
        assert_eq!(get("fetch_bytes"), traffic.fetch.bytes);
        assert_eq!(get("write_back_txns"), traffic.write_back.transactions);
        assert_eq!(get("write_back_bytes"), traffic.write_back.bytes);
        assert_eq!(
            get("write_through_txns"),
            traffic.write_through.transactions
        );
        assert_eq!(get("write_through_bytes"), traffic.write_through.bytes);
        probe.events
    }

    #[test]
    fn probe_events_mirror_counters_across_the_policy_matrix() {
        for (hit, miss) in [
            (WriteHitPolicy::WriteBack, WriteMissPolicy::FetchOnWrite),
            (WriteHitPolicy::WriteBack, WriteMissPolicy::WriteValidate),
            (WriteHitPolicy::WriteThrough, WriteMissPolicy::FetchOnWrite),
            (WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteValidate),
            (WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteAround),
            (
                WriteHitPolicy::WriteThrough,
                WriteMissPolicy::WriteInvalidate,
            ),
        ] {
            // Both planes run one state machine: a traced fault-free run
            // emits the same events whichever plane it takes.
            let data = assert_events_mirror_counters::<MainMemory>(hit, miss);
            let data_free = assert_events_mirror_counters::<cwp_mem::NullMemory>(hit, miss);
            assert_eq!(data, data_free, "{hit:?}/{miss:?}");
        }
    }

    #[test]
    fn probe_events_mirror_fault_counters() {
        use cwp_obs::RecordingProbe;
        for protection in [Protection::ByteParity, Protection::EccPerWord] {
            let config = CacheConfig::builder()
                .size_bytes(1024)
                .line_bytes(16)
                .write_hit(WriteHitPolicy::WriteBack)
                .write_miss(WriteMissPolicy::FetchOnWrite)
                .protection(protection)
                .fault_rate_ppm(200_000)
                .fault_seed(7)
                .build()
                .unwrap();
            let mut c = Cache::with_probe(
                config,
                TrafficRecorder::new(MainMemory::new()),
                RecordingProbe::default(),
            );
            let mut buf = [0u8; 4];
            for i in 0..2_000u64 {
                let addr = (i * 28) % 2048;
                if i % 2 == 0 {
                    c.read(addr, &mut buf);
                } else {
                    c.write(addr, &[i as u8; 4]);
                }
            }
            c.flush();
            let faults = c.stats().faults;
            assert!(faults.injected > 0, "injector must fire at this rate");
            let (_, probe) = c.into_parts();
            let mut injected = 0u64;
            let mut corrected = 0u64;
            let mut refetched = 0u64;
            let mut discarded = 0u64;
            let mut losses = 0u64;
            let mut lost_bytes = 0u64;
            for e in &probe.events {
                match *e {
                    Event::FaultInjected { .. } => injected += 1,
                    Event::FaultResolved {
                        outcome,
                        dirty_bytes,
                        ..
                    } => match outcome {
                        FaultOutcome::Corrected => corrected += 1,
                        FaultOutcome::Refetched => refetched += 1,
                        FaultOutcome::DiscardedClean => discarded += 1,
                        FaultOutcome::DataLoss => {
                            losses += 1;
                            lost_bytes += u64::from(dirty_bytes);
                        }
                    },
                    _ => {}
                }
            }
            assert_eq!(injected, faults.injected);
            assert_eq!(corrected, faults.corrected_in_place);
            assert_eq!(refetched, faults.refetch_recoveries);
            assert_eq!(discarded, faults.discarded_clean);
            assert_eq!(losses, faults.data_loss_events);
            assert_eq!(lost_bytes, faults.data_loss_dirty_bytes);
        }
    }
}
