//! Struct-of-arrays tag store for the data-free measurement path.
//!
//! [`SoaCache`] is a metadata-only twin of the data-carrying
//! [`Cache`](crate::Cache): every per-line field lives in its own flat
//! word array (`tags`, `valid`, `dirty`, `last_used`, indexed
//! `set * ways + way`), no data array or scratch line exists, and
//! back-side traffic is tallied directly instead of crossing a
//! `NextLevel` boundary. Statistics and traffic are functions of the
//! address stream and the configuration alone, so the SoA engine
//! settles to outcomes bit-identical to the golden engine's — the
//! policy/geometry matrix test in `cwp-core::sim` pins that contract.
//!
//! The layout is the point: a 128 KB / 16 B-line sweep point needs four
//! cache-resident word arrays (~256 KB total) instead of a byte image
//! plus per-line structs, the way loop over `tags`/`valid` compiles to
//! branchless compare-and-mask code, and a bank of these fits the sweep
//! grid in L2 while a 187.6M-reference trace streams past.
//!
//! [`CacheConfig::build`] admits only power-of-two sets, so an address
//! splits into set and tag by a shift and a mask, never a division.
//!
//! The engine also counts the bytes its stores wrote
//! ([`SoaCache::bytes_written`]). Under fetch-on-write and write-validate
//! the write-hit policy never changes residency, valid bytes or LRU
//! order, so a write-back engine's outcome plus that count determine its
//! write-through twin's outcome exactly; `cwp-core`'s sweep plans run one
//! engine for both.
//!
//! Fault injection observes the data bytes, which do not exist here;
//! [`SoaCache::new`] rejects fault-injecting configurations.

use cwp_mem::Traffic;

use crate::config::CacheConfig;
use crate::mask;
use crate::policy::{WriteHitPolicy, WriteMissPolicy};
use crate::stats::CacheStats;

/// A data-free set-associative cache over flat metadata arrays.
///
/// Mirrors the golden engine's observable behaviour exactly: same
/// counters, same traffic classes, same LRU and victim choices, same
/// partial write-back runs. See the module docs for the layout
/// rationale.
#[derive(Debug, Clone)]
pub struct SoaCache {
    config: CacheConfig,
    line_bytes: u32,
    line_shift: u32,
    /// `log2(sets)`: a line address shifted right by it is the tag.
    set_shift: u32,
    /// `sets - 1`: a line address masked by it is the set.
    set_mask: u64,
    ways: u32,
    /// Per-line tag words, indexed `set * ways + way`.
    tags: Vec<u64>,
    /// Per-line per-byte valid masks; `valid[idx] == 0` means invalid.
    valid: Vec<u64>,
    /// Per-line per-byte dirty masks.
    dirty: Vec<u64>,
    /// Per-line LRU timestamps.
    last_used: Vec<u64>,
    tick: u64,
    /// Bytes written by every store so far.
    bytes_written: u64,
    stats: CacheStats,
    traffic: Traffic,
}

impl SoaCache {
    /// Builds an empty SoA cache for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` enables fault injection: the fault model
    /// corrupts data bytes, which a metadata-only engine cannot carry.
    pub fn new(config: CacheConfig) -> Self {
        assert_eq!(
            config.fault_rate_ppm(),
            0,
            "a data-free cache cannot model fault injection"
        );
        let line_bytes = config.line_bytes();
        let lines = config.lines() as usize;
        let sets = config.sets();
        debug_assert!(sets.is_power_of_two(), "{sets} sets: not a power of two");
        SoaCache {
            config,
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: u64::from(sets) - 1,
            ways: config.associativity(),
            tags: vec![0; lines],
            valid: vec![0; lines],
            dirty: vec![0; lines],
            last_used: vec![0; lines],
            tick: 0,
            bytes_written: 0,
            stats: CacheStats::default(),
            traffic: Traffic::default(),
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

    /// Back-side traffic tallied so far.
    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// Bytes written by every store so far, whether it hit or missed.
    /// A write-through cache sends exactly these bytes to the next level
    /// under fetch-on-write and write-validate.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Registers a read of `len` bytes at `addr`, splitting at line
    /// boundaries exactly like [`Cache::read`](crate::Cache::read). A
    /// zero-length read is a no-op.
    pub fn read(&mut self, addr: u64, len: usize) {
        let line = u64::from(self.line_bytes);
        let mut pos = 0usize;
        while pos < len {
            let a = addr + pos as u64;
            let room = (line - (a & (line - 1))) as usize;
            let take = room.min(len - pos);
            self.read_within(a, take);
            pos += take;
        }
    }

    /// Registers a write of `len` bytes at `addr`, splitting at line
    /// boundaries exactly like [`Cache::write`](crate::Cache::write). A
    /// zero-length write is a no-op.
    pub fn write(&mut self, addr: u64, len: usize) {
        self.bytes_written += len as u64;
        let line = u64::from(self.line_bytes);
        let mut pos = 0usize;
        while pos < len {
            let a = addr + pos as u64;
            let room = (line - (a & (line - 1))) as usize;
            let take = room.min(len - pos);
            self.write_within(a, take);
            pos += take;
        }
    }

    /// Writes back any dirty data and counts every resident line as a
    /// flush victim ("flush stop"), in line-index order like the golden
    /// engine.
    pub fn flush(&mut self) {
        for idx in 0..self.tags.len() {
            let v = self.valid[idx];
            if v == 0 {
                continue;
            }
            self.stats.flush.total += 1;
            let d = self.dirty[idx];
            if d != 0 {
                self.stats.flush.dirty += 1;
                self.stats.flush.dirty_bytes += u64::from(mask::count(d));
                self.write_back_line(idx);
            }
            self.clear(idx);
        }
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

    /// First way holding `tag` valid in `set`, scanned branchlessly: the
    /// whole way row is compared into a hit bitmap, then the lowest set
    /// bit picked — no per-way branch, matching the golden engine's
    /// "first matching way" order.
    #[inline]
    fn find_way(&self, set: u32, tag: u64) -> Option<u32> {
        let base = (set * self.ways) as usize;
        let n = self.ways as usize;
        let tags = &self.tags[base..base + n];
        let valid = &self.valid[base..base + n];
        let mut hits = 0u32;
        for way in 0..n {
            let hit = (tags[way] == tag) & (valid[way] != 0);
            hits |= (hit as u32) << way;
        }
        (hits != 0).then(|| hits.trailing_zeros())
    }

    /// Picks the way a miss in `set` would replace: an invalid way if
    /// one exists, else the least recently used (lowest way on ties).
    #[inline]
    fn victim_way(&self, set: u32) -> u32 {
        let base = (set * self.ways) as usize;
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

    /// Tallies the write-back traffic for line `idx`'s dirty bytes:
    /// per-run transfers when partial write-back is configured or the
    /// line is not fully valid, one whole-line transfer otherwise.
    fn write_back_line(&mut self, idx: usize) {
        let lb = self.line_bytes;
        if self.config.partial_writeback() || self.valid[idx] != mask::full(lb) {
            for (_off, len) in mask::runs(self.dirty[idx], lb) {
                self.traffic.write_back.transactions += 1;
                self.traffic.write_back.bytes += u64::from(len);
            }
        } else {
            self.traffic.write_back.transactions += 1;
            self.traffic.write_back.bytes += u64::from(lb);
        }
    }

    /// Evicts the line at `idx`, recording victim statistics and dirty
    /// write-back traffic. Leaves the way invalid.
    fn evict(&mut self, idx: usize) {
        let v = self.valid[idx];
        if v != 0 {
            self.stats.victims.total += 1;
            let d = self.dirty[idx];
            if d != 0 {
                self.stats.victims.dirty += 1;
                self.stats.victims.dirty_bytes += u64::from(mask::count(d));
                self.write_back_line(idx);
            }
        }
        self.clear(idx);
    }

    /// Fetches the whole line for `tag` into `idx` (metadata only):
    /// tallies the fetch, installs the tag, and validates every byte.
    fn fetch_line(&mut self, idx: usize, tag: u64) {
        self.stats.fetches += 1;
        self.traffic.fetch.transactions += 1;
        self.traffic.fetch.bytes += u64::from(self.line_bytes);
        self.tags[idx] = tag;
        self.valid[idx] = mask::full(self.line_bytes);
    }

    #[inline]
    fn send_write_through(&mut self, len: u32) {
        self.traffic.write_through.transactions += 1;
        self.traffic.write_through.bytes += u64::from(len);
    }

    // ------------------------------------------------------------------
    // The access state machines
    // ------------------------------------------------------------------

    fn read_within(&mut self, addr: u64, len: usize) {
        self.stats.reads += 1;
        let (set, tag, offset) = self.decompose(addr);
        let need = mask::span(offset, len as u32);
        let base = (set * self.ways) as usize;
        let idx = match self.find_way(set, tag) {
            Some(way) => {
                let idx = base + way as usize;
                if self.valid[idx] & need == need {
                    self.stats.read_hits += 1;
                } else {
                    // Tag match but some requested bytes invalid: a miss
                    // that refills the line around the valid bytes.
                    self.stats.read_misses += 1;
                    self.stats.partial_read_misses += 1;
                    self.fetch_line(idx, tag);
                }
                idx
            }
            None => {
                self.stats.read_misses += 1;
                let idx = base + self.victim_way(set) as usize;
                self.evict(idx);
                self.fetch_line(idx, tag);
                idx
            }
        };
        self.touch(idx);
    }

    fn write_within(&mut self, addr: u64, len: usize) {
        self.stats.writes += 1;
        let (set, tag, offset) = self.decompose(addr);
        let span = mask::span(offset, len as u32);
        let base = (set * self.ways) as usize;
        let write_through = self.config.write_hit() == WriteHitPolicy::WriteThrough;

        if let Some(way) = self.find_way(set, tag) {
            let idx = base + way as usize;
            self.stats.write_hits += 1;
            self.store_into(idx, span);
            if write_through {
                self.send_write_through(len as u32);
            }
            self.touch(idx);
            return;
        }

        self.stats.write_misses += 1;
        match self.config.write_miss() {
            WriteMissPolicy::FetchOnWrite => {
                let idx = base + self.victim_way(set) as usize;
                self.evict(idx);
                self.fetch_line(idx, tag);
                self.store_into(idx, span);
                if write_through {
                    self.send_write_through(len as u32);
                }
                self.touch(idx);
            }
            WriteMissPolicy::WriteValidate => {
                // Allocate without fetching: valid bits cover only the
                // written bytes.
                let idx = base + self.victim_way(set) as usize;
                self.evict(idx);
                self.tags[idx] = tag;
                self.store_into(idx, span);
                if write_through {
                    self.send_write_through(len as u32);
                }
                self.touch(idx);
            }
            WriteMissPolicy::WriteAround => {
                // Bypass: the old line (if any) stays resident and the
                // LRU order is untouched.
                self.send_write_through(len as u32);
            }
            WriteMissPolicy::WriteInvalidate => {
                let idx = base + self.victim_way(set) as usize;
                if self.valid[idx] != 0 {
                    self.stats.invalidations += 1;
                }
                self.clear(idx);
                self.send_write_through(len as u32);
            }
        }
    }

    /// Marks `span` stored into line `idx`, updating valid/dirty masks
    /// and the writes-to-already-dirty counter (checked before the mask
    /// OR, as the golden engine does).
    #[inline]
    fn store_into(&mut self, idx: usize, span: u64) {
        let write_back = self.config.write_hit() == WriteHitPolicy::WriteBack;
        if write_back && self.dirty[idx] != 0 {
            self.stats.writes_to_dirty += 1;
        }
        self.valid[idx] |= span;
        if write_back {
            self.dirty[idx] |= span;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use cwp_mem::rng::SplitMix64;

    /// Drives the same pseudo-random reference stream through the SoA
    /// engine and the golden data-carrying engine and requires identical
    /// stats and traffic at every policy/geometry point — the same
    /// contract the cwp-core matrix test pins at the sink level. About
    /// one access in sixteen is zero bytes long, which both engines must
    /// ignore.
    fn assert_matches_golden(config: CacheConfig, seed: u64) {
        let mut soa = SoaCache::new(config);
        let mut golden = Cache::with_memory(config);
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut buf = [0u8; 8];
        let mut written = 0u64;
        for _ in 0..20_000 {
            let r = rng.next_u64();
            // Bias towards a 64 KB region with conflicts; sizes 0..8,
            // occasionally straddling a line boundary.
            let addr = r % 65_536;
            let len = if r >> 50 & 15 == 0 {
                0
            } else {
                1 + ((r >> 17) % 8) as usize
            };
            if r >> 40 & 1 == 0 {
                soa.read(addr, len);
                golden.read(addr, &mut buf[..len]);
            } else {
                soa.write(addr, len);
                golden.write(addr, &buf[..len]);
                written += len as u64;
            }
        }
        assert_eq!(soa.traffic(), golden.traffic(), "{config:?} execution");
        assert_eq!(soa.bytes_written(), written, "{config:?}");
        soa.flush();
        golden.flush();
        assert_eq!(soa.stats(), golden.stats(), "{config:?}");
        assert_eq!(soa.traffic(), golden.traffic(), "{config:?} total");
    }

    #[test]
    fn soa_matches_the_golden_engine_across_the_policy_matrix() {
        for hit in WriteHitPolicy::ALL {
            for miss in WriteMissPolicy::ALL {
                let Ok(config) = CacheConfig::builder()
                    .size_bytes(2048)
                    .line_bytes(16)
                    .write_hit(hit)
                    .write_miss(miss)
                    .build()
                else {
                    continue;
                };
                assert_matches_golden(config, 0x5e_ed);
            }
        }
    }

    #[test]
    fn soa_matches_the_golden_engine_across_geometries() {
        for (line, ways, partial) in [
            (4u32, 1u32, false),
            (32, 2, false),
            (16, 4, true),
            (64, 8, true),
        ] {
            let config = CacheConfig::builder()
                .size_bytes(4096)
                .line_bytes(line)
                .associativity(ways)
                .write_hit(WriteHitPolicy::WriteBack)
                .write_miss(WriteMissPolicy::WriteValidate)
                .partial_writeback(partial)
                .build()
                .unwrap();
            assert_matches_golden(config, 0xca_fe);
        }
    }

    #[test]
    #[should_panic(expected = "cannot model fault injection")]
    fn soa_rejects_fault_injection() {
        let config = CacheConfig::builder().fault_rate_ppm(1).build().unwrap();
        let _ = SoaCache::new(config);
    }
}
