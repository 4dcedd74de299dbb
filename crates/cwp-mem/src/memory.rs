//! A sparse, data-carrying flat memory.

use std::collections::HashMap;

use crate::next::NextLevel;

/// Bytes per allocation page.
const PAGE: u64 = 4096;

/// Sparse byte-addressable main memory.
///
/// Pages materialize on first write and untouched bytes read as zero, so
/// the 2^64 address space costs only what the workload writes. Reads and
/// writes move whole page runs: one page lookup per page a range touches,
/// then a slice copy (or a zero fill for a page never written). This is
/// the golden model for the transparency property tests: any hierarchy of
/// caches must return the same bytes a bare `MainMemory` would.
///
/// Measurement passes that need no data at all use [`NullMemory`]
/// instead, which puts the cache above it on its data-free plane.
///
/// # Examples
///
/// ```
/// use cwp_mem::MainMemory;
///
/// let mut mem = MainMemory::new();
/// mem.write(0xffff_0000, &[0xab; 8]);
/// assert_eq!(mem.read_byte(0xffff_0003), 0xab);
/// assert_eq!(mem.read_byte(0x0), 0, "untouched memory reads as zero");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    pages: HashMap<u64, Box<[u8]>>,
}

impl MainMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr / PAGE)) {
            Some(page) => page[(addr % PAGE) as usize],
            None => 0,
        }
    }

    /// Fills `buf` from `addr..addr + buf.len()`: one page lookup per
    /// page the range touches, never materializing one.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let (page, offset, run) = Self::run(addr + done as u64, buf.len() - done);
            let out = &mut buf[done..done + run];
            match self.pages.get(&page) {
                Some(bytes) => out.copy_from_slice(&bytes[offset..offset + run]),
                None => out.fill(0),
            }
            done += run;
        }
    }

    /// Writes `data` at `addr`, materializing pages as needed: one page
    /// lookup per page the range touches.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0;
        while done < data.len() {
            let (page, offset, run) = Self::run(addr + done as u64, data.len() - done);
            let bytes = self
                .pages
                .entry(page)
                .or_insert_with(|| vec![0u8; PAGE as usize].into_boxed_slice());
            bytes[offset..offset + run].copy_from_slice(&data[done..done + run]);
            done += run;
        }
    }

    /// Splits the range starting at `addr` of `len` bytes at its first
    /// page boundary: `(page, offset in page, bytes up to the boundary)`.
    fn run(addr: u64, len: usize) -> (u64, usize, usize) {
        let offset = (addr % PAGE) as usize;
        (addr / PAGE, offset, len.min(PAGE as usize - offset))
    }

    /// Number of 4KB pages materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

impl NextLevel for MainMemory {
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

/// The next level of a cache that carries no data: it keeps nothing and
/// returns nothing, and declares [`NextLevel::CARRIES_DATA`] false, so a
/// cache over it (usually through a [`TrafficRecorder`](crate::TrafficRecorder))
/// tracks only tags and per-byte valid and dirty masks. Statistics and
/// traffic depend on the address stream alone, so they come out exactly
/// as over [`MainMemory`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMemory;

impl NextLevel for NullMemory {
    const CARRIES_DATA: bool = false;

    #[inline]
    fn fetch_line(&mut self, _addr: u64, _buf: &mut [u8]) {}

    #[inline]
    fn write_back(&mut self, _addr: u64, _data: &[u8]) {}

    #[inline]
    fn write_through(&mut self, _addr: u64, _data: &[u8]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_is_zero_and_costs_nothing() {
        let mem = MainMemory::new();
        assert_eq!(mem.read_byte(123_456_789), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn writes_persist_and_cross_page_boundaries() {
        let mut mem = MainMemory::new();
        let addr = PAGE - 2;
        mem.write(addr, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        mem.read(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(mem.resident_pages(), 2, "the write spans two pages");
    }

    #[test]
    fn next_level_methods_alias_the_same_store() {
        let mut mem = MainMemory::new();
        mem.write_through(0x40, &[5]);
        mem.write_back(0x41, &[6]);
        let mut buf = [0u8; 2];
        mem.fetch_line(0x40, &mut buf);
        assert_eq!(buf, [5, 6]);
    }

    #[test]
    fn page_runs_match_a_per_byte_reference() {
        use crate::rng::SplitMix64;
        use std::collections::{BTreeMap, BTreeSet};

        let mut rng = SplitMix64::seed_from_u64(0x9a6e);
        let mut mem = MainMemory::new();
        let mut bytes: BTreeMap<u64, u8> = BTreeMap::new();
        let mut pages: BTreeSet<u64> = BTreeSet::new();
        let edges = [0, 1, 2, 7, PAGE - 8, PAGE - 2, PAGE - 1];
        for step in 0..600u64 {
            let page = [0, 1, 2, 3, 0x7_ffff_fff0][rng.below(5) as usize];
            let offset = if rng.below(4) == 0 {
                rng.below(PAGE)
            } else {
                edges[rng.below(edges.len() as u64) as usize]
            };
            let addr = page * PAGE + offset;
            let len = if rng.below(2) == 0 {
                rng.below(65)
            } else {
                rng.below(3 * PAGE + 1)
            } as usize;
            if rng.below(2) == 0 {
                let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                mem.write(addr, &data);
                for (i, &b) in data.iter().enumerate() {
                    let a = addr + i as u64;
                    bytes.insert(a, b);
                    pages.insert(a / PAGE);
                }
            } else {
                let mut got = vec![0xa5u8; len];
                mem.read(addr, &mut got);
                let want: Vec<u8> = (0..len as u64)
                    .map(|i| bytes.get(&(addr + i)).copied().unwrap_or(0))
                    .collect();
                assert_eq!(got, want, "step {step}: read {len} bytes at {addr:#x}");
            }
            assert_eq!(
                mem.resident_pages(),
                pages.len(),
                "step {step}: exactly the written pages are resident"
            );
        }
    }

    #[test]
    fn overlapping_writes_last_writer_wins() {
        let mut mem = MainMemory::new();
        mem.write(0x100, &[1, 1, 1, 1]);
        mem.write(0x102, &[9, 9]);
        let mut buf = [0u8; 4];
        mem.read(0x100, &mut buf);
        assert_eq!(buf, [1, 1, 9, 9]);
    }
}
