//! A sparse, data-carrying flat memory.

use std::collections::HashMap;

use crate::next::NextLevel;

/// Bytes per allocation page.
const PAGE: u64 = 4096;

/// Sparse byte-addressable main memory.
///
/// Pages materialize on first touch and untouched bytes read as zero, so
/// the 2^64 address space costs only what the workload touches. This is
/// the golden model for the transparency property tests: any hierarchy of
/// caches must return the same bytes a bare `MainMemory` would.
///
/// It is the only backing memory: measurement passes that need no data
/// at all skip it by running `cwp-cache`'s data-free `SoaCache` engine
/// instead of a cache over an empty memory.
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

    /// Fills `buf` from `addr..addr + buf.len()`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read_byte(addr + i as u64);
        }
    }

    /// Writes `data` at `addr`, materializing pages as needed.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i as u64;
            let page = self
                .pages
                .entry(a / PAGE)
                .or_insert_with(|| vec![0u8; PAGE as usize].into_boxed_slice());
            page[(a % PAGE) as usize] = b;
        }
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
    fn overlapping_writes_last_writer_wins() {
        let mut mem = MainMemory::new();
        mem.write(0x100, &[1, 1, 1, 1]);
        mem.write(0x102, &[9, 9]);
        let mut buf = [0u8; 4];
        mem.read(0x100, &mut buf);
        assert_eq!(buf, [1, 1, 9, 9]);
    }
}
