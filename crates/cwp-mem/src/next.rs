//! The [`NextLevel`] trait: how one memory-hierarchy level drives the next.

/// Interface a cache uses to talk to the next-lower level of the memory
/// hierarchy.
///
/// The three methods move the same kind of bytes but mean different things
/// to traffic accounting, mirroring the paper's Section 5 transaction
/// classes: line *fetches* (read misses and fetch-on-write), dirty-victim
/// *write-backs*, and *write-throughs* of store data.
///
/// Implementations must be functionally flat: a `fetch_line` must observe
/// every byte previously stored by `write_back` or `write_through` at the
/// same address, regardless of interleaving. The one exception is a
/// level that declares [`NextLevel::CARRIES_DATA`] false.
pub trait NextLevel {
    /// Whether this level keeps the bytes it is given. A cache whose next
    /// level keeps none has nothing to return on a read, so it carries no
    /// data array itself: every data copy compiles away and only the
    /// metadata (tags, per-byte valid and dirty masks, LRU) remains. See
    /// [`NullMemory`](crate::NullMemory).
    const CARRIES_DATA: bool = true;

    /// Fills `buf` with the bytes at `addr..addr + buf.len()`.
    ///
    /// Callers fetch whole cache lines, so `addr` is line-aligned and
    /// `buf.len()` is the line size; implementations may rely on neither.
    fn fetch_line(&mut self, addr: u64, buf: &mut [u8]);

    /// Writes back a (whole or partial) dirty victim line.
    fn write_back(&mut self, addr: u64, data: &[u8]);

    /// Passes store data through from a write-through cache or a
    /// no-write-allocate write miss.
    fn write_through(&mut self, addr: u64, data: &[u8]);
}

impl<N: NextLevel + ?Sized> NextLevel for &mut N {
    const CARRIES_DATA: bool = N::CARRIES_DATA;

    fn fetch_line(&mut self, addr: u64, buf: &mut [u8]) {
        (**self).fetch_line(addr, buf)
    }

    fn write_back(&mut self, addr: u64, data: &[u8]) {
        (**self).write_back(addr, data)
    }

    fn write_through(&mut self, addr: u64, data: &[u8]) {
        (**self).write_through(addr, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MainMemory;

    #[test]
    fn mutable_references_forward() {
        let mut mem = MainMemory::new();
        {
            let level: &mut MainMemory = &mut mem;
            level.write_through(0x10, &[9, 9]);
            level.write_back(0x12, &[7]);
        }
        let mut buf = [0u8; 3];
        mem.fetch_line(0x10, &mut buf);
        assert_eq!(buf, [9, 9, 7]);
    }
}
