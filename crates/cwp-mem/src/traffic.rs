//! Back-side traffic accounting: the measurements behind Section 5.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::next::NextLevel;

/// Transactions and bytes for one traffic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TrafficClass {
    /// Number of transactions (one per `NextLevel` call).
    pub transactions: u64,
    /// Bytes moved by those transactions.
    pub bytes: u64,
}

impl TrafficClass {
    #[inline]
    fn tally(&mut self, bytes: usize) {
        self.transactions += 1;
        self.bytes += bytes as u64;
    }
}

impl Add for TrafficClass {
    type Output = TrafficClass;

    fn add(self, rhs: TrafficClass) -> TrafficClass {
        TrafficClass {
            transactions: self.transactions + rhs.transactions,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl AddAssign for TrafficClass {
    fn add_assign(&mut self, rhs: TrafficClass) {
        *self = *self + rhs;
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} txns / {} B", self.transactions, self.bytes)
    }
}

/// Traffic at the back side of a cache, split into the paper's three
/// transaction classes (Section 5.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Traffic {
    /// Line fetches: read misses plus fetch-on-write misses.
    pub fetch: TrafficClass,
    /// Dirty-victim write-backs.
    pub write_back: TrafficClass,
    /// Write-through store traffic (including write-around and
    /// write-invalidate stores, which also bypass to the next level).
    pub write_through: TrafficClass,
}

impl Traffic {
    /// Total transactions across all classes.
    pub fn total_transactions(&self) -> u64 {
        self.fetch.transactions + self.write_back.transactions + self.write_through.transactions
    }

    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.fetch.bytes + self.write_back.bytes + self.write_through.bytes
    }
}

impl Add for Traffic {
    type Output = Traffic;

    fn add(self, rhs: Traffic) -> Traffic {
        Traffic {
            fetch: self.fetch + rhs.fetch,
            write_back: self.write_back + rhs.write_back,
            write_through: self.write_through + rhs.write_through,
        }
    }
}

impl AddAssign for Traffic {
    fn add_assign(&mut self, rhs: Traffic) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Traffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fetch {}, write-back {}, write-through {}",
            self.fetch, self.write_back, self.write_through
        )
    }
}

/// Wraps any [`NextLevel`], counting every transaction that crosses it.
///
/// Insert a recorder between a cache and its next level to measure the
/// cache's back-side traffic, exactly where the paper's Section 5 probes.
#[derive(Debug, Clone, Default)]
pub struct TrafficRecorder<N> {
    inner: N,
    traffic: Traffic,
}

impl<N: NextLevel> TrafficRecorder<N> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: N) -> Self {
        TrafficRecorder {
            inner,
            traffic: Traffic::default(),
        }
    }

    /// The counts so far.
    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// Resets the counters to zero (e.g. after a cache warm-up phase).
    pub fn reset(&mut self) {
        self.traffic = Traffic::default();
    }

    /// Shared access to the wrapped level.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Mutable access to the wrapped level.
    pub fn inner_mut(&mut self) -> &mut N {
        &mut self.inner
    }

    /// Unwraps the recorder, returning the wrapped level.
    pub fn into_inner(self) -> N {
        self.inner
    }
}

impl<N: NextLevel> NextLevel for TrafficRecorder<N> {
    const CARRIES_DATA: bool = N::CARRIES_DATA;

    #[inline]
    fn fetch_line(&mut self, addr: u64, buf: &mut [u8]) {
        self.traffic.fetch.tally(buf.len());
        self.inner.fetch_line(addr, buf);
    }

    #[inline]
    fn write_back(&mut self, addr: u64, data: &[u8]) {
        self.traffic.write_back.tally(data.len());
        self.inner.write_back(addr, data);
    }

    #[inline]
    fn write_through(&mut self, addr: u64, data: &[u8]) {
        self.traffic.write_through.tally(data.len());
        self.inner.write_through(addr, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MainMemory;

    #[test]
    fn recorder_counts_by_class() {
        let mut rec = TrafficRecorder::new(MainMemory::new());
        rec.write_through(0, &[0; 4]);
        rec.write_through(4, &[0; 8]);
        rec.write_back(16, &[0; 16]);
        let mut buf = [0u8; 16];
        rec.fetch_line(0, &mut buf);
        let t = rec.traffic();
        assert_eq!(
            t.write_through,
            TrafficClass {
                transactions: 2,
                bytes: 12
            }
        );
        assert_eq!(
            t.write_back,
            TrafficClass {
                transactions: 1,
                bytes: 16
            }
        );
        assert_eq!(
            t.fetch,
            TrafficClass {
                transactions: 1,
                bytes: 16
            }
        );
        assert_eq!(t.total_transactions(), 4);
        assert_eq!(t.total_bytes(), 44);
    }

    #[test]
    fn reset_zeroes_counters_but_keeps_data() {
        let mut rec = TrafficRecorder::new(MainMemory::new());
        rec.write_through(0x20, &[7; 4]);
        rec.reset();
        assert_eq!(rec.traffic(), Traffic::default());
        assert_eq!(rec.inner().read_byte(0x20), 7);
    }

    #[test]
    fn traffic_sums() {
        let a = Traffic {
            fetch: TrafficClass {
                transactions: 1,
                bytes: 16,
            },
            ..Traffic::default()
        };
        let b = Traffic {
            write_back: TrafficClass {
                transactions: 2,
                bytes: 32,
            },
            ..Traffic::default()
        };
        let mut c = a + b;
        c += a;
        assert_eq!(c.fetch.transactions, 2);
        assert_eq!(c.write_back.bytes, 32);
        assert_eq!(c.total_bytes(), 64);
    }

    #[test]
    fn into_inner_round_trips() {
        let mut rec = TrafficRecorder::new(MainMemory::new());
        rec.write_back(8, &[1]);
        let mem = rec.into_inner();
        assert_eq!(mem.read_byte(8), 1);
    }
}
