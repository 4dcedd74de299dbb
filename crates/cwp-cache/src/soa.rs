//! The data-free engine under its length-only interface.
//!
//! [`SoaCache`] is [`Cache`] on its data-free plane (over
//! [`NullMemory`]): flat `tags`, `valid`, `dirty` and `last_used` word
//! arrays and nothing else, driven by addresses and lengths. It holds no
//! policy logic of its own; every access runs the one engine's state
//! machine.

use std::ops::{Deref, DerefMut};

use cwp_mem::{NullMemory, TrafficRecorder};

use crate::cache::Cache;
use crate::config::CacheConfig;

/// [`Cache`] on its data-free plane, read and written by length.
///
/// Dereferences to the engine for everything else: `stats`, `traffic`,
/// `bytes_written`, `flush`, `config`, `line_states`.
#[derive(Debug, Clone)]
pub struct SoaCache(Cache<TrafficRecorder<NullMemory>>);

impl SoaCache {
    /// Builds an empty data-free cache for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` enables fault injection: the fault model
    /// corrupts data bytes, which a data-free cache does not carry.
    pub fn new(config: CacheConfig) -> Self {
        SoaCache(Cache::new(config, TrafficRecorder::new(NullMemory)))
    }

    /// Registers a read of `len` bytes at `addr` ([`Cache::read_len`]).
    pub fn read(&mut self, addr: u64, len: usize) {
        self.0.read_len(addr, len);
    }

    /// Registers a write of `len` bytes at `addr` ([`Cache::write_len`]).
    pub fn write(&mut self, addr: u64, len: usize) {
        self.0.write_len(addr, len);
    }
}

impl Deref for SoaCache {
    type Target = Cache<TrafficRecorder<NullMemory>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for SoaCache {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "cannot model fault injection")]
    fn soa_rejects_fault_injection() {
        let config = CacheConfig::builder().fault_rate_ppm(1).build().unwrap();
        let _ = SoaCache::new(config);
    }
}
