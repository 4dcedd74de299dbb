//! The first-level data-cache simulator at the heart of `cwp`.
//!
//! Implements the full write-policy matrix the paper studies:
//!
//! * **Write hits** (Section 3): [`WriteHitPolicy::WriteThrough`] passes
//!   every store to the next level; [`WriteHitPolicy::WriteBack`] marks
//!   lines dirty and writes them back on eviction.
//! * **Write misses** (Section 4, Figure 12): the four useful combinations
//!   of fetch-on-write / write-allocate / write-invalidate —
//!   [`WriteMissPolicy::FetchOnWrite`], [`WriteMissPolicy::WriteValidate`]
//!   (sub-block valid bits, no fetch), [`WriteMissPolicy::WriteAround`]
//!   (bypass, leave the old line), and [`WriteMissPolicy::WriteInvalidate`]
//!   (invalidate the indexed line, bypass).
//!
//! One engine, [`Cache`], implements the matrix over per-byte valid and
//! dirty masks, so the paper's byte-granularity dirty-victim statistics
//! (Figures 20-25) fall out directly. The type of its next level picks
//! one of two planes. Over a level that keeps bytes (such as
//! [`cwp_mem::MainMemory`]) lines hold real data, so correctness is
//! testable (any policy must be functionally transparent) and faults can
//! be injected. Over [`cwp_mem::NullMemory`] the engine carries no data
//! at all and every data copy compiles away: the measurement path, with
//! identical statistics and traffic. [`SoaCache`] is that data-free
//! engine behind a length-only interface.
//!
//! # Examples
//!
//! An 8KB direct-mapped write-back cache over recorded main memory:
//!
//! ```
//! use cwp_cache::{Cache, CacheConfig, WriteHitPolicy, WriteMissPolicy};
//!
//! # fn main() -> Result<(), cwp_cache::ConfigError> {
//! let config = CacheConfig::builder()
//!     .size_bytes(8 * 1024)
//!     .line_bytes(16)
//!     .write_hit(WriteHitPolicy::WriteBack)
//!     .write_miss(WriteMissPolicy::FetchOnWrite)
//!     .build()?;
//! let mut cache = Cache::with_memory(config);
//!
//! cache.write(0x1000, &[0xaa; 8]);
//! let mut buf = [0u8; 8];
//! cache.read(0x1000, &mut buf);
//! assert_eq!(buf, [0xaa; 8]);
//! assert_eq!(cache.stats().write_misses, 1);
//! assert_eq!(cache.stats().read_hits, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod config;
pub mod fault;
pub mod mask;
pub mod metrics;
pub mod overhead;
pub mod policy;
pub mod soa;
pub mod stats;

pub use cache::{Cache, LineState, MemoryCache};
pub use config::{CacheConfig, CacheConfigBuilder, ConfigError};
pub use cwp_mem::CwpError;
pub use cwp_obs::{NullProbe, Probe};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultStats};
pub use overhead::Protection;
pub use policy::{WriteHitPolicy, WriteMissPolicy};
pub use soa::SoaCache;
pub use stats::{CacheStats, FlushStats, VictimStats};
