//! Backing memory and the next-level interface for the `cwp` simulator.
//!
//! The cache simulator in `cwp-cache` can carry data: its lines then hold
//! real bytes, and this crate supplies the flat memory those bytes
//! ultimately live in. Carrying data lets the test suite assert *functional
//! transparency* — that every cache/policy combination returns exactly the
//! bytes a flat memory would — which pins down the trickier write-miss
//! semantics (write-validate's sub-block valid bits, write-around's
//! bypassing, write-invalidate's corruption rule).
//!
//! The [`NextLevel`] trait is the seam between hierarchy levels: a cache
//! drives its next level through it, [`MainMemory`] terminates the stack,
//! and [`TrafficRecorder`] wraps any level to count the transactions and
//! bytes the paper's Section 5 measures. [`NullMemory`] terminates a stack
//! that needs no bytes at all: a cache over it runs on its data-free plane.
//!
//! # Examples
//!
//! ```
//! use cwp_mem::{MainMemory, NextLevel, TrafficRecorder};
//!
//! let mut mem = TrafficRecorder::new(MainMemory::new());
//! mem.write_through(0x100, &[1, 2, 3, 4]);
//! let mut buf = [0u8; 4];
//! mem.fetch_line(0x100, &mut buf);
//! assert_eq!(buf, [1, 2, 3, 4]);
//! assert_eq!(mem.traffic().write_through.transactions, 1);
//! assert_eq!(mem.traffic().fetch.bytes, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod error;
pub mod faulty;
pub mod memory;
pub mod next;
pub mod rng;
pub mod traffic;

pub use error::CwpError;
pub use faulty::{FaultyNextLevel, TransitFaultStats};
pub use memory::{MainMemory, NullMemory};
pub use next::NextLevel;
pub use rng::SplitMix64;
pub use traffic::{Traffic, TrafficClass, TrafficRecorder};
