//! Experiment drivers for the `cwp` reproduction of Jouppi's
//! *"Cache Write Policies and Performance"* (WRL 91/12 / ISCA 1993).
//!
//! Every table and figure in the paper's evaluation has a module under
//! [`experiments`] that regenerates it from the synthetic workloads in
//! `cwp-trace` and the simulators in `cwp-cache`, `cwp-buffers`, and
//! `cwp-pipeline`. The `figures` binary prints any of them:
//!
//! ```text
//! cargo run --release -p cwp-core --bin figures -- --scale quick fig13
//! cargo run --release -p cwp-core --bin figures -- all
//! ```
//!
//! The building blocks are reusable:
//!
//! * [`sim::simulate`] runs one workload through one cache configuration
//!   and returns stats plus back-side traffic.
//! * [`sim::sweep`] runs a whole configuration bank over one
//!   [`sim::Source`] — a recorded trace or a live workload — and picks
//!   the sharded or streamed plan from it.
//! * [`lab::Lab`] memoizes simulation outcomes across experiments so a
//!   full figure run never simulates the same (workload, configuration)
//!   pair twice.
//! * [`report::Table`] renders results as aligned text, markdown, or CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod experiments;
pub mod lab;
pub mod obs;
pub mod report;
pub mod runner;
pub mod shard;
pub mod sim;
pub mod store;
pub mod supervise;

pub use lab::{Lab, WriteEvent, WriteStream};
pub use obs::{trace_replay, trace_simulation, TraceOptions, TracedRun};
pub use report::{require_table, Cell, CellError, CellErrorKind, Table};
pub use runner::{Job, JobOutcome, JobResult, RunSummary, Runner, RunnerConfig};
pub use shard::{run_shards, ShardReport};
pub use sim::{
    replay, simulate, simulate_audited, simulate_many_audited, simulate_many_sharded,
    simulate_probed, sweep, SimOutcome, Source,
};
pub use store::TraceStore;
pub use supervise::{backoff_delay, CancelToken, Supervisor};
