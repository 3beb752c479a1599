//! # ncbench — the repository benchmark
//!
//! One command runs one workload over the simulated GPU/InfiniBand stack,
//! checks every op's output and prints every metric by name and unit:
//!
//! ```text
//! cargo run --release --manifest-path ncbench/Cargo.toml -- \
//!     --workload vector_4m --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Metrics come in two clocks — *virtual* time (what the modeled cluster
//! would take; deterministic for a seed) and *host* time (what running
//! the simulator costs; end to end, as calibrated CPU time). `--trace 0`
//! reports the end-to-end metrics with tracing off; `--trace 1` adds a
//! traced run and reports the per-layer metrics. `METRICS.md` in this directory defines every
//! workload and metric.

pub mod calib;
pub mod clock;
pub mod env;
pub mod json;
pub mod probes;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
