//! Synthetic workload generation for the stcc reproduction.
//!
//! The paper drives its 16-ary 2-cube with open-loop synthetic traffic: every
//! node generates fixed-length packets at a configured rate, with the
//! destination chosen by a *communication pattern*. Four patterns appear in
//! the evaluation — uniform random, bit-reversal, perfect-shuffle and
//! butterfly — plus a *bursty* workload that alternates low and high load
//! phases while rotating the pattern of each high-load burst (Figure 6).
//!
//! This crate provides:
//!
//! * [`Pattern`] — destination selection (the paper's four patterns plus a
//!   few standard extras useful for extensions),
//! * [`Process`] — packet generation processes (Bernoulli and periodic),
//! * [`Workload`] / [`WorkloadRunner`] — phase schedules and their per-node
//!   runtime state. Every process runs as per-node *deadlines* (the paper's
//!   "regeneration interval"): a node that comes due draws its destination
//!   and then the gap to its next packet — the interval of a periodic
//!   process, a geometric variate (integer-only, platform-exact) for a
//!   Bernoulli one. The simulator asks the runner once per cycle for that
//!   cycle's arrivals ([`WorkloadRunner::arrivals`]: one slot of a deadline
//!   wheel, one callback per generated packet, nodes ascending);
//!   [`WorkloadRunner::poll`] is the same body one node at a time, for
//!   drivers shaped as a per-node source closure. Both consume the one
//!   seeded [`SimRng`] in the same order, so they are interchangeable cycle
//!   by cycle, and [`WorkloadRunner::next_arrival`] names exactly the
//!   cycles an idle driver may skip.
//!
//! # Examples
//!
//! ```
//! use traffic::{Pattern, Process, Workload, WorkloadRunner};
//!
//! // Uniform-random Bernoulli traffic at 0.01 packets/node/cycle.
//! let wl = Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.01));
//! let mut runner = WorkloadRunner::new(&wl, 256, 0xC0FFEE)?;
//! let mut generated = 0;
//! for cycle in 0..1000 {
//!     runner.arrivals(cycle, |_node, _dst| generated += 1);
//! }
//! assert!(generated > 0);
//! # Ok::<(), traffic::TrafficError>(())
//! ```

#![forbid(unsafe_code)]

mod gaps;
mod pattern;
mod process;
mod rng;
mod wheel;
mod workload;

pub use pattern::{bits_for_nodes, Pattern};
pub use process::Process;
pub use rng::{splitmix64, SimRng};
pub use workload::{Phase, Workload, WorkloadRunner};

use core::fmt;

/// Error returned when a workload configuration is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// Bit-permutation patterns need a power-of-two node count.
    NodesNotPowerOfTwo {
        /// The rejected node count.
        nodes: usize,
    },
    /// Bernoulli rates must be in `[0, 1]` packets/node/cycle.
    BadRate {
        /// The rejected rate.
        rate: f64,
    },
    /// Periodic intervals must be nonzero.
    ZeroInterval,
    /// A workload must contain at least one phase.
    EmptyWorkload,
    /// Hotspot patterns need at least one hotspot node within range.
    BadHotspot,
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::NodesNotPowerOfTwo { nodes } => write!(
                f,
                "bit-permutation patterns require a power-of-two node count, got {nodes}"
            ),
            TrafficError::BadRate { rate } => {
                write!(
                    f,
                    "injection rate must be in [0, 1] packets/node/cycle, got {rate}"
                )
            }
            TrafficError::ZeroInterval => f.write_str("periodic interval must be nonzero"),
            TrafficError::EmptyWorkload => f.write_str("workload must contain at least one phase"),
            TrafficError::BadHotspot => f.write_str("hotspot pattern needs valid hotspot nodes"),
        }
    }
}

impl std::error::Error for TrafficError {}
