//! `simstats` — measurement infrastructure for the stcc reproduction.
//!
//! Collects exactly what the paper's evaluation reports:
//!
//! * [`LatencyStats`] — packet latency aggregates (mean/min/max plus a
//!   log₂ histogram for approximate percentiles),
//! * [`WindowSeries`] — windowed event counts, used for the
//!   throughput-vs-time plots (Figures 4 and 7),
//! * [`GaugeSeries`] — periodically sampled values, used for the
//!   threshold-vs-time plot (Figure 4),
//! * [`RunSummary`] — one steady-state simulation's headline numbers
//!   (normalized accepted traffic and average latency vs offered load).
//!
//! # Examples
//!
//! ```
//! use simstats::LatencyStats;
//!
//! let mut lat = LatencyStats::new();
//! for l in [10, 20, 30] {
//!     lat.record(l);
//! }
//! assert_eq!(lat.mean(), Some(20.0));
//! assert_eq!(lat.max(), Some(30));
//! ```

#![forbid(unsafe_code)]

mod latency;
mod series;
mod summary;

pub use latency::LatencyStats;
pub use series::{GaugeSeries, WindowSeries};
pub use summary::{jain_fairness, RunSummary};
