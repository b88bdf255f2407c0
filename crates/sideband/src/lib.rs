//! Side-band global-information-gather network model.
//!
//! The paper distributes two global quantities to every node over a dedicated
//! side-band: the network-wide count of **full** virtual-channel buffers and
//! the network-wide **delivered-flit count** of the last gather window. A
//! dimension-wise aggregation over a full-duplex k-ary n-cube completes the
//! all-to-all reduction in
//!
//! ```text
//! g = ceil(k / 2) * h * n   cycles     (the "gather duration")
//! ```
//!
//! where `h` is the per-hop side-band delay (2 cycles in the paper, so
//! `g = 32` for the 16-ary 2-cube). Nodes therefore see `g`-cycle-delayed
//! snapshots of the network, one every `g` cycles, and *linearly extrapolate*
//! from the two most recent snapshots to estimate current congestion.
//!
//! This crate models exactly that timing: [`Sideband::on_cycle`] is fed the
//! true instantaneous census each cycle; snapshots taken at multiples of `g`
//! become visible to the (replicated, network-wide identical) receivers `g`
//! cycles later; [`Sideband::estimate`] produces the congestion estimate the
//! throttle compares against its threshold.
//!
//! The bit-width accounting of §5 (12 bits of full-buffer count + 13 bits of
//! throughput = 25 side-band bits for the paper's network) lives in
//! [`width`], and the companion technical report's narrow (quantized)
//! side-band variant is modeled by [`Quantizer`].
//!
//! # Examples
//!
//! ```
//! use sideband::{Estimator, Sideband, SidebandConfig};
//!
//! let cfg = SidebandConfig::paper(); // k=16, n=2, h=2  =>  g=32
//! assert_eq!(cfg.gather_period(), 32);
//! let mut sb = Sideband::new(cfg);
//! let mut delivered = 0u64;
//! for now in 0..200 {
//!     sb.on_cycle(now, 10 + (now / 32) as u32, delivered);
//!     delivered += 3;
//! }
//! // After a few gathers the estimate tracks the (slowly rising) census.
//! assert!(sb.estimate(200) > 10.0);
//! ```

#![forbid(unsafe_code)]

mod gather;
mod quantize;
pub mod width;

pub use gather::{Estimator, Sideband, SidebandConfig, SidebandStats, Snapshot};
pub use quantize::Quantizer;
