//! `wormsim` — a flit-level, cycle-driven wormhole network simulator for
//! k-ary n-cubes, written from scratch as the substrate for reproducing
//! *Self-Tuned Congestion Control for Multiprocessor Networks* (HPCA 2001).
//!
//! The microarchitecture follows §5.1 of the paper:
//!
//! * full-duplex physical links, `vcs` virtual channels per physical channel
//!   with `buf_depth`-flit edge buffers (the paper: 3 VCs × 8 flits),
//! * one injection and one delivery channel per node,
//! * a central routing arbiter per router that routes at most one packet
//!   header per cycle (demand-slotted round-robin) with a 1-cycle routing
//!   delay,
//! * 1 cycle per flit through the crossbar and 1 cycle per flit on the link
//!   (a 2-cycle pipelined hop),
//! * fully adaptive minimal routing with either **Duato deadlock avoidance**
//!   (a dimension-order escape VC) or **Disha progressive deadlock
//!   recovery** (timeout detection, a global token, per-router deadlock
//!   buffers) — see [`DeadlockMode`].
//!
//! Congestion-control policies plug in through the [`CongestionControl`]
//! trait; the network itself exposes the two global quantities the paper's
//! side-band distributes ([`Network::full_buffer_count`] and
//! [`Network::delivered_flits_cum`]) plus the local state the ALO baseline
//! inspects ([`Network::output_vc_allocated`]).
//!
//! Traffic enters once per cycle: [`Network::cycle_from`] asks its source
//! for the cycle's arrivals in one pass (an [`Offer`] call per generated
//! packet, nodes ascending — `traffic::WorkloadRunner::arrivals` is the
//! matching source), so generation costs the cycle's traffic rather than a
//! call per node. [`Network::cycle`] / [`Network::run`] adapt a per-node
//! source closure onto the same entry.
//!
//! # Examples
//!
//! Run light uniform traffic with no congestion control and watch every
//! packet arrive:
//!
//! ```
//! use wormsim::{DeadlockMode, NetConfig, Network, NoControl};
//!
//! let mut net = Network::new(NetConfig::small(DeadlockMode::Avoidance))?;
//! // One packet from node 0 to node 9 at cycle 0.
//! let mut one_shot = Some(9);
//! let mut source = move |_now: u64, node: usize| {
//!     if node == 0 { one_shot.take() } else { None }
//! };
//! net.run(500, &mut source, &mut NoControl);
//! assert_eq!(net.counters().delivered_packets, 1);
//! let rec = net.drain_deliveries().next().unwrap();
//! assert_eq!((rec.src, rec.dst), (0, 9));
//! # Ok::<(), wormsim::ConfigError>(())
//! ```

#![deny(unsafe_code)]

mod activity;
mod audit;
mod config;
mod control;
mod counters;
mod deadlock;
mod network;
mod packet;
mod plane;
mod ring;
mod routing;
// The one module allowed `unsafe`: the checked raw cells, the packet-field
// projection and the worker pool's one detach of a shard's view.
#[allow(unsafe_code)]
mod shard;
mod snapshot;
#[cfg(test)]
mod testnet;

pub use audit::{AuditKind, AuditReport, AuditViolation};
pub use config::{
    ConfigError, DeadlockMode, NetConfig, MAX_BUF_DEPTH, MAX_HOP_LATENCY, MAX_NODES,
    MAX_SOURCE_QUEUE_CAP,
};
pub use control::{CongestionControl, NoControl};
pub use counters::{Counters, StageCycles};
pub use network::{Network, Offer};
pub use packet::{DeliveredRecord, Flit, PacketId, PacketInfo, PacketStore};
pub use shard::PhaseStats;
