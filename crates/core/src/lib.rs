//! `stcc` — **S**elf-**T**uned **C**ongestion **C**ontrol for multiprocessor
//! networks, reproducing Thottethodi, Lebeck & Mukherjee (HPCA 2001).
//!
//! The paper prevents wormhole-network saturation by **source throttling**
//! driven by two mechanisms:
//!
//! 1. **Global congestion estimation** ([`SelfTuned`], backed by the
//!    [`sideband`] crate): every node learns the network-wide count of full
//!    VC buffers through a dedicated side-band, linearly extrapolates the
//!    delayed snapshots, and blocks new-packet injection while the estimate
//!    exceeds a threshold.
//! 2. **Self-tuning of that threshold** ([`TuneConfig`], [`decide`]): a
//!    hill-climbing loop evaluates the tuning decision table (Table 1) once
//!    per tuning period on global throughput feedback, plus a
//!    local-maximum-avoidance rule that restores the conditions of the best
//!    throughput seen so far and forgets a stale maximum after `r`
//!    consecutive corrections.
//!
//! The two mechanisms are two pieces of code. The first — the gather, the
//! estimate-vs-threshold gate, the staleness watchdog that fails open when
//! aggregates stop arriving, and the checkpoint framing — is the scaffold
//! [`SidebandDriven`], written once. The second is a [`Law`]: [`TuneLaw`]
//! for the paper's scheme, and one law file each for its globally informed
//! comparison points — fixed-threshold throttling ([`StaticThreshold`],
//! Figure 5) and the rivals [`AimdControl`], [`DecBitControl`] and
//! [`BbrControl`]. Every controller type here is `SidebandDriven<SomeLaw>`
//! and is driven through the [`Controller`] trait.
//!
//! The locally informed comparison points are [`wormsim::NoControl`] (the
//! `Base` curves) and the [`AloControl`] of Baydal et al.; a [`Simulation`]
//! facade wires a network, a workload and a policy together and measures
//! what the paper plots.
//!
//! # Quick start
//!
//! ```
//! use stcc::{Scheme, SimConfig, Simulation, TuneConfig};
//! use traffic::{Pattern, Process, Workload};
//! use wormsim::{DeadlockMode, NetConfig};
//!
//! let net = NetConfig::small(DeadlockMode::Avoidance);
//! let cfg = SimConfig {
//!     // The tuner's side-band gathers over the network it runs on.
//!     scheme: Scheme::Tuned(TuneConfig::for_net(&net)),
//!     net,
//!     workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.005)),
//!     cycles: 20_000,
//!     warmup: 4_000,
//!     seed: 1,
//! };
//! let mut sim = Simulation::new(cfg)?;
//! sim.run_to_end();
//! let s = sim.summary().expect("run is past warm-up");
//! assert!(s.delivered_packets > 0);
//! # Ok::<(), stcc::SimError>(())
//! ```

#![forbid(unsafe_code)]

mod aimd;
mod alo;
mod bbr;
mod controller;
mod decbit;
mod scaffold;
mod scheme;
mod sim;
mod statik;
mod tuned;

pub use aimd::{AimdControl, AimdLaw};
pub use alo::AloControl;
pub use bbr::{bbr_phase_gain, BbrControl, BbrLaw};
pub use controller::{Controller, ControllerCounters};
pub use decbit::{DecBitControl, DecBitLaw};
pub use scaffold::{Action, Law, Period, SidebandDriven};
pub use scheme::{Control, Scheme};
pub use sim::{
    FaultReport, LivelockDiag, Observer, RunGuard, SimConfig, SimError, Simulation, SummaryError,
    DEFAULT_LIVELOCK_WINDOW,
};
pub use statik::{StaticConfig, StaticLaw, StaticThreshold};
pub use tuned::{decide, SelfTuned, TuneConfig, TuneLaw};
// The audit layer's types, so `SimError::Audit` and `Simulation::audit`
// are usable without importing `wormsim` directly.
pub use wormsim::{AuditKind, AuditReport, AuditViolation, PhaseStats};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::{Controller, Scheme, SimConfig, Simulation, TuneConfig};
    pub use traffic::{Pattern, Process, Workload};
    pub use wormsim::{DeadlockMode, NetConfig};
}
