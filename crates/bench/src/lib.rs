//! Shared helpers for the benches.
//!
//! Each paper table/figure has a bench in `benches/paper_figures.rs` that
//! runs a miniature (8-ary 2-cube, few-thousand-cycle) version of the same
//! experiment — enough to regress the simulator's end-to-end cost per
//! reproduced artifact. Component microbenches live in `benches/micro.rs`.
//!
//! The benches use the in-tree [`harness`] (wall-clock median over repeated
//! runs) instead of an external benchmarking crate so the workspace builds
//! with no network access; see README "Hermetic build".

#![forbid(unsafe_code)]

pub mod harness;

use stcc::{Scheme, SimConfig, Simulation};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

/// A miniature steady-load simulation mirroring one sweep point of the
/// figures: 8-ary 2-cube, `cycles` total with 1/6 warm-up.
///
/// # Panics
///
/// Panics on invalid parameters (benches pass fixed known-good ones).
#[must_use]
pub fn mini_sim(scheme: Scheme, deadlock: DeadlockMode, rate: f64, cycles: u64) -> Simulation {
    let cfg = SimConfig {
        net: NetConfig::small(deadlock),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
        scheme,
        cycles,
        warmup: cycles / 6,
        seed: 0xBE7C,
    };
    Simulation::new(cfg).expect("valid mini simulation")
}

/// Runs a miniature simulation to completion and returns delivered flits
/// (used as the benchmark's observable output).
#[must_use]
pub fn run_mini(scheme: Scheme, deadlock: DeadlockMode, rate: f64, cycles: u64) -> u64 {
    let mut sim = mini_sim(scheme, deadlock, rate, cycles);
    sim.run_to_end();
    sim.network().counters().delivered_flits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_sim_delivers_traffic() {
        let flits = run_mini(Scheme::Base, DeadlockMode::Avoidance, 0.005, 3_000);
        assert!(flits > 0);
    }
}
