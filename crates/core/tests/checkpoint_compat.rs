//! Checkpoint format compatibility: a container written by an earlier
//! build of this repository must keep restoring, byte for byte.
//!
//! `fixtures/small_recovery_c1588.v2.ckpt` was written by
//! `Simulation::checkpoint` at commit b367a73 — before the table-driven
//! CRC, the one-buffer seal and the slice-level codec helpers — from
//! [`cfg`] stepped to cycle 1588, the first cycle past 1500 with a Disha
//! recovery drain holding the token and another VC queued behind it. To
//! regenerate after a deliberate format change (a `VERSION` bump), step the
//! same configuration until `now() >= 1500 && recovery_active() &&
//! token_queue_len() > 0` and write `checkpoint()` out.

use sideband::SidebandConfig;
use stcc::{Scheme, SimConfig, Simulation, TuneConfig};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

const FIXTURE: &[u8] = include_bytes!("fixtures/small_recovery_c1588.v2.ckpt");
const FIXTURE_CYCLE: u64 = 1588;

fn cfg() -> SimConfig {
    SimConfig {
        net: NetConfig::small(DeadlockMode::PAPER_RECOVERY),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.02)),
        scheme: Scheme::Tuned(TuneConfig {
            sideband: SidebandConfig {
                radix: 8,
                ..SidebandConfig::paper()
            },
            ..TuneConfig::paper()
        }),
        cycles: 4_000,
        warmup: 500,
        seed: 13,
    }
}

#[test]
fn parent_written_checkpoint_restores_and_reserialises_byte_equal() {
    let sim = Simulation::restore(cfg(), None, FIXTURE).expect("fixture restores");
    assert_eq!(sim.now(), FIXTURE_CYCLE);
    assert!(sim.audit().is_clean());
    // Not a vacuous state: the recovery path is mid-drain.
    assert!(sim.network().recovery_active());
    assert!(sim.network().token_queue_len() > 0);
    assert_eq!(sim.checkpoint(), FIXTURE, "codec no longer writes v2 bytes");
}

#[test]
fn this_build_writes_the_parent_checkpoint() {
    let mut sim = Simulation::new(cfg()).unwrap();
    while sim.now() < FIXTURE_CYCLE {
        sim.step();
    }
    assert_eq!(sim.checkpoint(), FIXTURE);
}

#[test]
fn parent_written_checkpoint_runs_on_like_an_uninterrupted_run() {
    let mut resumed = Simulation::restore(cfg(), None, FIXTURE).expect("fixture restores");
    resumed.run_to_end();
    let mut straight = Simulation::new(cfg()).unwrap();
    straight.run_to_end();
    assert_eq!(resumed.checkpoint(), straight.checkpoint());
    assert_eq!(resumed.summary().unwrap(), straight.summary().unwrap());
}
