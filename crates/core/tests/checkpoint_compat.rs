//! Checkpoint format compatibility: a container written by an earlier
//! build of this repository must keep restoring, byte for byte — or, across
//! a deliberate `VERSION` bump, be refused with the typed version error.
//!
//! The `.v4.ckpt` fixtures were written by `Simulation::checkpoint` at the
//! commit that introduced v4 (network payloads carry only ground truth: the
//! starvation deadlines, worklist words, census and token-queue flags were
//! dropped; the simulation's decisions did not change).
//! `small_recovery_c1673.v3.ckpt`, the v3 writing of the recovery fixture,
//! is kept as the container this build must refuse.
//!
//! `fixtures/small_recovery_c1673.v4.ckpt` is [`cfg`] stepped to cycle
//! 1673, the first cycle past 1500 with a Disha recovery drain holding the
//! token and another VC queued behind it. To regenerate after a deliberate
//! format change (a `VERSION` bump), step the same configuration until
//! `now() >= 1500 && recovery_active() && token_queue_len() > 0` and write
//! `checkpoint()` out.
//!
//! The four `small_<scheme>_c2501.v4.ckpt` fixtures pin the other
//! side-band controllers' state layouts: the same configuration with only
//! the scheme swapped, stepped to cycle 2501 — off the gather grid, off
//! every decision period, and past at least one decision of every law. To
//! regenerate, step [`cfg`] with that scheme to cycle 2501 and write
//! `checkpoint()` out.

use sideband::SidebandConfig;
use stcc::{Scheme, SimConfig, SimError, Simulation};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

/// One earlier-written container: the scheme it was taken under and the
/// cycle it was taken at.
struct Fixture {
    scheme: &'static str,
    bytes: &'static [u8],
    cycle: u64,
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        scheme: "tune",
        bytes: include_bytes!("fixtures/small_recovery_c1673.v4.ckpt"),
        cycle: 1673,
    },
    Fixture {
        scheme: "aimd",
        bytes: include_bytes!("fixtures/small_aimd_c2501.v4.ckpt"),
        cycle: 2501,
    },
    Fixture {
        scheme: "decbit",
        bytes: include_bytes!("fixtures/small_decbit_c2501.v4.ckpt"),
        cycle: 2501,
    },
    Fixture {
        scheme: "bbr",
        bytes: include_bytes!("fixtures/small_bbr_c2501.v4.ckpt"),
        cycle: 2501,
    },
    Fixture {
        scheme: "static-12",
        bytes: include_bytes!("fixtures/small_static12_c2501.v4.ckpt"),
        cycle: 2501,
    },
];

fn cfg(scheme: &str) -> SimConfig {
    let sideband = SidebandConfig {
        radix: 8,
        ..SidebandConfig::paper()
    };
    SimConfig {
        net: NetConfig::small(DeadlockMode::PAPER_RECOVERY),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.02)),
        scheme: Scheme::by_name(scheme, &sideband).expect("fixture scheme resolves"),
        cycles: 4_000,
        warmup: 500,
        seed: 13,
    }
}

#[test]
fn parent_written_checkpoint_restores_and_reserialises_byte_equal() {
    for f in FIXTURES {
        let sim = Simulation::restore(cfg(f.scheme), None, f.bytes).expect("fixture restores");
        assert_eq!(sim.now(), f.cycle, "{}", f.scheme);
        assert!(sim.audit().is_clean(), "{}", f.scheme);
        if f.scheme == "tune" {
            // Not a vacuous state: the recovery path is mid-drain.
            assert!(sim.network().recovery_active());
            assert!(sim.network().token_queue_len() > 0);
        } else {
            // Not a vacuous state: the law has decided at least once
            // (`static` never decides; its gate and side-band are pinned).
            let decided = sim.controller_counters().decisions > 0;
            assert_eq!(decided, f.scheme != "static-12", "{}", f.scheme);
        }
        assert_eq!(
            sim.checkpoint(),
            f.bytes,
            "{}: codec no longer writes v4 bytes",
            f.scheme
        );
    }
}

#[test]
fn this_build_writes_the_parent_checkpoint() {
    for f in FIXTURES {
        let mut sim = Simulation::new(cfg(f.scheme)).unwrap();
        while sim.now() < f.cycle {
            sim.step();
        }
        assert_eq!(sim.checkpoint(), f.bytes, "{}", f.scheme);
    }
}

#[test]
fn parent_written_checkpoint_runs_on_like_an_uninterrupted_run() {
    for f in FIXTURES {
        let mut resumed =
            Simulation::restore(cfg(f.scheme), None, f.bytes).expect("fixture restores");
        resumed.run_to_end();
        let mut straight = Simulation::new(cfg(f.scheme)).unwrap();
        straight.run_to_end();
        assert_eq!(resumed.checkpoint(), straight.checkpoint(), "{}", f.scheme);
        assert_eq!(
            resumed.summary().unwrap(),
            straight.summary().unwrap(),
            "{}",
            f.scheme
        );
    }
}

/// A v3 container's network payload still carries the derived state v4
/// dropped, so this build would misread it: restoring one must fail typed,
/// before anything decodes.
#[test]
fn a_v3_container_is_refused_with_the_version_error() {
    let v3 = include_bytes!("fixtures/small_recovery_c1673.v3.ckpt");
    match Simulation::restore(cfg("tune"), None, v3) {
        Err(SimError::Checkpoint(checkpoint::CheckpointError::BadVersion { found: 3 })) => {}
        Err(other) => panic!("v3 container refused with the wrong error: {other}"),
        Ok(_) => panic!("v3 container restored"),
    }
}
